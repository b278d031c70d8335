package core

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestCSVBytesPinned pins the exact bytes, headers included, that
// WriteMicroCSV and WriteMacroCSV render for fixed results: one row
// with every counter known, one with every counter unknown.
func TestCSVBytesPinned(t *testing.T) {
	known := Counters{
		PoolHitRatio: 0.5, PlanCacheHitRatio: 1, TopoPrepHitRatio: 0.125,
		AllocsPerOp: 123.4, BytesPerOp: 5678.9, Shards: 2, ShardPruneRate: 0.75,
		ShardFastPath: 3, ShardHedgeFired: 4, ShardHedgeWon: 1, WALFsyncs: 6, DirtyPages: 7,
		JoinStrategy: "pbsm", PBSMCells: 64, DedupDrops: 9, JoinPushdown: 2,
	}
	unknown := unknownCounters()
	unknown.ShardFastPath = 5 // blank: not a cluster
	micro := []MicroResult{
		{ID: "MT1", Name: "polygon, intersects", Category: "topo", Engine: "gaiadb", Runs: 5, Parallelism: 2,
			Mean: 1500 * time.Microsecond, Median: 1400 * time.Microsecond, P95: 2 * time.Millisecond,
			P99: 3 * time.Millisecond, Min: time.Millisecond, Max: 4 * time.Millisecond, Rows: 42,
			Counters: known},
		{ID: "MA5", Name: "plain", Category: "analysis", Engine: "myspatial", Runs: 1,
			Unsupported: true, Err: errors.New("bad, worse"), Counters: unknown},
	}
	macroKnown := known
	macroKnown.JoinStrategy = "mixed"
	macroUnknown := unknownCounters()
	macroUnknown.JoinPushdown = 3 // blank: not a cluster
	macro := []MacroResult{
		{ID: "MS1", Name: `map "search", browse`, Engine: "gaiadb", Clients: 2, Parallelism: 1, Ops: 10,
			Elapsed: 2500 * time.Millisecond, Throughput: 4.25, MeanLatency: 250 * time.Millisecond,
			P50Latency: 200 * time.Millisecond, P95Latency: 300 * time.Millisecond,
			P99Latency: 400 * time.Millisecond, RowsPerOp: 12.25, Counters: macroKnown},
		{ID: "MS5", Name: "land use", Engine: "commercedb", Clients: 1, Err: errors.New("x, y"),
			Counters: macroUnknown},
	}
	const want = `id,name,category,engine,runs,parallelism,mean_us,p50_us,p95_us,p99_us,min_us,max_us,rows,unsupported,error,pool_hit,plan_cache_hit,prep_hit,allocs,bytes,shards,shard_prune,shard_fastpath,hedge_fired,hedge_won,wal_fsync,dirty_pages,join_strategy,pbsm_cells,dedup_drops,join_pushdown
MT1,"polygon, intersects",topo,gaiadb,5,2,1500,1400,2000,3000,1000,4000,42,false,,0.500,1.000,0.125,123,5679,2,0.750,3,4,1,6,7,pbsm,64,9,2
MA5,plain,analysis,myspatial,1,0,0,0,0,0,0,0,0,true,bad; worse,,,,,,,,,,,,,,,,
id,name,engine,clients,parallelism,ops,elapsed_ms,ops_per_sec,mean_latency_us,p50_latency_us,p95_latency_us,p99_latency_us,rows_per_op,unsupported,error,pool_hit,plan_cache_hit,prep_hit,allocs,bytes,shards,shard_prune,shard_fastpath,hedge_fired,hedge_won,wal_fsync,dirty_pages,join_strategy,pbsm_cells,dedup_drops,join_pushdown
MS1,"map ""search"", browse",gaiadb,2,1,10,2500,4.250,250000,200000,300000,400000,12.2,false,,0.500,1.000,0.125,123,5679,2,0.750,3,4,1,6,7,mixed,64,9,2
MS5,land use,commercedb,1,0,0,0,0.000,0,0,0,0,0.0,false,x; y,,,,,,,,,,,,,,,,
`
	var sb strings.Builder
	WriteMicroCSV(&sb, micro)
	WriteMacroCSV(&sb, macro)
	if got := sb.String(); got != want {
		t.Errorf("CSV bytes changed\ngot:\n%s\nwant:\n%s", got, want)
	}
}
