package jackpine

import (
	"strings"
	"testing"

	"jackpine/internal/engine"
	"jackpine/internal/sql"
)

// ms7Queries are the three table-to-table join statements issued by the
// MS7 overlay-and-proximity macro, inlined so the rail can compare their
// result bytes (the scenario Run only surfaces row counts).
var ms7Queries = []struct{ id, sql string }{
	{"MS7.overlay", "SELECT COUNT(*) FROM arealm a JOIN areawater w ON ST_Intersects(a.geo, w.geo)"},
	{"MS7.cluster", "SELECT COUNT(*) FROM pointlm a JOIN pointlm b ON ST_DWithin(a.geo, b.geo, 50.0) WHERE a.id < b.id"},
	{"MS7.proximity", "SELECT COUNT(*), MAX(p.id) FROM pointlm p JOIN areawater w ON ST_DWithin(p.geo, w.geo, 100.0)"},
}

// TestJoinStrategyEquivalence drives every join-bearing micro query
// (the ST_* topological-relation joins of the micro suite) and the
// three MS7 macro joins through forced index-nested-loop, forced
// partition-based spatial-merge, and the cost-based default, at
// parallelism 1 and 8, one engine per combination. Every combination
// must return byte-identical results to the serial INL baseline.
// Running each statement twice on an engine also exercises the
// version-keyed PBSM state cache: the second PBSM execution reuses the
// cached grid rather than rebuilding it.
func TestJoinStrategyEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	ctx := NewQueryContext(ds)
	eng := openLoaded(t, ds, WithParallelism(1), engine.WithJoinStrategy(sql.JoinINL))
	conn := connect(t, eng)

	type joinQuery struct{ id, sql string }
	var queries []joinQuery
	for _, q := range MicroSuite() {
		if s := q.SQL(ctx, 0); strings.Contains(s, " JOIN ") {
			queries = append(queries, joinQuery{q.ID, s})
		}
	}
	if len(queries) < 8 {
		t.Fatalf("micro suite exposes %d join queries, want at least 8", len(queries))
	}
	for _, q := range ms7Queries {
		queries = append(queries, joinQuery(q))
	}

	// ST_Relate-with-pattern joins (MT15) are not a PBSM-eligible shape:
	// the three-argument predicate stays on the index-nested-loop path
	// even when PBSM is forced.
	relates := 0
	for _, q := range queries {
		if strings.Contains(q.sql, "ST_Relate") {
			relates++
		}
	}

	baseline := make(map[string]string)
	for _, q := range queries {
		rs, err := conn.Query(q.sql)
		if err != nil {
			t.Fatalf("%s serial INL: %v", q.id, err)
		}
		baseline[q.id] = canonRows(rs)
	}
	if st := eng.JoinStats(); st.INL == 0 || st.PBSM != 0 {
		t.Fatalf("forced INL baseline ran INL=%d PBSM=%d joins, want all INL", st.INL, st.PBSM)
	}

	const passes = 2
	for _, strat := range []sql.JoinStrategy{sql.JoinPBSM, sql.JoinAuto} {
		for _, par := range []int{1, 8} {
			eng := openLoaded(t, ds, WithParallelism(par), engine.WithJoinStrategy(strat))
			conn := connect(t, eng)
			for pass := 0; pass < passes; pass++ {
				for _, q := range queries {
					rs, err := conn.Query(q.sql)
					if err != nil {
						t.Fatalf("%s strategy %v parallelism %d pass %d: %v", q.id, strat, par, pass, err)
					}
					if got := canonRows(rs); got != baseline[q.id] {
						t.Errorf("%s: strategy %v parallelism %d pass %d diverges from serial INL\nwant:\n%s\ngot:\n%s",
							q.id, strat, par, pass, baseline[q.id], got)
					}
				}
			}
			if strat != sql.JoinPBSM {
				continue
			}
			pbsm, inl := int64(passes*(len(queries)-relates)), int64(passes*relates)
			if st := eng.JoinStats(); st.PBSM < pbsm || st.INL > inl || st.CacheHits == 0 {
				t.Errorf("forced PBSM at parallelism %d ran INL=%d PBSM=%d joins with %d cached grids, want %d PBSM (+%d ST_Relate INL) and cache reuse",
					par, st.INL, st.PBSM, st.CacheHits, pbsm, inl)
			}
		}
	}
}
