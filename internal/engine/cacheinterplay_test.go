package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// loadMany inserts n small polygons into landmarks in batches.
func loadMany(t *testing.T, e *Engine, n int) {
	t.Helper()
	const batch = 500
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO landmarks VALUES ")
		for i := lo; i < hi; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			x := float64(i % 100)
			y := float64(i / 100)
			fmt.Fprintf(&sb, "(%d, 'lm%d', ST_GeomFromText('POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))'))",
				i, i, x, y, x+0.9, y, x+0.9, y+0.9, x, y+0.9, x, y)
		}
		e.MustExec(sb.String())
	}
}

// TestGeomCacheUnderFramePressure: with a buffer pool far smaller than
// the heap, repeated scans must evict pages while the geometry cache
// keeps serving decoded geometries — the two layers are independent,
// and results stay stable throughout.
func TestGeomCacheUnderFramePressure(t *testing.T) {
	// 64 frames = 512 KiB of pool over a ~1 MiB heap.
	e := Open(GaiaDB(), WithPoolPages(64))
	e.MustExec("CREATE TABLE landmarks (id INTEGER, name TEXT, geo GEOMETRY)")
	loadMany(t, e, 8000)

	const q = "SELECT COUNT(*) FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(10, 10, 40, 40))"
	first := e.MustExec(q)
	psBefore, ccBefore := e.Pool().Stats(), e.CacheCounters()
	second := e.MustExec(q)
	if first.Rows[0][0].Int != second.Rows[0][0].Int {
		t.Fatalf("count drifted across runs: %v vs %v", first.Rows[0][0], second.Rows[0][0])
	}

	ps := e.Pool().Stats()
	if ps.Evictions == psBefore.Evictions {
		t.Errorf("pool saw no evictions under frame pressure: %+v (cached pages %d)",
			ps, e.Pool().CachedPages())
	}
	cc := e.CacheCounters()
	if cc.GeomHits == ccBefore.GeomHits {
		t.Errorf("geometry cache served no hits on the repeat scan: %+v", cc)
	}
}

// TestMissPenaltyOnlyOnRealMisses: the pool's simulated disk latency
// must charge only genuine page misses — a warm scan whose geometries
// come from the geometry cache pays nothing.
func TestMissPenaltyOnlyOnRealMisses(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 8)
	const q = "SELECT COUNT(*) FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 6, 6))"
	e.MustExec(q) // warm pool and geometry cache

	const penalty = 50 * time.Millisecond
	e.Pool().MissPenalty = penalty
	defer func() { e.Pool().MissPenalty = 0 }()

	before := e.Pool().Stats().Misses
	start := time.Now()
	e.MustExec(q)
	warm := time.Since(start)
	if m := e.Pool().Stats().Misses - before; m != 0 {
		t.Fatalf("warm scan took %d pool misses", m)
	}
	if warm >= penalty {
		t.Errorf("warm scan took %v, as if a miss penalty was charged", warm)
	}

	// Dropping the pool forces real misses, which must now pay.
	if err := e.Pool().DropAll(); err != nil {
		t.Fatal(err)
	}
	before = e.Pool().Stats().Misses
	start = time.Now()
	e.MustExec(q)
	cold := time.Since(start)
	if m := e.Pool().Stats().Misses - before; m == 0 {
		t.Fatal("cold scan after DropAll saw no pool misses")
	}
	if cold < penalty {
		t.Errorf("cold scan took %v, less than one %v miss penalty", cold, penalty)
	}
}

// TestWarmRepeatHitsEveryLayer: a repeat of a query against warm
// caches is all hits and no misses in every layer, measured as the
// difference of counter snapshots taken around it.
func TestWarmRepeatHitsEveryLayer(t *testing.T) {
	e := newTestEngine(t)
	loadGrid(t, e, 6)
	const q = "SELECT id FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 4, 4))"
	e.MustExec(q)
	e.MustExec(q)

	before := e.CacheCounters()
	if before.PoolHits+before.GeomHits+before.PlanHits == 0 {
		t.Fatalf("warmup recorded no cache activity: %+v", before)
	}
	e.MustExec(q)
	cc := e.CacheCounters()
	if hits, misses := cc.PlanHits-before.PlanHits, cc.PlanMisses-before.PlanMisses; hits != 1 || misses != 0 {
		t.Errorf("plan counters over the repeat: hits=%d misses=%d", hits, misses)
	}
	if hits, misses := cc.GeomHits-before.GeomHits, cc.GeomMisses-before.GeomMisses; hits == 0 || misses != 0 {
		t.Errorf("geom counters over the repeat: hits=%d misses=%d", hits, misses)
	}
	if misses := cc.PoolMisses - before.PoolMisses; misses != 0 {
		t.Errorf("pool took %d misses on a warm repeat", misses)
	}
}
