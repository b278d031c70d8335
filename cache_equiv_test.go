package jackpine

import (
	"testing"

	"jackpine/internal/engine"
)

// TestCacheEquivalence runs the entire micro suite (MT1–MT15, MA1–MA12)
// on engines with decode-layer caches disabled versus enabled, at
// parallelism 1 and 8, executing every query twice on each so the
// second pass on the cached engine is served from the geometry and plan
// caches. Every execution must be byte-identical to the uncached
// baseline: same columns, same rows, same order, same float rendering.
// The caches sit below result construction, so a divergence means a
// cached decode or cached plan changed semantics.
func TestCacheEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	ctx := NewQueryContext(ds)
	for _, par := range []int{1, 8} {
		plain := openLoaded(t, ds, engine.WithGeomCache(0), engine.WithPlanCache(0), WithParallelism(par))
		cached := openLoaded(t, ds, WithParallelism(par))
		plainConn, cachedConn := connect(t, plain), connect(t, cached)
		for _, q := range MicroSuite() {
			sql := q.SQL(ctx, 0)
			rs, err := plainConn.Query(sql)
			if err != nil {
				t.Fatalf("%s uncached at parallelism %d: %v", q.ID, par, err)
			}
			want := canonRows(rs)
			// Twice: the first pass fills the caches, the second hits them.
			for pass := 0; pass < 2; pass++ {
				rs, err := cachedConn.Query(sql)
				if err != nil {
					t.Fatalf("%s cached pass %d at parallelism %d: %v", q.ID, pass, par, err)
				}
				if got := canonRows(rs); got != want {
					t.Errorf("%s: cached pass %d at parallelism %d diverges\nuncached:\n%s\ncached:\n%s",
						q.ID, pass, par, want, got)
				}
			}
		}

		// The sweep must actually exercise both caches on the cached
		// engine.
		cc := cached.CacheCounters()
		if cc.GeomHits == 0 {
			t.Errorf("parallelism %d: geometry cache saw no hits over the sweep (misses=%d)", par, cc.GeomMisses)
		}
		if cc.PlanHits == 0 {
			t.Errorf("parallelism %d: plan cache saw no hits over the sweep (misses=%d)", par, cc.PlanMisses)
		}
		// And the uncached engine's counters must stay silent.
		pc := plain.CacheCounters()
		if pc.GeomHits+pc.GeomMisses != 0 || pc.PlanHits+pc.PlanMisses != 0 {
			t.Errorf("parallelism %d: disabled caches recorded traffic: %+v", par, pc)
		}
	}
}
