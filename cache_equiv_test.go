package jackpine

import (
	"testing"

	"jackpine/internal/engine"
)

// TestCacheEquivalence runs the entire micro suite (MT1–MT15, MA1–MA12)
// on engines with the plan cache disabled versus enabled, at
// parallelism 1 and 8, executing every query twice on the cached engine
// so the second pass is served from the plan cache. Every execution
// must be byte-identical to the uncached baseline: same columns, same
// rows, same order, same float rendering. The cache sits below result
// construction, so a divergence means a cached plan changed semantics.
func TestCacheEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	ctx := NewQueryContext(ds)
	for _, par := range []int{1, 8} {
		plain := openLoaded(t, ds, engine.WithPlanCache(0), WithParallelism(par))
		cached := openLoaded(t, ds, WithParallelism(par))
		plainConn, cachedConn := connect(t, plain), connect(t, cached)
		for _, q := range MicroSuite() {
			sql := q.SQL(ctx, 0)
			rs, err := plainConn.Query(sql)
			if err != nil {
				t.Fatalf("%s uncached at parallelism %d: %v", q.ID, par, err)
			}
			want := canonRows(rs)
			// Twice: the first pass fills the cache, the second hits it.
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

		// The sweep must actually exercise the cache on the cached engine.
		cc := cached.CacheCounters()
		if cc.PlanHits == 0 {
			t.Errorf("parallelism %d: plan cache saw no hits over the sweep (misses=%d)", par, cc.PlanMisses)
		}
		// And the uncached engine's counters must stay silent.
		pc := plain.CacheCounters()
		if pc.PlanHits+pc.PlanMisses != 0 {
			t.Errorf("parallelism %d: disabled plan cache recorded traffic: %+v", par, pc)
		}
	}
}
