package storage

import (
	"fmt"
	"testing"

	"jackpine/internal/geom"
)

func TestGeomCacheHitMissInvalidate(t *testing.T) {
	c := NewGeomCache(1 << 20)
	rid := RecordID{Page: 3, Slot: 1}
	g := geom.Point{Coord: geom.Coord{X: 1, Y: 2}}

	if _, ok := c.Get("t", rid, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("t", rid, 0, g, 21)
	got, ok := c.Get("t", rid, 0)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.(geom.Point).Coord != g.Coord {
		t.Fatalf("got %v, want %v", got, g)
	}
	if _, ok := c.Get("other", rid, 0); ok {
		t.Fatal("hit across tables")
	}
	if _, ok := c.Get("t", rid, 1); ok {
		t.Fatal("hit across columns")
	}

	c.Invalidate("t", rid, 0)
	if _, ok := c.Get("t", rid, 0); ok {
		t.Fatal("hit after Invalidate")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Invalidations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRatio(); got != 0.2 {
		t.Fatalf("HitRatio = %v", got)
	}
}

func TestGeomCacheEvictsUnderBudget(t *testing.T) {
	// One shard's budget is total/16; entries cost wkbLen + overhead.
	c := NewGeomCache(16 * 4 * (100 + geomEntryOverhead))
	g := geom.Point{Coord: geom.Coord{X: 0, Y: 0}}
	for i := 0; i < 4096; i++ {
		c.Put("t", RecordID{Page: uint32(i)}, 0, g, 100)
	}
	if c.Len() > 16*4 {
		t.Fatalf("cache holds %d entries, budget allows at most %d", c.Len(), 16*4)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
	if used, max := c.SizeBytes(), 16*4*(100+geomEntryOverhead); used > max {
		t.Fatalf("SizeBytes %d exceeds budget %d", used, max)
	}
}

func TestGeomCacheRejectsOversizeEntry(t *testing.T) {
	c := NewGeomCache(16 * 64) // 64 bytes per shard
	c.Put("t", RecordID{}, 0, geom.Point{}, 1<<20)
	if c.Len() != 0 {
		t.Fatal("oversize entry cached")
	}
}

func TestGeomCacheInvalidateTable(t *testing.T) {
	c := NewGeomCache(1 << 20)
	for i := 0; i < 64; i++ {
		c.Put("keep", RecordID{Page: uint32(i)}, 0, geom.Point{}, 10)
		c.Put("drop", RecordID{Page: uint32(i)}, 0, geom.Point{}, 10)
	}
	c.InvalidateTable("drop")
	if c.Len() != 64 {
		t.Fatalf("Len = %d, want 64", c.Len())
	}
	for i := 0; i < 64; i++ {
		if _, ok := c.Get("drop", RecordID{Page: uint32(i)}, 0); ok {
			t.Fatalf("dropped table entry %d survived", i)
		}
		if _, ok := c.Get("keep", RecordID{Page: uint32(i)}, 0); !ok {
			t.Fatalf("kept table entry %d lost", i)
		}
	}
}

func TestGeomCacheNilIsDisabled(t *testing.T) {
	var c *GeomCache
	if c := NewGeomCache(0); c != nil {
		t.Fatal("zero-budget cache not nil")
	}
	c.Put("t", RecordID{}, 0, geom.Point{}, 10)
	if _, ok := c.Get("t", RecordID{}, 0); ok {
		t.Fatal("nil cache hit")
	}
	c.Invalidate("t", RecordID{}, 0)
	c.InvalidateTable("t")
	if st := c.Stats(); st != (GeomCacheStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if c.Len() != 0 || c.SizeBytes() != 0 {
		t.Fatal("nil cache reports contents")
	}
}

func TestGeomCacheConcurrent(t *testing.T) {
	c := NewGeomCache(1 << 18)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 2000; i++ {
				rid := RecordID{Page: uint32(i % 97), Slot: uint16(w)}
				if i%3 == 0 {
					c.Put("t", rid, 0, geom.Point{Coord: geom.Coord{X: float64(i), Y: 0}}, 50)
				} else if i%17 == 0 {
					c.Invalidate("t", rid, 0)
				} else if _, ok := c.Get("t", rid, 0); ok && err == nil {
					// hits are fine; just exercise the path
				}
			}
			done <- err
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal(fmt.Sprintf("no traffic recorded: %+v", st))
	}
}

// TestGeomCacheGetBatchDistinctMisses is the regression test for batched
// miss accounting: a multi-slot fetch that repeats a record id must
// count one miss per distinct missing geometry, not one per batch slot
// (the caller decodes a repeated record once and reuses the result).
// Hits stay per-slot, since every slot is served from the cache.
func TestGeomCacheGetBatchDistinctMisses(t *testing.T) {
	c := NewGeomCache(1 << 20)
	g := geom.Point{Coord: geom.Coord{X: 1, Y: 2}}
	cached := RecordID{Page: 1, Slot: 0}
	missA := RecordID{Page: 2, Slot: 0}
	missB := RecordID{Page: 3, Slot: 0}
	c.Put("t", cached, 0, g, 21)

	rids := []RecordID{cached, missA, missA, cached, missB, missA}
	out := make([]geom.Geometry, len(rids))
	hits := c.GetBatch("t", rids, 0, out)
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	for i, rid := range rids {
		if rid == cached && out[i] == nil {
			t.Fatalf("slot %d: cached record not filled", i)
		}
		if rid != cached && out[i] != nil {
			t.Fatalf("slot %d: missing record filled with %v", i, out[i])
		}
	}
	st := c.Stats()
	if st.Hits != 2 {
		t.Fatalf("Hits = %d, want 2 (one per cached slot)", st.Hits)
	}
	if st.Misses != 2 {
		t.Fatalf("Misses = %d, want 2 (distinct missing records, not %d slots)",
			st.Misses, len(rids)-2)
	}

	// A later batch is a fresh accounting scope: the same missing record
	// counts again (the caller re-decodes it).
	c.GetBatch("t", []RecordID{missA}, 0, out[:1])
	if st := c.Stats(); st.Misses != 3 {
		t.Fatalf("Misses after second batch = %d, want 3", st.Misses)
	}

	// Nil cache: zero fill, zero counting.
	var nilCache *GeomCache
	out[0] = g
	if hits := nilCache.GetBatch("t", rids[:1], 0, out[:1]); hits != 0 || out[0] != nil {
		t.Fatalf("nil cache GetBatch: hits=%d out=%v", hits, out[0])
	}
}
