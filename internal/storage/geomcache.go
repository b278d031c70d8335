package storage

import (
	"container/list"
	"sync"

	"jackpine/internal/geom"
)

// GeomCacheStats reports decoded-geometry cache activity, mirroring
// PoolStats for the buffer pool below it.
type GeomCacheStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
}

// HitRatio returns hits / (hits + misses), or 0 when idle.
func (s GeomCacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// geomCacheShards fixes the shard count; keys hash across shards so
// parallel scan workers rarely contend on one lock.
const geomCacheShards = 16

// geomEntryOverhead approximates the per-entry bookkeeping cost added
// to each entry's WKB size when charging the byte budget.
const geomEntryOverhead = 96

// geomKey identifies one cached decoded geometry.
type geomKey struct {
	table string
	rid   RecordID
	col   int
}

type geomEntry struct {
	key  geomKey
	g    geom.Geometry
	cost int
}

type geomShard struct {
	mu     sync.Mutex
	budget int
	used   int
	items  map[geomKey]*list.Element
	lru    *list.List // front = most recently used
	stats  GeomCacheStats
}

// GeomCache is a sharded, size-bounded LRU of decoded geometries keyed
// by (table, record id, column). It sits above the buffer pool: the
// pool caches encoded pages, this caches the result of UnmarshalWKB so
// the refinement stage of warm repeated queries skips WKB parsing
// entirely. Cached geometries are shared read-only snapshots — the
// engine never mutates a geometry after storing it.
//
// A nil *GeomCache is valid and disables caching: Get always misses
// (uncounted), Put and the invalidation methods are no-ops.
type GeomCache struct {
	shards [geomCacheShards]geomShard
}

// NewGeomCache creates a cache bounded to roughly budgetBytes of
// decoded-geometry payload (charged by WKB size plus a fixed per-entry
// overhead). budgetBytes <= 0 returns nil, i.e. a disabled cache.
func NewGeomCache(budgetBytes int) *GeomCache {
	if budgetBytes <= 0 {
		return nil
	}
	c := &GeomCache{}
	per := budgetBytes / geomCacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].budget = per
		c.shards[i].items = make(map[geomKey]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// shardFor hashes the key across shards (FNV-1a over the table name
// folded with the record coordinates).
func (c *GeomCache) shardFor(k geomKey) *geomShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.table); i++ {
		h ^= uint64(k.table[i])
		h *= 1099511628211
	}
	h ^= uint64(k.rid.Page)<<16 ^ uint64(k.rid.Slot) ^ uint64(k.col)<<40
	h *= 1099511628211
	return &c.shards[h%geomCacheShards]
}

// Get returns the cached decoded geometry for (table, rid, col).
func (c *GeomCache) Get(table string, rid RecordID, col int) (geom.Geometry, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(geomKey{table, rid, col})
	s.mu.Lock()
	el, ok := s.items[geomKey{table, rid, col}]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.lru.MoveToFront(el)
	s.stats.Hits++
	g := el.Value.(*geomEntry).g
	s.mu.Unlock()
	return g, true
}

// GetBatch looks up the geometries of one column for a whole batch of
// records, filling out[i] with the cached geometry of rids[i] (nil on
// miss) and returning the hit count. Stats accounting is per distinct
// geometry, not per batch slot: a record id repeated within the call
// counts one miss, because the caller decodes it once and reuses the
// result for every slot.
func (c *GeomCache) GetBatch(table string, rids []RecordID, col int, out []geom.Geometry) int {
	if c == nil {
		for i := range out {
			out[i] = nil
		}
		return 0
	}
	hits := 0
	var missed map[RecordID]struct{}
	for i, rid := range rids {
		k := geomKey{table, rid, col}
		s := c.shardFor(k)
		s.mu.Lock()
		if el, ok := s.items[k]; ok {
			s.lru.MoveToFront(el)
			s.stats.Hits++
			out[i] = el.Value.(*geomEntry).g
			s.mu.Unlock()
			hits++
			continue
		}
		out[i] = nil
		if missed == nil {
			missed = make(map[RecordID]struct{}, len(rids)-i) //lint:allow batchalloc lazy once-per-batch dedup map, not per slot
		}
		if _, dup := missed[rid]; dup {
			s.mu.Unlock()
			continue
		}
		missed[rid] = struct{}{}
		s.stats.Misses++
		s.mu.Unlock()
	}
	return hits
}

// Cacheable reports whether an entry of the given WKB size fits a
// shard's budget (Put silently refuses larger entries). Batch scans use
// it to route filter-only decodes of uncacheable geometries through the
// per-worker arena instead.
func (c *GeomCache) Cacheable(wkbLen int) bool {
	if c == nil {
		return false
	}
	return wkbLen+geomEntryOverhead <= c.shards[0].budget
}

// Put stores a decoded geometry, charging wkbLen bytes (plus overhead)
// against the byte budget and evicting least-recently-used entries to
// make room. Entries larger than a whole shard's budget are not cached.
func (c *GeomCache) Put(table string, rid RecordID, col int, g geom.Geometry, wkbLen int) {
	if c == nil || g == nil {
		return
	}
	k := geomKey{table, rid, col}
	cost := wkbLen + geomEntryOverhead
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cost > s.budget {
		return
	}
	if el, ok := s.items[k]; ok {
		e := el.Value.(*geomEntry)
		s.used += cost - e.cost
		e.g, e.cost = g, cost
		s.lru.MoveToFront(el)
	} else {
		s.items[k] = s.lru.PushFront(&geomEntry{key: k, g: g, cost: cost})
		s.used += cost
	}
	for s.used > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		s.removeLocked(back)
		s.stats.Evictions++
	}
}

// removeLocked drops one entry from the shard's LRU and map.
func (s *geomShard) removeLocked(el *list.Element) {
	e := el.Value.(*geomEntry)
	s.lru.Remove(el)
	delete(s.items, e.key)
	s.used -= e.cost
}

// Invalidate drops the entry for one (table, rid, col), if present.
// Tables call it on insert and delete so a record id can never serve a
// stale geometry, even if the storage layer ever reuses slots.
func (c *GeomCache) Invalidate(table string, rid RecordID, col int) {
	if c == nil {
		return
	}
	k := geomKey{table, rid, col}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		s.removeLocked(el)
		s.stats.Invalidations++
	}
}

// InvalidateTable drops every entry of the named table (vacuum rewrites
// record ids; drop-and-recreate reuses them).
func (c *GeomCache) InvalidateTable(table string) {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var next *list.Element
		for el := s.lru.Front(); el != nil; el = next {
			next = el.Next()
			if el.Value.(*geomEntry).key.table == table {
				s.removeLocked(el)
				s.stats.Invalidations++
			}
		}
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the aggregated activity counters.
func (c *GeomCache) Stats() GeomCacheStats {
	var out GeomCacheStats
	if c == nil {
		return out
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.stats.Hits
		out.Misses += s.stats.Misses
		out.Evictions += s.stats.Evictions
		out.Invalidations += s.stats.Invalidations
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of cached geometries.
func (c *GeomCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// SizeBytes returns the charged byte usage across shards.
func (c *GeomCache) SizeBytes() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}
