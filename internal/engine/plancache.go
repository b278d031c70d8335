package engine

import (
	"container/list"
	"sync"

	"jackpine/internal/sql"
)

// PlanCacheStats reports prepared-statement cache activity.
type PlanCacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Evictions     uint64
}

// HitRatio returns hits / (hits + misses), or 0 when idle.
func (s PlanCacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// planEntry is one cached parse: the pristine (never-bound) statement
// template and the DDL epoch it was parsed under.
type planEntry struct {
	query string
	tmpl  sql.Statement
	epoch uint64
}

// planCache memoizes parsed SELECT/EXPLAIN statements keyed by SQL
// text, with LRU eviction and DDL-epoch invalidation: any CREATE/DROP
// TABLE or index change bumps the engine's epoch, and entries from an
// older epoch are treated as misses (binding against the new schema
// re-parses from scratch). Cached templates are never handed out
// directly — lookups return a deep clone, because execution mutates the
// tree (ColumnRef binding) and concurrent readers share the cache.
//
// A nil *planCache is valid and disables caching.
type planCache struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	lru   *list.List // front = most recently used
	stats PlanCacheStats
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return nil
	}
	return &planCache{cap: capacity, items: make(map[string]*list.Element), lru: list.New()}
}

// get returns a clone of the cached statement for query, provided it
// was cached under the current epoch. Stale-epoch entries are dropped
// and counted as invalidations (and misses).
func (c *planCache) get(query string, epoch uint64) (sql.Statement, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[query]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	e := el.Value.(*planEntry)
	if e.epoch != epoch {
		c.lru.Remove(el)
		delete(c.items, query)
		c.stats.Invalidations++
		c.stats.Misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	return sql.CloneStatement(e.tmpl), true
}

// put stores a statement template under the given epoch. The caller
// must pass a pristine (unbound) tree; put does not clone.
func (c *planCache) put(query string, tmpl sql.Statement, epoch uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[query]; ok {
		e := el.Value.(*planEntry)
		e.tmpl, e.epoch = tmpl, epoch
		c.lru.MoveToFront(el)
		return
	}
	c.items[query] = c.lru.PushFront(&planEntry{query: query, tmpl: tmpl, epoch: epoch})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.items, back.Value.(*planEntry).query)
		c.stats.Evictions++
	}
}

// snapshot returns the activity counters.
func (c *planCache) snapshot() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// len reports the number of cached statements.
func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stmt is a prepared statement: the parse is done once and reused
// across executions. Each Exec deep-clones the template, so a Stmt is
// safe for concurrent use. When the engine's DDL epoch moves (schema
// change), the next Exec transparently re-parses.
type Stmt struct {
	e     *Engine
	query string

	mu    sync.Mutex
	tmpl  sql.Statement
	epoch uint64
}

// Prepare parses the statement once for repeated execution.
func (e *Engine) Prepare(query string) (*Stmt, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return &Stmt{e: e, query: query, tmpl: stmt, epoch: e.ddlEpoch.Load()}, nil
}

// SQL returns the statement's source text.
func (s *Stmt) SQL() string { return s.query }

// Exec runs the prepared statement.
func (s *Stmt) Exec() (*sql.Result, error) {
	epoch := s.e.ddlEpoch.Load()
	s.mu.Lock()
	if s.epoch != epoch {
		stmt, err := sql.Parse(s.query)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		s.tmpl, s.epoch = stmt, epoch
	}
	stmt := sql.CloneStatement(s.tmpl)
	s.mu.Unlock()
	return s.e.execStatement(stmt)
}
