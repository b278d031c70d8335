package storage

import (
	"container/list"
	"fmt"
	"sync"
	"time"
)

// PoolStats reports buffer-pool activity counters.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64
}

// HitRatio returns hits / (hits + misses), or 0 when idle.
func (s PoolStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PageLogger is the write-ahead log interface the pool needs: append a
// page image (returning its LSN) and block until a given LSN is
// durable. Implemented by the wal package; defined here so storage does
// not import it.
type PageLogger interface {
	AppendPage(txn uint64, pageID uint32, buf []byte) (uint64, error)
	WaitDurable(lsn uint64) error
}

// poolShards is the number of independently locked shards. Sharding by
// page id keeps concurrent readers of different pages off each other's
// locks, which dominates multi-client throughput.
const poolShards = 16

// BufferPool caches pages of a PageStore in a fixed number of frames
// with per-shard LRU replacement. Pages are pinned while in use;
// unpinned pages are eviction candidates. Safe for concurrent use.
//
// With a WAL attached (AttachWAL) the pool enforces write-ahead
// ordering: a dirty page reaches the store only after the log record
// that captured it is durable, and a dirty page that no log record has
// captured yet (recLSN == 0) is not flushable at all — commit-time
// logging (LogDirty) is what makes it eligible.
type BufferPool struct {
	store PageStore
	wal   PageLogger // nil when the pool is not durability-managed

	// MissPenalty, when non-zero, adds a simulated I/O delay to every
	// page miss. The cold/warm cache experiment uses it to model the
	// rotational-disk latencies of the paper's testbed; it is zero by
	// default. Set it before issuing queries.
	MissPenalty time.Duration

	shards [poolShards]poolShard
}

type poolShard struct {
	mu     sync.Mutex
	frames int
	table  map[uint32]*frame
	lru    *list.List // of *frame, front = most recently used
	stats  PoolStats
}

type frame struct {
	id    uint32
	buf   []byte
	pins  int
	dirty bool
	// recLSN is the WAL sequence number of the log record capturing the
	// frame's current content; 0 means the content has been dirtied since
	// it was last logged (or a WAL is not attached). Re-dirtying resets
	// it, so eviction can never write an uncaptured image.
	recLSN uint64
	elem   *list.Element
}

// NewBufferPool creates a pool of the given total number of frames
// (minimum 4 per shard) over the store.
func NewBufferPool(store PageStore, frames int) *BufferPool {
	perShard := frames / poolShards
	if perShard < 4 {
		perShard = 4
	}
	bp := &BufferPool{store: store}
	for i := range bp.shards {
		bp.shards[i].frames = perShard
		bp.shards[i].table = make(map[uint32]*frame)
		bp.shards[i].lru = list.New()
	}
	return bp
}

func (bp *BufferPool) shard(id uint32) *poolShard {
	return &bp.shards[id%poolShards]
}

// Store returns the underlying page store.
func (bp *BufferPool) Store() PageStore { return bp.store }

// AttachWAL puts the pool under write-ahead-log discipline. Attach
// before any page is dirtied.
func (bp *BufferPool) AttachWAL(l PageLogger) { bp.wal = l }

// Stats returns a snapshot of the aggregated activity counters.
func (bp *BufferPool) Stats() PoolStats {
	var out PoolStats
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		out.Hits += s.stats.Hits
		out.Misses += s.stats.Misses
		out.Evictions += s.stats.Evictions
		out.Flushes += s.stats.Flushes
		s.mu.Unlock()
	}
	return out
}

// Allocate creates a new page in the store and returns its id.
func (bp *BufferPool) Allocate() (uint32, error) {
	return bp.store.Allocate()
}

// Pin fetches a page into the pool and pins it. The returned buffer
// aliases the frame; callers must Unpin when done and must not retain
// the buffer afterwards.
func (bp *BufferPool) Pin(id uint32) ([]byte, error) {
	s := bp.shard(id)
	s.mu.Lock()
	if f, ok := s.table[id]; ok {
		f.pins++
		s.stats.Hits++
		s.lru.MoveToFront(f.elem)
		s.mu.Unlock()
		return f.buf, nil
	}
	s.stats.Misses++
	f, err := s.allocFrameLocked(bp, id)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	// Read under the lock: the frame is already in the page table, so a
	// concurrent Pin of the same page would otherwise see it before it
	// is filled.
	if err := bp.store.ReadPage(id, f.buf); err != nil {
		delete(s.table, id)
		s.lru.Remove(f.elem)
		s.mu.Unlock()
		return nil, err
	}
	penalty := bp.MissPenalty
	s.mu.Unlock()
	if penalty > 0 {
		time.Sleep(penalty)
	}
	return f.buf, nil
}

// allocFrameLocked finds or evicts a frame for page id and registers it
// pinned. Caller holds s.mu.
func (s *poolShard) allocFrameLocked(bp *BufferPool, id uint32) (*frame, error) {
	var f *frame
	if len(s.table) >= s.frames {
		// Evict the least recently used unpinned frame. Under WAL
		// discipline a dirty frame whose image no log record captures yet
		// (recLSN == 0) is NO-STEAL: skipping it keeps uncommitted bytes
		// out of the page file entirely.
		for e := s.lru.Back(); e != nil; e = e.Prev() {
			cand := e.Value.(*frame)
			if cand.pins != 0 {
				continue
			}
			if cand.dirty {
				if bp.wal != nil {
					if cand.recLSN == 0 {
						continue
					}
					if err := bp.wal.WaitDurable(cand.recLSN); err != nil {
						return nil, err
					}
				}
				if err := bp.store.WritePage(cand.id, cand.buf); err != nil {
					return nil, err
				}
				s.stats.Flushes++
			}
			delete(s.table, cand.id)
			s.lru.Remove(e)
			s.stats.Evictions++
			f = cand
			f.elem = nil
			break
		}
		if f == nil && len(s.table) >= s.frames {
			return nil, fmt.Errorf("storage: buffer pool shard exhausted (%d frames, all pinned or unflushable)", s.frames)
		}
	}
	if f == nil {
		f = &frame{buf: make([]byte, PageSize)}
	}
	f.id = id
	f.pins = 1
	f.dirty = false
	f.recLSN = 0
	f.elem = s.lru.PushFront(f)
	s.table[id] = f
	return f, nil
}

// Unpin releases a pin taken by Pin. Set dirty when the page buffer was
// modified.
func (bp *BufferPool) Unpin(id uint32, dirty bool) {
	s := bp.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.table[id]
	if !ok || f.pins == 0 {
		return
	}
	f.pins--
	if dirty {
		f.dirty = true
		// The last captured image is stale now; the frame must be
		// re-logged before it may reach the store.
		f.recLSN = 0
	}
}

// LogDirty appends a WAL page-image record for every dirty frame whose
// current content is not yet captured (recLSN == 0), stamping the frame
// with the record's LSN. Called at commit time, before the commit record
// is forced; the records only become durable with that force, and
// eviction waits for exactly that (WaitDurable on the stamped LSN).
// Returns the number of page images appended.
func (bp *BufferPool) LogDirty(txn uint64) (int, error) {
	if bp.wal == nil {
		return 0, nil
	}
	logged := 0
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for _, f := range s.table {
			if !f.dirty || f.recLSN != 0 {
				continue
			}
			lsn, err := bp.wal.AppendPage(txn, f.id, f.buf)
			if err != nil {
				s.mu.Unlock()
				return logged, err
			}
			SetPageLSN(f.buf, lsn)
			f.recLSN = lsn
			logged++
		}
		s.mu.Unlock()
	}
	return logged, nil
}

// FlushAll writes every dirty cached page back to the store, honoring
// WAL ordering for captured frames. Under WAL discipline the caller
// must have committed first (LogDirty + a durable commit record):
// uncaptured dirty frames are an error here, not silently written.
func (bp *BufferPool) FlushAll() error {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for _, f := range s.table {
			if !f.dirty {
				continue
			}
			if bp.wal != nil {
				if f.recLSN == 0 {
					id := f.id
					s.mu.Unlock()
					return fmt.Errorf("storage: flush of page %d with no durable log record (commit first)", id)
				}
				if err := bp.wal.WaitDurable(f.recLSN); err != nil {
					s.mu.Unlock()
					return err
				}
			}
			if err := bp.store.WritePage(f.id, f.buf); err != nil {
				s.mu.Unlock()
				return err
			}
			f.dirty = false
			s.stats.Flushes++
		}
		s.mu.Unlock()
	}
	return nil
}

// DropAll flushes dirty pages and empties the cache, simulating a cold
// restart. Fails if any page is pinned.
func (bp *BufferPool) DropAll() error {
	if err := bp.FlushAll(); err != nil {
		return err
	}
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for _, f := range s.table {
			if f.pins > 0 {
				id := f.id
				s.mu.Unlock()
				return fmt.Errorf("storage: cannot drop cache: page %d is pinned", id)
			}
		}
		for id := range s.table {
			delete(s.table, id)
		}
		s.lru.Init()
		s.mu.Unlock()
	}
	return nil
}

// CachedPages returns the number of pages currently in the pool.
func (bp *BufferPool) CachedPages() int {
	n := 0
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		n += len(s.table)
		s.mu.Unlock()
	}
	return n
}

// DirtyPages returns the number of cached pages whose content has not
// reached the store (a gauge, not a counter).
func (bp *BufferPool) DirtyPages() int {
	n := 0
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for _, f := range s.table {
			if f.dirty {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}
