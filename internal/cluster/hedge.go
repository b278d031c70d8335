package cluster

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"jackpine/internal/driver"
)

// This file is the replica-aware request layer under the router: every
// shard-bound read goes through Conn.queryShard, which picks a replica
// by power-of-two-choices on in-flight count and hedges a second
// request on another replica when the first exceeds a per-query-class
// latency threshold. The first reply wins; the loser is canceled via
// context (sessions implementing driver.ContextConn stop early, others
// run to completion and their reply is discarded — the buffered result
// channel means no goroutine ever blocks or leaks). Writes do not
// hedge: Conn.execShard broadcasts to every replica of the shard.

// HedgeOptions tune hedged reads.
type HedgeOptions struct {
	// Disabled turns hedging off (replicas still load-balance).
	Disabled bool
	// After is a fixed hedge threshold; 0 selects the adaptive
	// per-query-class threshold hedgeMultiplier×EWMA clamped to
	// [hedgeMin, hedgeMax].
	After time.Duration
}

// Adaptive hedge threshold: a multiple of the per-class EWMA latency,
// clamped to a range.
const (
	hedgeMultiplier = 3
	hedgeMin        = time.Millisecond
	hedgeMax        = 100 * time.Millisecond
)

// hedgePolicy tracks per-query-class latency and decides hedge
// thresholds.
type hedgePolicy struct {
	opts HedgeOptions

	mu   sync.Mutex
	ewma map[string]time.Duration
}

func newHedgePolicy(opts HedgeOptions) *hedgePolicy {
	return &hedgePolicy{opts: opts, ewma: make(map[string]time.Duration)}
}

// observe folds one completed request's latency into the class EWMA
// (weight 1/4: fast to adapt, stable enough to threshold on).
func (h *hedgePolicy) observe(class string, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	prev, ok := h.ewma[class]
	if !ok {
		h.ewma[class] = d
		return
	}
	h.ewma[class] = prev + (d-prev)/4
}

// threshold is the delay before hedging a request of the class.
func (h *hedgePolicy) threshold(class string) time.Duration {
	if h.opts.After > 0 {
		return h.opts.After
	}
	h.mu.Lock()
	prev, ok := h.ewma[class]
	h.mu.Unlock()
	if !ok {
		return hedgeMin
	}
	t := prev * hedgeMultiplier
	if t < hedgeMin {
		t = hedgeMin
	}
	if t > hedgeMax {
		t = hedgeMax
	}
	return t
}

// shardSess is one connection's sessions to every replica of a shard.
type shardSess struct {
	replicas []driver.Conn
	inflight []int64 // atomic per-replica in-flight request counts
}

func newShardSess(n int) *shardSess {
	return &shardSess{replicas: make([]driver.Conn, n), inflight: make([]int64, n)}
}

func (ss *shardSess) close() error {
	var first error
	for _, c := range ss.replicas {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pick chooses a replica by power-of-two-choices on in-flight count,
// never returning exclude (pass -1 to allow all).
func (ss *shardSess) pick(exclude int) int {
	n := len(ss.replicas)
	if n == 1 {
		return 0
	}
	candidates := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i != exclude {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 1 {
		return candidates[0]
	}
	a := candidates[rand.Intn(len(candidates))]
	b := candidates[rand.Intn(len(candidates))]
	for b == a {
		b = candidates[rand.Intn(len(candidates))]
	}
	if atomic.LoadInt64(&ss.inflight[b]) < atomic.LoadInt64(&ss.inflight[a]) {
		return b
	}
	return a
}

// do runs one query on one replica, maintaining its in-flight count and
// honoring ctx when the session supports it.
func (ss *shardSess) do(ctx context.Context, replica int, query string) (*driver.ResultSet, error) {
	atomic.AddInt64(&ss.inflight[replica], 1)
	defer atomic.AddInt64(&ss.inflight[replica], -1)
	conn := ss.replicas[replica]
	if cc, ok := conn.(driver.ContextConn); ok && ctx != nil {
		return cc.QueryContext(ctx, query)
	}
	return conn.Query(query)
}

// queryShard runs a read on one shard: replica picked by p2c, hedged
// after the class threshold, first reply (or error) wins.
func (cn *Conn) queryShard(ctx context.Context, class string, shard int, query string) (*driver.ResultSet, error) {
	ss := cn.sess[shard]
	pol := cn.c.hedge
	start := time.Now()
	primary := ss.pick(-1)
	if len(ss.replicas) == 1 || pol.opts.Disabled {
		rs, err := ss.do(ctx, primary, query)
		pol.observe(class, time.Since(start))
		return rs, err
	}

	type reply struct {
		rs     *driver.ResultSet
		err    error
		hedged bool
	}
	replies := make(chan reply, 2) // buffered: the loser never blocks
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		rs, err := ss.do(hctx, primary, query)
		replies <- reply{rs, err, false}
	}()
	timer := time.NewTimer(pol.threshold(class))
	defer timer.Stop()
	fired := false
	for {
		select {
		case r := <-replies:
			pol.observe(class, time.Since(start))
			if r.hedged {
				cn.c.countHedge(true)
			}
			return r.rs, r.err
		case <-timer.C:
			if fired {
				continue
			}
			fired = true
			cn.c.countHedge(false)
			secondary := ss.pick(primary)
			go func() {
				rs, err := ss.do(hctx, secondary, query)
				replies <- reply{rs, err, true}
			}()
		}
	}
}

// execShard runs a write on every replica of one shard concurrently so
// replicas stay identical; replica 0's affected count is authoritative
// and the lowest-replica error wins (deterministic).
func (cn *Conn) execShard(shard int, query string) (int, error) {
	ss := cn.sess[shard]
	if len(ss.replicas) == 1 {
		return ss.replicas[0].Exec(query)
	}
	affected := make([]int, len(ss.replicas))
	errs := make([]error, len(ss.replicas))
	var wg sync.WaitGroup
	for r := range ss.replicas {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			affected[r], errs[r] = ss.replicas[r].Exec(query)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return affected[0], nil
}
