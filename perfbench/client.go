package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jackpine/internal/core"
	"jackpine/internal/driver"
	"jackpine/internal/sql"
)

// opFunc runs one op: one macro-scenario iteration or one micro query.
type opFunc func(qc *core.QueryContext, conn driver.Conn, iter int) error

func opTable() map[string]opFunc {
	ops := make(map[string]opFunc)
	for _, sc := range core.MacroSuite() {
		run := sc.Run
		ops[sc.ID] = func(qc *core.QueryContext, conn driver.Conn, iter int) error {
			_, err := run(qc, conn, iter)
			return err
		}
	}
	for _, q := range core.TopologicalSuite() {
		gen := q.SQL
		ops[q.ID] = func(qc *core.QueryContext, conn driver.Conn, iter int) error {
			_, err := conn.Query(gen(qc, iter))
			return err
		}
	}
	return ops
}

// stmtRec is one statement a client issued. Its text is not kept: the
// output check regenerates it from the op's sequence number.
type stmtRec struct {
	lat  time.Duration
	hash uint64 // digest of the returned rows (or affected count)
	err  error
}

// opRec is one op a client ran.
type opRec struct {
	seq         int
	done        time.Time
	dur         time.Duration
	err         error
	measured    bool // inside a measured segment (not warm-up)
	traced      bool
	mismatch    bool // set by the output check
	first, last int  // its statements: client.stmts[first:last]
}

func (o *opRec) failed() bool { return o.err != nil || o.mismatch }

// client is one closed-loop session. It is also the driver.Conn the
// scenarios run on: every statement passes through do, which times it,
// records its rows' digest and, in traced segments, opens the spans.
type client struct {
	r     *runner
	id    int
	conn  driver.Conn
	next  int // ops this client has started
	stmts []stmtRec
	ops   []opRec

	opSpan int64
	nstmt  int
	// Traced browse statements: wire round trip minus the in-process
	// execution of the same text.
	wireOverhead []time.Duration
}

func (c *client) Exec(q string) (int, error) {
	var n int
	err := c.do(q, func() error {
		var err error
		n, err = c.conn.Exec(q)
		return err
	}, func() uint64 { return hashAffected(n) })
	return n, err
}

func (c *client) Query(q string) (*driver.ResultSet, error) {
	var rs *driver.ResultSet
	err := c.do(q, func() error {
		var err error
		rs, err = c.conn.Query(q)
		return err
	}, func() uint64 { return hashResult(rs, c.r.hashMode, q) })
	return rs, err
}

func (c *client) Close() error { return nil }

func (c *client) do(q string, call func() error, digest func() uint64) error {
	r := c.r
	tr := r.sys.tr
	traced := tr.on.Load()
	var side time.Duration
	sideFirst := false
	if traced {
		r.sideParse(c.opSpan, q)
		if r.sys.side != nil {
			sideFirst = c.nstmt%2 == 1
			if sideFirst {
				side = r.sideExec(c.opSpan, q)
			}
		}
	}
	c.nstmt++
	st := tr.begin("stmt", c.opSpan)
	inner := tr.begin(r.sys.route, st.spanID())
	tr.curStmt.Store(inner.spanID())
	if r.sys.route == "engine.exec" {
		r.sys.slots[0].cur.Store(inner.spanID())
	}
	t0 := time.Now()
	err := call()
	lat := time.Since(t0)
	rtt := inner.end()
	st.end()
	if traced && r.sys.side != nil {
		if !sideFirst {
			side = r.sideExec(c.opSpan, q)
		}
		c.wireOverhead = append(c.wireOverhead, rtt-side)
	}
	rec := stmtRec{lat: lat, err: err}
	if err == nil {
		rec.hash = digest()
		r.okStmts.Add(1)
	}
	c.stmts = append(c.stmts, rec)
	return err
}

// runOp runs the client's next op in the round-robin sequence. With
// several clients, client i takes sequence numbers i, i+n, i+2n, … so
// the statements issued are a function of the seed alone.
func (c *client) runOp(measured bool) {
	r := c.r
	mix := r.sys.spec.mix
	seq := c.next*len(r.clients) + c.id
	c.next++
	id, iter := mix[seq%len(mix)], seq/len(mix)

	tr := r.sys.tr
	traced := tr.on.Load()
	tr.curOp.Add(1)
	sp := tr.begin("op", 0)
	c.opSpan = sp.spanID()
	first := len(c.stmts)
	t0 := time.Now()
	err := c.call(r.ops[id], iter)
	dur := time.Since(t0)
	sp.end()
	c.ops = append(c.ops, opRec{seq: seq, done: t0.Add(dur), dur: dur, err: err, measured: measured, traced: traced, first: first, last: len(c.stmts)})
}

// call runs one op and reports a panic on this goroutine as the op's
// error: a pool race (landuse with --clients 2) can hand a statement a
// half-read page, and the run counts that op as failed instead of
// ending.
func (c *client) call(op opFunc, iter int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return op(c.r.qc, c, iter)
}

// segment is one stretch of closed-loop running, traced or not.
type segment struct {
	traced, measured bool
	wall             time.Duration
	ops, stmts       int
	counters         counters // differenced over the segment
	allocBytes       uint64
	gcPause          time.Duration
}

// runner drives the clients of one benchmark run.
type runner struct {
	sys      *system
	qc       *core.QueryContext
	ops      map[string]opFunc
	clients  []*client
	hashMode hashMode
	segments []segment
	okStmts  atomic.Int64 // statements that returned without error
}

func newRunner(sys *system) (*runner, error) {
	r := &runner{sys: sys, qc: core.NewQueryContext(sys.ds), ops: opTable()}
	switch sys.spec.transport {
	case "durable":
		r.hashMode = hashWithoutLanduse
	case "cluster":
		r.hashMode = hashUnordered
	}
	for i := 0; i < sys.spec.clients; i++ {
		conn, err := sys.connector.Connect()
		if err != nil {
			r.close()
			return nil, fmt.Errorf("connect client %d: %w", i, err)
		}
		r.clients = append(r.clients, &client{r: r, id: i, conn: conn})
	}
	return r, nil
}

func (r *runner) close() {
	for _, c := range r.clients {
		c.conn.Close()
	}
}

// run runs every client until d has passed and each has started at
// least minOps ops. If fewer than minStmts statements have succeeded by
// then, it goes on until they have, for at most 4d.
func (r *runner) run(d time.Duration, minOps, minStmts int, traced, measured bool) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := r.sys.snap()
	r.sys.tr.on.Store(traced)
	t0 := time.Now()
	deadline, limit := t0.Add(d), t0.Add(4*d)
	okBefore := r.okStmts.Load()
	more := func() bool {
		now := time.Now()
		return now.Before(deadline) || (r.okStmts.Load()-okBefore < int64(minStmts) && now.Before(limit))
	}
	opsBefore, stmtsBefore := r.opCount(), r.stmtCount()
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for n := 0; n < minOps || more(); n++ {
				c.runOp(measured)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	r.sys.tr.on.Store(false)
	runtime.ReadMemStats(&ms1)
	r.segments = append(r.segments, segment{
		traced: traced, measured: measured, wall: wall,
		ops:        r.opCount() - opsBefore,
		stmts:      r.stmtCount() - stmtsBefore,
		counters:   r.sys.snap().sub(c0),
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		gcPause:    time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
	})
}

func (r *runner) opCount() int {
	n := 0
	for _, c := range r.clients {
		n += len(c.ops)
	}
	return n
}

func (r *runner) stmtCount() int {
	n := 0
	for _, c := range r.clients {
		n += len(c.stmts)
	}
	return n
}

// sideParse times sql.Parse of a statement text, outside the
// statement's own span.
func (r *runner) sideParse(parent int64, q string) {
	sp := r.sys.tr.begin("sql.parse", parent)
	_, _ = sql.Parse(q) // a parse error shows up in the statement itself
	sp.end()
}

// sideExec runs a statement text in-process on the engine behind the
// wire server and returns how long Engine.Exec took.
func (r *runner) sideExec(parent int64, q string) time.Duration {
	sp := r.sys.tr.begin("engine.exec", parent)
	r.sys.slots[0].cur.Store(sp.spanID())
	if res, err := r.sys.side.Exec(q); err == nil {
		_ = driver.FromSQLResult(res)
	}
	return sp.end()
}
