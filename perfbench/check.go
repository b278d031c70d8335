package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/geom"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
	"jackpine/internal/tiger"
)

// hashMode selects what of a result the output check compares.
type hashMode int

const (
	// hashAll: column names and every row, in order.
	hashAll hashMode = iota
	// hashUnordered: as hashAll, but rows as a multiset unless the
	// statement has an ORDER BY. A cluster promises the single engine's
	// rows, not their order (the repository's own cluster equivalence
	// tests compare the same way).
	hashUnordered
	// hashWithoutLanduse: the rows as a multiset, without the landuse
	// column. The UPDATEs change that column during the run, and the
	// reference does not apply them (checkRestart checks what they
	// left); an UPDATE may also move a row within its heap. Row ids and
	// every other value are fixed.
	hashWithoutLanduse
)

func hashAffected(n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	h.Write(b[:])
	return h.Sum64()
}

func hashResult(rs *driver.ResultSet, mode hashMode, q string) uint64 {
	skip := -1
	if mode == hashWithoutLanduse {
		for i, c := range rs.Columns {
			if c == "landuse" || strings.HasSuffix(c, ".landuse") {
				skip = i
			}
		}
	}
	rows := make([]uint64, len(rs.Rows))
	for i, row := range rs.Rows {
		h := fnv.New64a()
		for j, v := range row {
			if j != skip {
				writeValue(h, v)
			}
		}
		rows[i] = h.Sum64()
	}
	if mode == hashWithoutLanduse || (mode == hashUnordered && !strings.Contains(strings.ToUpper(q), "ORDER BY")) {
		sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	}
	h := fnv.New64a()
	for i, c := range rs.Columns {
		if i != skip {
			h.Write([]byte(c))
			h.Write([]byte{0})
		}
	}
	var b [8]byte
	for _, r := range rows {
		binary.LittleEndian.PutUint64(b[:], r)
		h.Write(b[:])
	}
	return h.Sum64()
}

func writeValue(h io.Writer, v storage.Value) {
	var b [9]byte
	b[0] = byte(v.Type)
	switch v.Type {
	case storage.TypeInt, storage.TypeBool:
		binary.LittleEndian.PutUint64(b[1:], uint64(v.Int))
		h.Write(b[:])
	case storage.TypeFloat:
		binary.LittleEndian.PutUint64(b[1:], math.Float64bits(v.Float))
		h.Write(b[:])
	case storage.TypeText:
		binary.LittleEndian.PutUint64(b[1:], uint64(len(v.Text)))
		h.Write(b[:])
		h.Write([]byte(v.Text))
	case storage.TypeGeom:
		wkb := geom.MarshalWKB(v.Geom)
		binary.LittleEndian.PutUint64(b[1:], uint64(len(wkb)))
		h.Write(b[:])
		h.Write(wkb)
	default:
		h.Write(b[:1])
	}
}

// referenceEngine opens the plain serial path of the gaiadb profile:
// one worker, row-at-a-time, index-nested-loop joins, no geometry or
// plan cache, no prepared topology.
func referenceEngine(ds *tiger.Dataset) (*engine.Engine, error) {
	eng := engine.Open(engine.GaiaDB(),
		engine.WithParallelism(1),
		engine.WithBatchExec(false),
		engine.WithJoinStrategy(sql.JoinINL),
		engine.WithGeomCache(0),
		engine.WithPlanCache(0),
		engine.WithTopoPrep(false),
	)
	x := &timingExecer{exec: func(q string) error { _, err := eng.Exec(q); return err }}
	if err := tiger.Load(x, ds, true); err != nil {
		return nil, err
	}
	return eng, nil
}

// refConn is a driver.Conn over the reference engine. It records, for
// the op being replayed, every statement's text and result digest. A
// text seen before is answered from memory: the workloads it is used
// for either never write, or write only the column the landuse hash
// mode leaves out, so a text's reference result does not depend on
// when it ran. An UPDATE is not applied: its reference is the number of
// rows it would change.
type refConn struct {
	eng   *engine.Engine
	mode  hashMode
	memo  *refMemo
	texts []string
	execs []bool
	hashs []uint64
}

// refMemo holds reference answers by text, shared by the replay workers.
// Small results keep their rows, so that scenarios reading a returned
// row see it; a repeated text with a large result is executed again.
type refMemo struct {
	mu   sync.Mutex
	byQ  map[string]refEntry
	byEx map[string]uint64
}

type refEntry struct {
	hash uint64
	rs   *driver.ResultSet
	err  error
}

const landuseUpdate = "UPDATE parcels SET landuse = 'public' WHERE "

func (c *refConn) record(q string, exec bool, h uint64) {
	c.texts = append(c.texts, q)
	c.execs = append(c.execs, exec)
	c.hashs = append(c.hashs, h)
}

func (c *refConn) Exec(q string) (int, error) {
	c.memo.mu.Lock()
	h, ok := c.memo.byEx[q]
	c.memo.mu.Unlock()
	if !ok {
		if strings.HasPrefix(q, landuseUpdate) {
			res, err := c.eng.Exec("SELECT COUNT(*) FROM parcels WHERE " + strings.TrimPrefix(q, landuseUpdate))
			if err == nil && len(res.Rows) == 1 {
				h = hashAffected(int(res.Rows[0][0].Int))
			}
		} else if res, err := c.eng.Exec(q); err == nil {
			h = hashAffected(res.Affected)
		}
		c.memo.mu.Lock()
		c.memo.byEx[q] = h
		c.memo.mu.Unlock()
	}
	c.record(q, true, h)
	return 1, nil
}

func (c *refConn) Query(q string) (*driver.ResultSet, error) {
	c.memo.mu.Lock()
	e, ok := c.memo.byQ[q]
	c.memo.mu.Unlock()
	if !ok || (e.rs == nil && e.err == nil) {
		res, err := c.eng.Exec(q)
		e = refEntry{err: err}
		if err == nil {
			e.rs = driver.FromSQLResult(res)
			e.hash = hashResult(e.rs, c.mode, q)
		}
		keep := e
		if keep.rs != nil && len(keep.rs.Rows) > 8 {
			keep.rs = nil
		}
		c.memo.mu.Lock()
		c.memo.byQ[q] = keep
		c.memo.mu.Unlock()
	}
	c.record(q, false, e.hash)
	return e.rs, e.err
}

func (c *refConn) Close() error { return nil }

// checkResult is the outcome of the output check.
type checkResult struct {
	statements, mismatches int
	digest, refDigest      uint64 // every statement's digest, folded in order
	firstMismatch          string
	updates                map[int64]bool // landuse: parcel id sent an UPDATE → acknowledged
}

// checkOutputs replays every op the clients ran, by sequence number, on
// the reference engine, and marks each op with a statement whose result
// differs from the reference (or that errored, or that is missing).
func checkOutputs(r *runner, ref *engine.Engine) checkResult {
	type job struct {
		c  *client
		op *opRec
	}
	var jobs []job
	for _, c := range r.clients {
		for i := range c.ops {
			jobs = append(jobs, job{c, &c.ops[i]})
		}
	}
	refs := make([]*refConn, len(jobs))
	memo := &refMemo{byQ: make(map[string]refEntry), byEx: make(map[string]uint64)}
	// Replay on two goroutines; the reference engine itself stays serial.
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += workers {
				rc := &refConn{eng: ref, mode: r.hashMode, memo: memo}
				mix := r.sys.spec.mix
				seq := jobs[i].op.seq
				_ = r.ops[mix[seq%len(mix)]](r.qc, rc, seq/len(mix))
				refs[i] = rc
			}
		}(w)
	}
	wg.Wait()

	res := checkResult{updates: make(map[int64]bool)}
	dig, refDig := fnv.New64a(), fnv.New64a()
	var b [8]byte
	fold := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i, j := range jobs {
		got, want := j.c.stmts[j.op.first:j.op.last], refs[i]
		res.statements += len(got)
		for k, text := range want.texts {
			if want.execs[k] && strings.HasPrefix(text, landuseUpdate+"id = ") {
				var id int64
				// An op that ended before its UPDATE never sent it.
				if _, err := fmt.Sscanf(strings.TrimPrefix(text, landuseUpdate+"id = "), "%d", &id); err == nil && k < len(got) {
					res.updates[id] = res.updates[id] || got[k].err == nil
				}
			}
			fold(refDig, want.hashs[k])
			bad := k >= len(got) || got[k].err != nil || got[k].hash != want.hashs[k]
			if k < len(got) {
				fold(dig, got[k].hash)
			}
			if bad {
				j.op.mismatch = true
				res.mismatches++
				if res.firstMismatch == "" {
					res.firstMismatch = text
					if k < len(got) && got[k].err != nil {
						res.firstMismatch += ": " + got[k].err.Error()
					}
				}
			}
		}
		if len(got) > len(want.texts) {
			j.op.mismatch = true
			res.mismatches += len(got) - len(want.texts)
		}
	}
	res.digest, res.refDigest = dig.Sum64(), refDig.Sum64()
	return res
}

// checkRestart closes the durable engine, reopens its directory and
// compares every parcel's landuse with what the UPDATEs imply:
// 'public' where an UPDATE of that parcel was acknowledged, the loaded
// value where none was sent. A parcel whose UPDATEs all failed may hold
// either.
func checkRestart(r *runner, updates map[int64]bool) error {
	sys := r.sys
	if err := sys.close(); err != nil {
		return fmt.Errorf("restart check: close: %w", err)
	}
	eng, err := engine.OpenDurable(engine.GaiaDB(), sys.dir, engine.WithPoolPages(sys.spec.poolPages))
	if err != nil {
		return fmt.Errorf("restart check: reopen: %w", err)
	}
	defer eng.Close()
	res, err := eng.Exec("SELECT id, landuse FROM parcels ORDER BY id")
	if err != nil {
		return fmt.Errorf("restart check: %w", err)
	}
	loaded := make(map[int64]string, len(sys.ds.Parcels))
	for _, p := range sys.ds.Parcels {
		loaded[p.ID] = p.Category
	}
	if len(res.Rows) != len(loaded) {
		return fmt.Errorf("restart check: %d parcels after reopen, %d loaded", len(res.Rows), len(loaded))
	}
	prev := int64(math.MinInt64)
	for _, row := range res.Rows {
		id, got := row[0].Int, row[1].Text
		want, ok := loaded[id]
		acked, tried := updates[id]
		switch {
		case id <= prev:
			return fmt.Errorf("restart check: ids out of order at %d", id)
		case !ok:
			return fmt.Errorf("restart check: unknown parcel %d", id)
		case acked && got != "public":
			return fmt.Errorf("restart check: parcel %d: acknowledged UPDATE lost (landuse %q)", id, got)
		case !tried && got != want:
			return fmt.Errorf("restart check: parcel %d: landuse %q, loaded %q", id, got, want)
		case tried && got != want && got != "public":
			return fmt.Errorf("restart check: parcel %d: landuse %q", id, got)
		}
		prev = id
	}
	return nil
}
