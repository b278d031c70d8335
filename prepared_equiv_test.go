package jackpine

import (
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/wire"
)

// recordingConn wraps a connection and appends every query it sees,
// with the canonical rendering of the result, to a log. Macro scenarios
// chain queries on earlier results, so comparing the logs of two
// engines proves every intermediate result matched, not just the final
// row counts.
type recordingConn struct {
	conn driver.Conn
	log  *strings.Builder
}

func (r recordingConn) Exec(q string) (int, error) {
	n, err := r.conn.Exec(q)
	fmt.Fprintf(r.log, "EXEC %s -> %d\n", q, n)
	return n, err
}

func (r recordingConn) Query(q string) (*ResultSet, error) {
	rs, err := r.conn.Query(q)
	if err != nil {
		return rs, err
	}
	fmt.Fprintf(r.log, "QUERY %s\n%s", q, canonRows(rs))
	return rs, nil
}

func (r recordingConn) Close() error { return nil }

// TestTopoPrepEquivalence runs the entire micro suite (MT1–MT15,
// MA1–MA12) and all six macro scenarios on engines with the prepared
// topology kernel disabled versus enabled, over both the in-process
// and the wire transport, and requires byte-identical results from
// every query: same rows, same order, same float rendering. The
// prepared path swaps only the kernel entry point, so any divergence
// means a prepared evaluation changed semantics.
func TestTopoPrepEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	ctx := NewQueryContext(ds)
	type pair struct{ off, on *Engine }
	engines := map[int]pair{}

	// Micro suite, in-process, serial and parallel.
	for _, par := range []int{1, 8} {
		p := pair{
			off: openLoaded(t, ds, engine.WithTopoPrep(false), WithParallelism(par)),
			on:  openLoaded(t, ds, WithParallelism(par)),
		}
		engines[par] = p
		offConn, onConn := connect(t, p.off), connect(t, p.on)
		for _, q := range MicroSuite() {
			sql := q.SQL(ctx, 0)
			rs, err := offConn.Query(sql)
			if err != nil {
				t.Fatalf("%s unprepared at parallelism %d: %v", q.ID, par, err)
			}
			want := canonRows(rs)
			rs, err = onConn.Query(sql)
			if err != nil {
				t.Fatalf("%s prepared at parallelism %d: %v", q.ID, par, err)
			}
			if got := canonRows(rs); got != want {
				t.Errorf("%s: prepared at parallelism %d diverges\nunprepared:\n%s\nprepared:\n%s",
					q.ID, par, want, got)
			}
		}
	}
	off, on := engines[1].off, engines[1].on
	offConn, onConn := connect(t, off), connect(t, on)

	// Micro suite over the wire transport.
	offSrv, onSrv := wire.NewServer(off), wire.NewServer(on)
	offAddr, err := offSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer offSrv.Close()
	onAddr, err := onSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer onSrv.Close()
	offWire, err := ConnectRemote(offAddr, "off").Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer offWire.Close()
	onWire, err := ConnectRemote(onAddr, "on").Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer onWire.Close()
	for _, q := range MicroSuite() {
		sql := q.SQL(ctx, 0)
		rs, err := offWire.Query(sql)
		if err != nil {
			t.Fatalf("%s unprepared over wire: %v", q.ID, err)
		}
		want := canonRows(rs)
		rs, err = onWire.Query(sql)
		if err != nil {
			t.Fatalf("%s prepared over wire: %v", q.ID, err)
		}
		if got := canonRows(rs); got != want {
			t.Errorf("%s: prepared over wire diverges\nunprepared:\n%s\nprepared:\n%s",
				q.ID, want, got)
		}
	}

	// All six macro scenarios, every chained query compared, over both
	// transports. MS5 mutates parcels; driving both engines through the
	// same operations keeps their states in lockstep.
	for _, sc := range MacroSuite() {
		for name, conns := range map[string][2]Conn{
			"inproc": {offConn, onConn},
			"wire":   {offWire, onWire},
		} {
			var offLog, onLog strings.Builder
			for iter := 0; iter < 2; iter++ {
				if _, err := sc.Run(ctx, recordingConn{conns[0], &offLog}, iter); err != nil {
					t.Fatalf("%s unprepared (%s) iter %d: %v", sc.ID, name, iter, err)
				}
				if _, err := sc.Run(ctx, recordingConn{conns[1], &onLog}, iter); err != nil {
					t.Fatalf("%s prepared (%s) iter %d: %v", sc.ID, name, iter, err)
				}
			}
			if offLog.String() != onLog.String() {
				t.Errorf("%s (%s): prepared run diverges\nunprepared:\n%s\nprepared:\n%s",
					sc.ID, name, offLog.String(), onLog.String())
			}
		}
	}

	// The sweep must have exercised the prepared path on every enabled
	// engine and never on a disabled one.
	for par, p := range engines {
		if cc := p.on.CacheCounters(); cc.PrepHits == 0 {
			t.Errorf("prepared engine at parallelism %d saw no prepared evaluations (misses=%d)", par, cc.PrepMisses)
		}
		if cc := p.off.CacheCounters(); cc.PrepHits != 0 {
			t.Errorf("disabled engine at parallelism %d recorded %d prepared evaluations", par, cc.PrepHits)
		}
	}
}
