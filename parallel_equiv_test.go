package jackpine

import (
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/engine"
)

// canonRows renders a result set into one comparable string: one line
// per row, cells joined by a unit separator, in the order the engine
// returned them. The executor's shard-order merge guarantees parallel
// plans reproduce the serial row order exactly, so the comparison is
// over the ordered rows, not a sorted multiset.
func canonRows(rs *ResultSet) string {
	var b strings.Builder
	for _, row := range rs.Rows {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(0x1f)
			}
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// openLoaded opens a GaiaDB engine with the given configuration and
// loads ds into it, indexed. The equivalence rails open one engine per
// configuration, since an engine's configuration is fixed at Open.
func openLoaded(t *testing.T, ds *Dataset, opts ...engine.Option) *Engine {
	t.Helper()
	eng := OpenEngine(GaiaDB(), opts...)
	if err := LoadDataset(eng, ds, true); err != nil {
		t.Fatal(err)
	}
	return eng
}

// connect opens an in-process session on eng, closed when the test ends.
func connect(t *testing.T, eng *Engine) Conn {
	t.Helper()
	conn, err := Connect(eng).Connect()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestParallelEquivalence runs the entire micro suite (MT1–MT15,
// MA1–MA12) at parallelism 1, 2, and 8 and requires byte-identical
// results from every query: same columns, same rows, same order, same
// float rendering (SUM/AVG accumulate exactly, so shard boundaries
// cannot perturb low-order bits).
func TestParallelEquivalence(t *testing.T) {
	ds := GenerateDataset(ScaleSmall, 1)
	ctx := NewQueryContext(ds)
	serial := openLoaded(t, ds, WithParallelism(1))
	conn := connect(t, serial)

	baseline := make(map[string]string)
	for _, q := range MicroSuite() {
		rs, err := conn.Query(q.SQL(ctx, 0))
		if err != nil {
			t.Fatalf("%s serial: %v", q.ID, err)
		}
		baseline[q.ID] = canonRows(rs)
	}

	const ma2 = "SELECT SUM(ST_Length(geo)) FROM edges"
	for _, par := range []int{2, 8} {
		eng := openLoaded(t, ds, WithParallelism(par))
		conn := connect(t, eng)
		for _, q := range MicroSuite() {
			rs, err := conn.Query(q.SQL(ctx, 0))
			if err != nil {
				t.Fatalf("%s at parallelism %d: %v", q.ID, par, err)
			}
			if got := canonRows(rs); got != baseline[q.ID] {
				t.Errorf("%s: parallelism %d diverges from serial\nserial:\n%s\nparallel:\n%s",
					q.ID, par, baseline[q.ID], got)
			}
		}
		// The sweep must actually exercise the parallel path: the
		// scan-heavy MA2 plan reports a parallel access.
		res, err := eng.Exec(ma2)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("parallel seqscan (%d workers)", par)
		if len(res.Access) == 0 || !strings.Contains(res.Access[0], want) {
			t.Errorf("MA2 at parallelism %d: access = %v, want %s", par, res.Access, want)
		}
	}

	// And the baseline must be serial.
	res, err := serial.Exec(ma2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Access) == 0 || strings.Contains(res.Access[0], "parallel") {
		t.Errorf("MA2 at parallelism 1: access = %v, want a serial plan", res.Access)
	}
}
