package engine

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"jackpine/internal/sql"
)

// bigGridEngine loads a 20×20 grid (400 landmarks — above the executor's
// 256-row parallel threshold) with a spatial index.
func bigGridEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := newTestEngine(t, opts...)
	loadGrid(t, e, 20)
	e.MustExec("CREATE SPATIAL INDEX lidx ON landmarks (geo)")
	return e
}

// rowsString canonicalizes a result for order-sensitive comparison.
func rowsString(res *sql.Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestParallelMatchesSerial(t *testing.T) {
	serialEng := bigGridEngine(t, WithParallelism(1))
	parallel := map[int]*Engine{}
	for _, par := range []int{2, 4, 8} {
		parallel[par] = bigGridEngine(t, WithParallelism(par))
	}
	queries := []string{
		// Full scan, ORDER BY sink.
		"SELECT id, name FROM landmarks ORDER BY id DESC",
		// Full-scan aggregates, including exact float SUM/AVG.
		"SELECT COUNT(*), SUM(id), MIN(id), MAX(id), AVG(id), SUM(ST_Area(geo)) FROM landmarks",
		// Spatial window + aggregate (parallel refinement).
		"SELECT COUNT(*) FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 15.5, 15.5))",
		// Spatial window + ORDER BY (parallel refinement, row results).
		"SELECT id FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0, 0, 15.5, 15.5)) ORDER BY id",
		// Grouping: 400 one-row groups merged across shards.
		"SELECT name, COUNT(*) FROM landmarks GROUP BY name ORDER BY 1",
		// Residual filter on top of the parallel scan.
		"SELECT COUNT(*) FROM landmarks WHERE id >= 100 AND ST_Area(geo) > 0.5",
	}
	for _, q := range queries {
		serial := rowsString(serialEng.MustExec(q))
		for _, par := range []int{2, 4, 8} {
			if got := rowsString(parallel[par].MustExec(q)); got != serial {
				t.Errorf("%s: parallelism %d diverges\nserial:\n%s\ngot:\n%s", q, par, serial, got)
			}
		}
	}
}

func TestParallelAccessLabelAndExplain(t *testing.T) {
	e := bigGridEngine(t, WithParallelism(4))

	res := e.MustExec("SELECT COUNT(*) FROM landmarks")
	if len(res.Access) != 1 || res.Access[0] != "landmarks:parallel seqscan (4 workers)" {
		t.Errorf("scan access = %v", res.Access)
	}
	res = e.MustExec("SELECT COUNT(*) FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0,0,10,10))")
	if len(res.Access) != 1 || res.Access[0] != "landmarks:parallel spatial-index (4 workers)" {
		t.Errorf("window access = %v", res.Access)
	}

	// EXPLAIN reports the same plan without executing.
	res = e.MustExec("EXPLAIN SELECT COUNT(*) FROM landmarks")
	if len(res.Rows) != 1 || res.Rows[0][1].Text != "parallel seqscan (4 workers)" {
		t.Errorf("explain = %v", res.Rows)
	}
}

func TestParallelGating(t *testing.T) {
	e := bigGridEngine(t, WithParallelism(4))
	e.MustExec("CREATE INDEX nidx ON landmarks (name)")
	e.MustExec("INSERT INTO cities VALUES (1, 'a', 10, ST_GeomFromText('POINT (1 1)')), (2, 'b', 20, ST_GeomFromText('POINT (2 2)'))")

	serial := []struct{ q, access string }{
		// LIMIT without ORDER BY keeps the serial early-exit scan.
		{"SELECT id FROM landmarks LIMIT 5", "landmarks:seqscan"},
		// kNN keeps its bounded heap scan.
		{"SELECT id FROM landmarks ORDER BY ST_Distance(geo, ST_MakePoint(5, 5)) LIMIT 3", "landmarks:knn"},
		// B+tree seeks touch few rows.
		{"SELECT id FROM landmarks WHERE name = 'cell-7'", "landmarks:btree-seek"},
		// Tables below the row threshold stay serial.
		{"SELECT COUNT(*) FROM cities", "cities:seqscan"},
	}
	for _, tc := range serial {
		res := e.MustExec(tc.q)
		if len(res.Access) != 1 || res.Access[0] != tc.access {
			t.Errorf("%s: access = %v, want %s", tc.q, res.Access, tc.access)
		}
	}

	// Parallelism 1 disables fan-out even on big scans.
	res := bigGridEngine(t, WithParallelism(1)).MustExec("SELECT COUNT(*) FROM landmarks")
	if len(res.Access) != 1 || res.Access[0] != "landmarks:seqscan" {
		t.Errorf("serial engine access = %v", res.Access)
	}
}

func TestParallelismKnobs(t *testing.T) {
	scanAccess := func(e *Engine) string {
		res := e.MustExec("SELECT COUNT(*) FROM landmarks")
		if len(res.Access) != 1 {
			t.Fatalf("access = %v", res.Access)
		}
		return res.Access[0]
	}
	if got := scanAccess(bigGridEngine(t, WithParallelism(3))); got != "landmarks:parallel seqscan (3 workers)" {
		t.Errorf("WithParallelism(3): access = %q", got)
	}
	want := "landmarks:seqscan"
	if n := runtime.GOMAXPROCS(0); n > 1 {
		want = fmt.Sprintf("landmarks:parallel seqscan (%d workers)", n)
	}
	if got := scanAccess(bigGridEngine(t)); got != want {
		t.Errorf("default parallelism: access = %q, want GOMAXPROCS plan %q", got, want)
	}
	if got := scanAccess(bigGridEngine(t, WithParallelism(0))); got != want {
		t.Errorf("WithParallelism(0): access = %q, want GOMAXPROCS plan %q", got, want)
	}
}

// TestConcurrentExplainAndQueries exercises the engine lock split: reads
// (SELECT and EXPLAIN) share the RLock while writes take the exclusive
// lock. Run under -race this catches EXPLAIN planning against a moving
// catalog.
func TestConcurrentExplainAndQueries(t *testing.T) {
	e := bigGridEngine(t, WithParallelism(4))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var err error
				switch g % 3 {
				case 0:
					_, err = e.Exec("EXPLAIN SELECT COUNT(*) FROM landmarks")
				case 1:
					_, err = e.Exec("SELECT COUNT(*) FROM landmarks WHERE ST_Intersects(geo, ST_MakeEnvelope(0,0,12,12))")
				default:
					_, err = e.Exec(fmt.Sprintf(
						"INSERT INTO cities VALUES (%d, 'c%d', %d, ST_GeomFromText('POINT (%d %d)'))",
						g*100+i, g*100+i, i, i, g))
				}
				if err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
