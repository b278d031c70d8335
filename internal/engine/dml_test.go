package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// loadManyVertexPolygons inserts n polygons of the given vertex count
// into landmarks, ids 0..n-1.
func loadManyVertexPolygons(t *testing.T, e *Engine, n, vertices int) {
	t.Helper()
	const batch = 100
	for lo := 0; lo < n; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO landmarks VALUES ")
		for i := lo; i < lo+batch && i < n; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			x, y := float64(i%50)*10, float64(i/50)*10
			fmt.Fprintf(&sb, "(%d, 'lm%d', ST_GeomFromText('POLYGON ((", i, i)
			// A closed ring along the square's boundary (x,y)-(x+8,y+8).
			for v := 0; v <= vertices; v++ {
				if v > 0 {
					sb.WriteString(", ")
				}
				f := 32 * float64(v%vertices) / float64(vertices)
				var px, py float64
				switch side := int(f) / 8; side {
				case 0:
					px, py = x+f, y
				case 1:
					px, py = x+8, y+f-8
				case 2:
					px, py = x+24-f, y+8
				default:
					px, py = x, y+32-f
				}
				fmt.Fprintf(&sb, "%g %g", px, py)
			}
			sb.WriteString("))'))")
		}
		e.MustExec(sb.String())
	}
}

// TestDMLWhereDecodesOnlyReferencedColumns: UPDATE and DELETE with a
// WHERE clause on an integer column decode no geometry while they look
// for matching rows. The first statement after a bulk insert is the
// cold case: decoding every 128-vertex polygon would allocate over
// 2 KiB per scanned row, so heap bytes per scanned row stay far below
// that. Only the matched row is read in full.
func TestDMLWhereDecodesOnlyReferencedColumns(t *testing.T) {
	const rows, vertices = 1000, 128
	e := newTestEngine(t)
	loadManyVertexPolygons(t, e, rows, vertices)

	bytesPerRow := func(stmt string) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := e.MustExec(stmt)
		runtime.ReadMemStats(&after)
		if res.Affected != 1 {
			t.Fatalf("%s affected %d rows, want 1", stmt, res.Affected)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / rows
	}
	const limit = 1024 // bytes per scanned row; one decoded polygon is 2 KiB of coordinates
	for _, stmt := range []string{
		"UPDATE landmarks SET name = 'renamed' WHERE id = 500",
		"DELETE FROM landmarks WHERE id = 700",
	} {
		got := bytesPerRow(stmt)
		t.Logf("%s: %.0f bytes per scanned row", stmt, got)
		if got > limit {
			t.Errorf("%s allocated %.0f bytes per scanned row, want <= %d (geometries decoded?)", stmt, got, limit)
		}
	}

	res := e.MustExec("SELECT name, ST_NumPoints(geo) FROM landmarks WHERE id = 500")
	if len(res.Rows) != 1 || res.Rows[0][0].Text != "renamed" || res.Rows[0][1].Int != vertices+1 {
		t.Errorf("updated row = %v, want [renamed %d]", res.Rows, vertices+1)
	}
	if res := e.MustExec("SELECT COUNT(*) FROM landmarks"); res.Rows[0][0].Int != rows-1 {
		t.Errorf("row count after delete = %v, want %d", res.Rows[0][0], rows-1)
	}
}
