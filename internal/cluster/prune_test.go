package cluster_test

import (
	"strings"
	"testing"
)

// explainPath returns the access path EXPLAIN reports for a statement.
func explainPath(t *testing.T, f *routerFixture, q string) string {
	t.Helper()
	plan, err := f.cluster.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", q, err)
	}
	if len(plan.Rows) != 1 {
		t.Fatalf("EXPLAIN %s: %d rows", q, len(plan.Rows))
	}
	return plan.Rows[0][1].String()
}

// TestPruneTargetEdges pins the routing decisions at the edges of shard
// pruning: scans with nothing to prune on must fan out ineligibly (not
// diluting the prune rate), and a window straddling a grid-cell
// boundary must target exactly the two shards it overlaps.
func TestPruneTargetEdges(t *testing.T) {
	f := newRouterFixture(t)
	f.exec(t, "CREATE TABLE pts (id INTEGER, name TEXT, loc GEOMETRY)")
	// One point per grid cell of the 2x2 partitioning, none on a cell
	// boundary, so per-shard data MBRs are four well-separated points.
	f.exec(t, `INSERT INTO pts VALUES
		(1, 'sw', ST_MakePoint(10, 10)),
		(2, 'se', ST_MakePoint(90, 10)),
		(3, 'nw', ST_MakePoint(10, 90)),
		(4, 'ne', ST_MakePoint(90, 90))`)
	f.exec(t, "CREATE SPATIAL INDEX pts_loc ON pts (loc)")

	// Empty WHERE: all shards, not prune-eligible.
	before := f.cl.ShardStats()
	q := "SELECT id FROM pts"
	if path := explainPath(t, f, q); !strings.Contains(path, "scatter(4 of 4") {
		t.Errorf("windowless scan path = %q, want scatter(4 of 4 ...)", path)
	}
	compareQuery(t, "empty where", q, f.single, f.cluster)
	ss := statsSince(f.cl, before)
	if ss.PrunableSent != 0 || ss.Pruned != 0 {
		t.Errorf("windowless scan must be prune-ineligible: %+v", ss)
	}

	// Predicate on a non-partitioning column: nothing spatial to prune
	// on, so the scatter is ineligible even though it filters rows.
	before = f.cl.ShardStats()
	q = "SELECT name FROM pts WHERE id = 3"
	if path := explainPath(t, f, q); !strings.Contains(path, "scatter(4 of 4") {
		t.Errorf("non-spatial predicate path = %q, want scatter(4 of 4 ...)", path)
	}
	compareQuery(t, "non-spatial predicate", q, f.single, f.cluster)
	ss = statsSince(f.cl, before)
	if ss.PrunableSent != 0 || ss.Pruned != 0 {
		t.Errorf("non-spatial predicate must be prune-ineligible: %+v", ss)
	}

	// A window straddling the vertical cell boundary: it overlaps the
	// south-west and south-east data MBRs only, so exactly two shards
	// are queried and two pruned — a scatter, not a fast path.
	before = f.cl.ShardStats()
	q = "SELECT id FROM pts WHERE ST_Intersects(loc, ST_MakeEnvelope(5, 5, 95, 15))"
	if path := explainPath(t, f, q); !strings.Contains(path, "scatter(2 of 4") {
		t.Errorf("boundary-straddling window path = %q, want scatter(2 of 4 ...)", path)
	}
	compareQuery(t, "boundary window", q, f.single, f.cluster)
	ss = statsSince(f.cl, before)
	if ss.PrunableSent != 2 || ss.Pruned != 2 || ss.FastPathHits != 0 {
		t.Errorf("boundary window stats = %+v, want 2 sent, 2 pruned, no fast path", ss)
	}

	// The same pruning works through a binding alias on the geometry.
	q = "SELECT p.id FROM pts AS p WHERE ST_Intersects(p.loc, ST_MakeEnvelope(5, 5, 15, 15))"
	if path := explainPath(t, f, q); !strings.Contains(path, "fastpath(") {
		t.Errorf("aliased single-cell window path = %q, want fastpath(...)", path)
	}
	compareQuery(t, "aliased window", q, f.single, f.cluster)

	// OFFSET/LIMIT edges through the merged scatter path.
	for _, q := range []string{
		"SELECT id FROM pts ORDER BY id LIMIT 2 OFFSET 10", // offset past end
		"SELECT id FROM pts ORDER BY id LIMIT 0",           // empty window
		"SELECT id FROM pts ORDER BY id LIMIT 10 OFFSET 3", // limit overruns
		"SELECT id FROM pts LIMIT 0",                       // unordered empty window
	} {
		compareQuery(t, q, q, f.single, f.cluster)
	}
}

// TestKNNTwoPhase exercises the two-phase kNN scatter: when the nearest
// shard alone satisfies k and its k-th distance excludes every other
// shard's data MBR, only one shard is queried.
func TestKNNTwoPhase(t *testing.T) {
	f := newRouterFixture(t)
	f.exec(t, "CREATE TABLE pts (id INTEGER, loc GEOMETRY)")
	f.exec(t, `INSERT INTO pts VALUES
		(1, ST_MakePoint(10, 10)),
		(2, ST_MakePoint(12, 12)),
		(3, ST_MakePoint(90, 10)),
		(4, ST_MakePoint(10, 90)),
		(5, ST_MakePoint(85, 85)),
		(6, ST_MakePoint(88, 88)),
		(7, ST_MakePoint(90, 90))`)
	f.exec(t, "CREATE SPATIAL INDEX pts_loc ON pts (loc)")

	// The two nearest neighbours of (89, 88) both live in the north-east
	// shard, and the k-th distance (~2.24) is far below every other
	// shard's MBR distance (>100): phase 1 must settle the query.
	before := f.cl.ShardStats()
	q := "SELECT id FROM pts ORDER BY ST_Distance(loc, ST_MakePoint(89, 88)) LIMIT 2"
	compareQuery(t, "tight knn", q, f.single, f.cluster)
	ss := statsSince(f.cl, before)
	if ss.ShardQueries != 1 || ss.Pruned != 3 {
		t.Errorf("tight kNN stats = %+v, want 1 shard query, 3 pruned", ss)
	}
	if ss.FastPathHits != 1 {
		t.Errorf("a phase-1-only kNN should count as a fast path: %+v", ss)
	}

	// A central probe with a large k cannot be settled by one shard:
	// phase 2 must run, and the merged result must still match.
	before = f.cl.ShardStats()
	q = "SELECT id FROM pts ORDER BY ST_Distance(loc, ST_MakePoint(45, 55)) LIMIT 5"
	compareQuery(t, "wide knn", q, f.single, f.cluster)
	ss = statsSince(f.cl, before)
	if ss.ShardQueries <= 1 {
		t.Errorf("wide kNN should need phase 2: %+v", ss)
	}

	// OFFSET participates in the wanted count; NULL geometries sort
	// ahead of every distance and live on a never-pruned shard.
	f.exec(t, "INSERT INTO pts VALUES (8, NULL)")
	for _, q := range []string{
		"SELECT id FROM pts ORDER BY ST_Distance(loc, ST_MakePoint(89, 88)) LIMIT 2 OFFSET 1",
		"SELECT id FROM pts ORDER BY ST_Distance(loc, ST_MakePoint(89, 88)) LIMIT 3",
		"SELECT id FROM pts ORDER BY ST_Distance(loc, ST_MakePoint(89, 88)) LIMIT 0",
	} {
		compareQuery(t, q, q, f.single, f.cluster)
	}
}
