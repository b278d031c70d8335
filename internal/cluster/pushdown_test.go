package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"jackpine/internal/driver"
)

// loadJoinFixture fills the router fixture with a join-heavy pair of
// tables whose geometries deliberately straddle the 4-shard grid's
// cell boundaries (x=50, y=50 over the 100×100 extent), so both halves
// of the pushdown decomposition — same-shard pairs and cross-shard
// boundary pairs — carry weight. It returns the shard counters after
// loading, the baseline a test's counter deltas start from.
func loadJoinFixture(t *testing.T, f *routerFixture) driver.ShardStats {
	t.Helper()
	f.exec(t, "CREATE TABLE jpts (id INTEGER, loc GEOMETRY)")
	f.exec(t, "CREATE TABLE jareas (id INTEGER, shape GEOMETRY)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO jpts VALUES ")
	for i := 0; i < 144; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		x := float64(i%12)*8 + 2.5 // 2.5, 10.5, ... crosses x=50
		y := float64(i/12)*8 + 1.5
		fmt.Fprintf(&sb, "(%d, ST_MakePoint(%g, %g))", i, x, y)
	}
	sb.WriteString(", (999, NULL)")
	f.exec(t, sb.String())
	sb.Reset()
	sb.WriteString("INSERT INTO jareas VALUES ")
	for i := 0; i < 36; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		x0 := float64(i%6) * 16
		y0 := float64(i/6) * 16
		// 12×12 squares on a 16 pitch: several straddle a cell border.
		fmt.Fprintf(&sb, "(%d, ST_GeomFromText('POLYGON ((%g %g, %g %g, %g %g, %g %g, %g %g))'))",
			i, x0, y0, x0+12, y0, x0+12, y0+12, x0, y0+12, x0, y0)
	}
	f.exec(t, sb.String())
	f.exec(t, "CREATE SPATIAL INDEX jareas_sidx ON jareas (shape)")
	return f.cl.ShardStats()
}

// TestJoinPushdownEquivalence: co-partitioned aggregate spatial joins
// must run shard-local — zero gather-engine builds — and match the
// single engine exactly, cross-shard boundary pairs included.
func TestJoinPushdownEquivalence(t *testing.T) {
	f := newRouterFixture(t)
	before := loadJoinFixture(t, f)
	queries := []string{
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)",
		"SELECT COUNT(*), SUM(p.id), MIN(a.id), MAX(p.id) FROM jpts p JOIN jareas a ON ST_Contains(a.shape, p.loc)",
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON ST_DWithin(p.loc, a.shape, 3.0)",
		"SELECT COUNT(*), AVG(p.id) FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape) WHERE a.id < 30",
		"SELECT COUNT(*) FROM jpts a JOIN jpts b ON ST_DWithin(a.loc, b.loc, 4.0) WHERE a.id < b.id",
	}
	for _, q := range queries {
		compareQuery(t, q, q, f.single, f.cluster)
	}
	ss := statsSince(f.cl, before)
	if ss.JoinPushdowns != len(queries) {
		t.Errorf("JoinPushdowns = %d, want %d (every aggregate join shard-local)",
			ss.JoinPushdowns, len(queries))
	}
	if ss.GatherBuilds != 0 {
		t.Errorf("GatherBuilds = %d, want 0: pushdown must not fall back to the gather engine", ss.GatherBuilds)
	}
}

// TestJoinPushdownIneligible: joins the decomposition cannot express —
// row-returning projections, or no spatial conjunct linking the two
// partitioning geometry columns — must keep the gather path and stay
// correct there.
func TestJoinPushdownIneligible(t *testing.T) {
	f := newRouterFixture(t)
	before := loadJoinFixture(t, f)
	queries := []string{
		// Row-returning projection: not an aggregate shape.
		"SELECT p.id, a.id FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)",
		// Attribute equi-join: cross-shard pairs are unbounded, the
		// complement would be the whole table.
		"SELECT COUNT(*) FROM jpts p JOIN jareas a ON p.id = a.id",
	}
	for _, q := range queries {
		compareQuery(t, q, q, f.single, f.cluster)
	}
	ss := statsSince(f.cl, before)
	if ss.JoinPushdowns != 0 {
		t.Errorf("JoinPushdowns = %d, want 0 for ineligible joins", ss.JoinPushdowns)
	}
	if ss.GatherBuilds == 0 {
		t.Error("ineligible joins should have used the gather engine")
	}
}

// TestGatherEngineCache: repeat gathers over the same table set at the
// same schema epoch must reuse one cached engine (build-once), reloads
// must observe fresh data, and DDL must retire the cache generation.
func TestGatherEngineCache(t *testing.T) {
	f := newRouterFixture(t)
	before := loadJoinFixture(t, f)
	q := "SELECT p.id, a.id FROM jpts p JOIN jareas a ON ST_Intersects(p.loc, a.shape)"
	compareQuery(t, "gather run 1", q, f.single, f.cluster)
	compareQuery(t, "gather run 2", q, f.single, f.cluster)
	ss := statsSince(f.cl, before)
	if ss.GatherBuilds != 1 {
		t.Fatalf("GatherBuilds = %d after two identical gathers, want 1 (cached reuse)", ss.GatherBuilds)
	}

	// Data changes need no rebuild — the reuse path reloads fragments —
	// but must be visible to the next gather.
	f.exec(t, "INSERT INTO jpts VALUES (500, ST_MakePoint(3, 3))")
	compareQuery(t, "gather after insert", q, f.single, f.cluster)
	ss = statsSince(f.cl, before)
	if ss.GatherBuilds != 1 {
		t.Errorf("GatherBuilds = %d after DML, want still 1", ss.GatherBuilds)
	}

	// Schema-shape DDL bumps the epoch: the stale engine is retired.
	f.exec(t, "CREATE INDEX jpts_id ON jpts (id)")
	compareQuery(t, "gather after DDL", q, f.single, f.cluster)
	ss = statsSince(f.cl, before)
	if ss.GatherBuilds != 2 {
		t.Errorf("GatherBuilds = %d after DDL, want 2 (epoch bump rebuilds)", ss.GatherBuilds)
	}
}
