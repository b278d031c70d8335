package main

import (
	"strings"
	"time"
)

// perLayer computes the traced run's per-layer metrics. Span medians and
// self times come from the traced segments. Counters come from the
// untraced ones, where no side call (parse, in-process exec) warms a
// cache for the statement that follows it; a count is the segments'
// counter delta divided by their ops, which for one client equals
// differencing per op and for two clients is the per-run difference.
// -1 marks a metric with no samples on this workload (a layer the
// workload does not reach).
func perLayer(r *runner, spans []span) map[string]float64 {
	sys := r.sys
	m := map[string]float64{
		"tiger.generate_s": sys.generate.Seconds(),
		"tiger.insert_s":   sys.insert.Seconds(),
		"tiger.index_s":    sys.index.Seconds(),
	}

	var tWall, uWall time.Duration
	var cnt counters
	var uAlloc uint64
	var uPause time.Duration
	uSegOps, uStmts := 0, 0
	for _, s := range r.segments {
		switch {
		case !s.measured:
		case s.traced:
			tWall += s.wall
		default:
			cnt = cnt.add(s.counters)
			uWall += s.wall
			uSegOps += s.ops
			uStmts += s.stmts
			uAlloc += s.allocBytes
			uPause += s.gcPause
		}
	}
	tOps, tOK, uOK := 0, 0, 0
	opLat := make(map[string][]float64)
	for _, c := range r.clients {
		for _, o := range c.ops {
			if !o.measured {
				continue
			}
			if o.traced {
				tOps++
				if !o.failed() {
					tOK++
				}
				continue
			}
			if !o.failed() {
				uOK++
			}
			id := sys.spec.mix[o.seq%len(sys.spec.mix)]
			opLat[id] = append(opLat[id], float64(o.dur)/1e6)
		}
	}
	per := func(v float64) float64 { return v / float64(max(uSegOps, 1)) }
	perTraced := func(v float64) float64 { return v / float64(max(tOps, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return -1
		}
		return a / b
	}

	self := spanSelf(spans)
	dur := make(map[string][]float64)
	layerSelf := make(map[string]time.Duration)
	for i, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start)/1e3)
		layerSelf[layerOf(s.Name)] += time.Duration(self[i])
	}
	med := func(name string) float64 { return medianOr(dur[name], -1) }

	m["wire.rtt_us"] = med("wire.rtt")
	var overhead []float64
	for _, c := range r.clients {
		for _, d := range c.wireOverhead {
			overhead = append(overhead, float64(d)/1e3)
		}
	}
	m["wire.overhead_us"] = medianOr(overhead, -1)

	cc := cnt.cache
	m["engine.exec_us"] = med("engine.exec")
	m["engine.plan_hit"] = ratio(float64(cc.PlanHits), float64(cc.PlanHits+cc.PlanMisses))
	m["sql.parse_us"] = med("sql.parse")
	m["sql.inl_joins"] = per(float64(cnt.join.INL))
	m["sql.pbsm_joins"] = per(float64(cnt.join.PBSM))
	m["sql.pbsm_cells"] = per(float64(cnt.join.Cells))
	m["sql.pbsm_dedup_drops"] = per(float64(cnt.join.DedupDrops))
	m["sql.pbsm_cache_hits"] = per(float64(cnt.join.CacheHits))
	m["sql.batches"] = per(float64(cnt.batches))
	m["sql.batch_rows"] = per(float64(cnt.batchRows))
	m["topo.exact_evals"] = per(float64(cc.PrepHits + cc.PrepMisses))
	m["topo.prep_hit"] = ratio(float64(cc.PrepHits), float64(cc.PrepHits+cc.PrepMisses))

	m["storage.pool_hit"] = ratio(float64(cc.PoolHits), float64(cc.PoolHits+cc.PoolMisses))
	m["storage.geomcache_hit"] = ratio(float64(cc.GeomHits), float64(cc.GeomHits+cc.GeomMisses))
	m["storage.pool_evictions"] = per(float64(cnt.evictions))
	m["storage.pool_flushes"] = per(float64(cnt.flushes))
	if sys.dir != "" {
		// The durable page file is opened by the engine itself; its page
		// reads are the pool's misses and its writes the pool's flushes.
		m["storage.page_reads"] = per(float64(cc.PoolMisses))
		m["storage.page_writes"] = per(float64(cnt.flushes))
	} else {
		m["storage.page_reads"] = per(float64(cnt.reads))
		m["storage.page_writes"] = per(float64(cnt.writes))
	}
	m["storage.page_read_us"] = med("storage.read")

	m["wal.appends"] = per(float64(cc.WALAppends))
	m["wal.commits"] = per(float64(cnt.walCommits))
	m["wal.fsyncs"] = per(float64(cc.WALFsyncs))
	m["wal.bytes"] = per(float64(cnt.walBytes))
	m["wal.group_commit"] = ratio(float64(cnt.walCommits), float64(cc.WALFsyncs))

	// Cluster: each client statement is one cluster.route span whose
	// children are the shard calls it caused.
	routes := 0
	var shardMax, routerSelf []float64
	shardsPer := make(map[int64]float64)
	for _, s := range spans {
		if s.Name == "cluster.shard" {
			d := float64(s.End-s.Start) / 1e3
			shardsPer[s.Parent] = max(shardsPer[s.Parent], d)
		}
	}
	for i, s := range spans {
		if s.Name != "cluster.route" {
			continue
		}
		routes++
		routerSelf = append(routerSelf, float64(self[i])/1e3)
		if d, ok := shardsPer[s.ID]; ok {
			shardMax = append(shardMax, d)
		}
	}
	m["cluster.shard_stmts"] = ratio(float64(len(dur["cluster.shard"])), float64(routes))
	m["cluster.shard_us"] = med("cluster.shard")
	m["cluster.shard_max_us"] = medianOr(shardMax, -1)
	m["cluster.router_self_us"] = medianOr(routerSelf, -1)
	sh := cnt.shard
	m["cluster.prune_rate"], m["cluster.fast_path"] = -1, -1
	if sys.cl != nil {
		m["cluster.prune_rate"] = sh.PruneRate()
		m["cluster.fast_path"] = ratio(float64(sh.FastPathHits), float64(uStmts))
	}
	m["cluster.join_pushdown"] = per(float64(sh.JoinPushdowns))
	m["cluster.gather_builds"] = per(float64(sh.GatherBuilds))

	for _, id := range allOpIDs() {
		m["q."+id+".p50_ms"] = medianOr(opLat[id], -1)
	}
	for _, l := range layers {
		m[l+".self_us"] = perTraced(float64(layerSelf[l]) / 1e3)
	}

	m["proc.alloc_kb_per_op"] = float64(uAlloc) / 1024 / float64(max(uSegOps, 1))
	m["proc.gc_pause_ms"] = float64(uPause) / 1e6 / float64(max(uSegOps, 1))
	m["trace.overhead"] = ratio(float64(tOK)/tWall.Seconds(), float64(uOK)/uWall.Seconds())
	return m
}

// allOpIDs lists every op of every workload, for the per-query table.
func allOpIDs() []string {
	seen := make(map[string]bool)
	var ids []string
	for _, w := range workloads {
		for _, id := range w.mix {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// perLayerUnit derives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_kb_per_op"):
		return "KiB"
	case name == "wal.bytes":
		return "bytes"
	case strings.HasSuffix(name, "_hit"), strings.HasSuffix(name, "_rate"), name == "wal.group_commit",
		name == "cluster.fast_path", name == "trace.overhead":
		return "ratio"
	}
	return "count"
}

func medianOr(xs []float64, none float64) float64 {
	if len(xs) == 0 {
		return none
	}
	return median(xs)
}

// spanSelf returns each span's self time in nanoseconds: its duration
// minus the part of it that its children cover.
func spanSelf(spans []span) []int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}
