package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"jackpine/internal/cluster"
	"jackpine/internal/driver"
	"jackpine/internal/engine"
	"jackpine/internal/sql"
	"jackpine/internal/storage"
	"jackpine/internal/tiger"
	"jackpine/internal/wire"
)

// workloadSpec is one workload: which ops run, at what scale, through
// which transport, with how many closed-loop clients.
type workloadSpec struct {
	name      string
	scale     tiger.Scale
	mix       []string // op IDs, run round-robin in this order
	clients   int
	transport string // "wire", "inproc", "durable" or "cluster"
	poolPages int    // 0 keeps the engine default
	// parallelism, if > 0, sets every engine's worker count. landuse
	// runs serially: BufferPool.Pin puts a missed frame in the page
	// table before ReadPage fills it, so a second Pin of the same page
	// (another client, or another worker of the same statement) can read
	// the unfilled buffer. With one client and one worker it cannot, and
	// no op fails; --clients 2 --parallelism 2 shows the race.
	parallelism int
	// p99Groups, if > 1, makes an untraced run time at least this many
	// groups of minStmts statements, so that stmt_p99_ms is a median of
	// several group p99s. landuse's p99 lies in the tail of its slowest
	// statement (the full-scan join, a third of the statements), which a
	// stall of the host moves: over six seeds its spread was 0.32 with
	// one group and 0.09 with two.
	p99Groups int
	shards    int
	block     int // ops per client in one ops_per_s block: whole rounds of the mix, about a second
	// procs, if > 0, sets GOMAXPROCS for the run. One wire client keeps
	// one request in flight, so a second processor only adds a
	// cross-CPU wake-up to every round trip, and on a virtual machine
	// the latency of that wake-up varies more than the statement costs.
	// landuse's one serial client likewise leaves the second processor
	// to the collector, and its p99 then followed the host's load.
	procs int
}

var workloads = []workloadSpec{
	{name: "browse", scale: tiger.Medium, mix: []string{"MS1", "MS2", "MS3", "MS6"}, clients: 1, transport: "wire", block: 160, procs: 1},
	{name: "overlay", scale: tiger.Medium, mix: append([]string{"MS7", "MS4"}, microIDs()...), clients: 1, transport: "inproc", block: 170},
	{name: "landuse", scale: tiger.Medium, mix: []string{"MS5"}, clients: 1, transport: "durable", poolPages: 64, parallelism: 1, p99Groups: 2, block: 16, procs: 1},
	{name: "scatter", scale: tiger.Medium, mix: []string{"MS1", "MS3", "MS7"}, clients: 1, transport: "cluster", shards: 2, parallelism: 1, block: 18},
}

func microIDs() []string {
	ids := make([]string, 15)
	for i := range ids {
		ids[i] = fmt.Sprintf("MT%d", i+1)
	}
	return ids
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// system is one set-up instance of the program under test.
type system struct {
	spec      workloadSpec
	tr        *tracer
	ds        *tiger.Dataset
	connector driver.Connector // what the clients connect to
	route     string           // span name of the call a client statement makes
	engines   []*engine.Engine // engines whose counters are read
	stores    []*timingStore   // one per in-memory engine
	slots     []*execSlot      // one per engine
	side      *engine.Engine   // browse: the engine behind the server
	cl        *cluster.Cluster
	srv       *wire.Server
	dir       string // landuse: durable data directory

	generate, insert, index time.Duration
	setup                   time.Duration
}

// setupOptions are the knobs the self-tests and the --clients and
// --parallelism flags turn; a benchmark run leaves them at their zero
// values.
type setupOptions struct {
	baseDir     string        // where durable directories are created
	clients     int           // overrides the workload's client count
	poolPages   int           // overrides the workload's pool size
	parallelism int           // overrides every engine's parallelism
	readDelay   time.Duration // injected into every timingStore.ReadPage
	shardDelay  time.Duration // injected into shard 0's connector
}

// newSystem generates the dataset, loads and indexes it, and opens the
// workload's transport. The returned setup time covers all of it, up to
// the point where the first op may run.
func newSystem(spec workloadSpec, seed int64, tr *tracer, o setupOptions) (*system, error) {
	t0 := time.Now()
	s := &system{spec: spec, tr: tr}
	s.ds = tiger.Generate(spec.scale, seed)
	s.generate = time.Since(t0)

	pool := spec.poolPages
	if o.poolPages > 0 {
		pool = o.poolPages
	}
	par := spec.parallelism
	if o.parallelism > 0 {
		par = o.parallelism
	}
	opts := func(st *timingStore) []engine.Option {
		var out []engine.Option
		if st != nil {
			out = append(out, engine.WithStore(st))
		}
		if pool > 0 {
			out = append(out, engine.WithPoolPages(pool))
		}
		if par > 0 {
			out = append(out, engine.WithParallelism(par))
		}
		return out
	}
	newStore := func(slot *execSlot) *timingStore {
		return &timingStore{PageStore: storage.NewMemStore(), tr: tr, slot: slot, readDelay: o.readDelay}
	}
	load := func(eng *engine.Engine, fn func(x tiger.Execer) error) error {
		x := &timingExecer{exec: func(q string) error { _, err := eng.Exec(q); return err }}
		err := fn(x)
		s.insert += x.insert
		s.index += x.index
		return err
	}
	loadAll := func(eng *engine.Engine) error {
		return load(eng, func(x tiger.Execer) error { return tiger.Load(x, s.ds, true) })
	}

	var err error
	switch spec.transport {
	case "wire", "inproc":
		slot := &execSlot{}
		st := newStore(slot)
		eng := engine.Open(engine.GaiaDB(), opts(st)...)
		s.engines, s.stores, s.slots = []*engine.Engine{eng}, []*timingStore{st}, []*execSlot{slot}
		if err = loadAll(eng); err != nil {
			return nil, s.fail(err)
		}
		if spec.transport == "inproc" {
			s.connector, s.route = driver.NewInProc(eng), "engine.exec"
			break
		}
		s.srv = wire.NewServer(eng)
		addr, err := s.srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, s.fail(err)
		}
		s.connector, s.route, s.side = wire.NewClient(addr, "gaiadb"), "wire.rtt", eng
	case "durable":
		if s.dir, err = os.MkdirTemp(o.baseDir, "landuse-"); err != nil {
			return nil, s.fail(err)
		}
		eng, err := engine.OpenDurable(engine.GaiaDB(), s.dir, opts(nil)...)
		if err != nil {
			return nil, s.fail(err)
		}
		s.engines, s.stores, s.slots = []*engine.Engine{eng}, []*timingStore{nil}, []*execSlot{{}}
		if err = loadAll(eng); err != nil {
			return nil, s.fail(err)
		}
		s.connector, s.route = driver.NewInProc(eng), "engine.exec"
	case "cluster":
		part, err := cluster.NewPartitioner(s.ds.Extent, spec.shards)
		if err != nil {
			return nil, s.fail(err)
		}
		shards := make([]driver.Connector, spec.shards)
		for i := range shards {
			slot := &execSlot{}
			st := newStore(slot)
			// Each shard engine runs serially (the spec's parallelism):
			// two shards, two cores.
			eng := engine.Open(engine.GaiaDB(), opts(st)...)
			s.engines = append(s.engines, eng)
			s.stores = append(s.stores, st)
			s.slots = append(s.slots, slot)
			if err := load(eng, func(x tiger.Execer) error { return tiger.LoadShard(x, s.ds, true, i, part.Assign) }); err != nil {
				return nil, s.fail(err)
			}
			sc := &shardConnector{inner: driver.NewInProc(eng), tr: tr, slot: slot}
			if i == 0 {
				sc.delay = o.shardDelay
			}
			shards[i] = sc
		}
		if s.cl, err = cluster.Open(shards, part, cluster.Options{Profile: engine.GaiaDB()}); err != nil {
			return nil, s.fail(err)
		}
		for _, ddl := range tiger.Schema() {
			if err := s.cl.Register(ddl); err != nil {
				return nil, s.fail(err)
			}
		}
		if err := s.cl.RefreshStats(); err != nil {
			return nil, s.fail(err)
		}
		s.connector, s.route = s.cl, "cluster.route"
	default:
		return nil, fmt.Errorf("unknown transport %q", spec.transport)
	}
	s.setup = time.Since(t0)
	return s, nil
}

// fail releases a half-built system and passes err on.
func (s *system) fail(err error) error {
	if cerr := s.close(); cerr != nil {
		err = fmt.Errorf("%w (and close: %v)", err, cerr)
	}
	if rerr := s.removeDir(); rerr != nil {
		err = fmt.Errorf("%w (and remove: %v)", err, rerr)
	}
	return err
}

// close stops the server and closes every engine. A durable directory
// is kept for the restart check; removeDir deletes it.
func (s *system) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.srv != nil {
		keep(s.srv.Close())
	}
	for _, e := range s.engines {
		keep(e.Close())
	}
	s.engines = nil
	return first
}

func (s *system) removeDir() error {
	if s.dir == "" {
		return nil
	}
	return os.RemoveAll(s.dir)
}

// userBytes counts the loaded user data as experiment E1 does (WKB),
// plus the attribute values: 8 bytes per integer, the length of text.
func userBytes(ds *tiger.Dataset) int64 {
	var n int64
	for _, l := range ds.Stats() {
		n += int64(l.WKBBytes)
	}
	for _, e := range ds.Edges {
		n += 8*3 + int64(len(e.Name)+len(e.Class))
	}
	for _, group := range [][]tiger.Area{ds.AreaWater, ds.AreaLandmarks, ds.Parcels} {
		for _, a := range group {
			n += 8 + int64(len(a.Name)+len(a.Category))
		}
	}
	for _, p := range ds.PointLandmarks {
		n += 8 + int64(len(p.Name)+len(p.Category))
	}
	return n
}

// storedBytes is what the engines keep for the data: the page file plus
// the log of a durable engine, or the pages of the in-memory stores.
func (s *system) storedBytes() (int64, error) {
	if s.dir != "" {
		var n int64
		for _, f := range []string{engine.PagesFileName, engine.WALFileName} {
			fi, err := os.Stat(filepath.Join(s.dir, f))
			if err != nil {
				return 0, err
			}
			n += fi.Size()
		}
		return n, nil
	}
	var n int64
	for _, st := range s.stores {
		n += int64(st.NumPages()) * storage.PageSize
	}
	return n, nil
}

// counters is a snapshot of every counter the program exports plus the
// ones the benchmark's own boundaries keep, summed over the engines.
type counters struct {
	cache              engine.CacheCounters
	evictions, flushes uint64
	join               sql.JoinStats
	batches, batchRows int64
	shard              driver.ShardStats
	walCommits         uint64
	walBytes           int64
	reads, writes      int64
}

func (s *system) snap() counters {
	var c counters
	for i, e := range s.engines {
		cc := e.CacheCounters()
		c.cache.PoolHits += cc.PoolHits
		c.cache.PoolMisses += cc.PoolMisses
		c.cache.GeomHits += cc.GeomHits
		c.cache.GeomMisses += cc.GeomMisses
		c.cache.PlanHits += cc.PlanHits
		c.cache.PlanMisses += cc.PlanMisses
		c.cache.PrepHits += cc.PrepHits
		c.cache.PrepMisses += cc.PrepMisses
		c.cache.WALAppends += cc.WALAppends
		c.cache.WALFsyncs += cc.WALFsyncs
		ps := e.Pool().Stats()
		c.evictions += ps.Evictions
		c.flushes += ps.Flushes
		js := e.JoinStats()
		c.join.INL += js.INL
		c.join.PBSM += js.PBSM
		c.join.Cells += js.Cells
		c.join.DedupDrops += js.DedupDrops
		c.join.CacheHits += js.CacheHits
		b, r := e.BatchStats()
		c.batches += b
		c.batchRows += r
		if ws, ok := e.WALStats(); ok {
			c.walCommits += ws.Commits
		}
		if st := s.stores[i]; st != nil {
			c.reads += st.reads.Load()
			c.writes += st.writes.Load()
		}
	}
	if s.cl != nil {
		c.shard = s.cl.ShardStats()
	}
	if s.dir != "" {
		if fi, err := os.Stat(filepath.Join(s.dir, engine.WALFileName)); err == nil {
			c.walBytes = fi.Size()
		}
	}
	return c
}

// sub returns a − b, counter by counter.
func (a counters) sub(b counters) counters {
	a.cache.PoolHits -= b.cache.PoolHits
	a.cache.PoolMisses -= b.cache.PoolMisses
	a.cache.GeomHits -= b.cache.GeomHits
	a.cache.GeomMisses -= b.cache.GeomMisses
	a.cache.PlanHits -= b.cache.PlanHits
	a.cache.PlanMisses -= b.cache.PlanMisses
	a.cache.PrepHits -= b.cache.PrepHits
	a.cache.PrepMisses -= b.cache.PrepMisses
	a.cache.WALAppends -= b.cache.WALAppends
	a.cache.WALFsyncs -= b.cache.WALFsyncs
	a.evictions -= b.evictions
	a.flushes -= b.flushes
	a.join.INL -= b.join.INL
	a.join.PBSM -= b.join.PBSM
	a.join.Cells -= b.join.Cells
	a.join.DedupDrops -= b.join.DedupDrops
	a.join.CacheHits -= b.join.CacheHits
	a.batches -= b.batches
	a.batchRows -= b.batchRows
	a.shard.Scatters -= b.shard.Scatters
	a.shard.ShardQueries -= b.shard.ShardQueries
	a.shard.Pruned -= b.shard.Pruned
	a.shard.PrunableSent -= b.shard.PrunableSent
	a.shard.FastPathHits -= b.shard.FastPathHits
	a.shard.GatherBuilds -= b.shard.GatherBuilds
	a.shard.JoinPushdowns -= b.shard.JoinPushdowns
	a.walCommits -= b.walCommits
	a.walBytes -= b.walBytes
	a.reads -= b.reads
	a.writes -= b.writes
	return a
}

// add returns a + b: with wrap-around arithmetic, a − (0 − b).
func (a counters) add(b counters) counters {
	return a.sub(counters{}.sub(b))
}
