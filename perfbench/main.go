// Command perfbench is the repository's benchmark: it loads a seeded
// TIGER-like dataset into the gaiadb profile (exact DE-9IM) and runs one
// of four closed-loop workloads built from Jackpine's macro scenarios
// and topological micro queries:
//
//	browse   MS1 MS2 MS3 MS6, one client over the wire protocol, medium scale
//	overlay  MS7 MS4 MT1–MT15, one client in-process, medium scale
//	landuse  MS5, one serial client on a durable engine whose pool holds a quarter of the data
//	scatter  MS1 MS3 MS7, one client through a two-shard in-process cluster
//
// BENCHMARK.json lists browse, landuse and scatter. overlay runs only
// by hand: with it the benchmark's runs did not fit their time limit at
// a run length that kept the other workloads steady.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload overlay --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the same workload again with spans at the boundaries the
// benchmark owns and prints the per-layer metrics, writing the spans to
// .bench_build/perfbench/. Every statement's rows are checked against
// the plain serial path of the same profile. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int // set-ups timed for setup_s; the last one is measured
	warm     time.Duration
	ops      int // if > 0, each measured segment runs exactly this many ops per client instead of a time
	minStmts int // an untraced run goes on past its time until this many statements succeeded
	opts     setupOptions
	traceDir string // "" writes no trace file
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "browse, overlay, landuse or scatter")
	seed := fl.Int64("seed", 1, "dataset and probe seed")
	seconds := fl.Float64("seconds", 15, "measured seconds")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer variant")
	clients := fl.Int("clients", 0, "overrides the workload's client count (not for benchmark runs)")
	par := fl.Int("parallelism", 0, "overrides every engine's worker count (not for benchmark runs)")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	work := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	cfg := config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setups: 3, warm: time.Second, minStmts: minStmts, opts: setupOptions{baseDir: work, clients: *clients, parallelism: *par}, traceDir: work,
	}
	if cfg.trace {
		cfg.setups = 1
	}
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// minStmts is the fewest statements an untraced run times, so that at
// least ten lie beyond the reported p99. A run that has not timed them
// when --seconds is up goes on until it has, for at most four times as
// long.
const minStmts = 1000

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies what was measured and where.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
}

func newProvenance(cfg config, spec workloadSpec) provenance {
	return provenance{
		Workload: spec.name, Seed: cfg.seed, Scale: spec.scale.String(), Seconds: cfg.seconds, Trace: cfg.trace,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(), SourceHash: sourceHash("."),
	}
}

// gitCommit names the checked-out commit, or "none" outside a git
// work tree.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none" // not a work tree root; do not let git search the parents
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests the Go sources and module files under root, so a
// run outside a git work tree still names the code it measured.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runWorkload sets up, warms up, measures, checks and reports one run.
func runWorkload(cfg config, out io.Writer) (*result, error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want browse, overlay, landuse or scatter)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if cfg.opts.clients > 0 {
		spec.clients = cfg.opts.clients
	}
	// The set-ups and the measured run use the workload's processor
	// count; the output check after them uses all processors.
	restoreProcs := func() {}
	if spec.procs > 0 {
		prev := runtime.GOMAXPROCS(spec.procs)
		restoreProcs = func() { runtime.GOMAXPROCS(prev) }
	}
	defer restoreProcs()
	prov := newProvenance(cfg, spec)
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(out, "provenance %s\n", pj)

	tStart := time.Now()
	tr := newTracer()
	var sys *system
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		s, err := newSystem(spec, cfg.seed, tr, cfg.opts)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s.setup.Seconds())
		if i == cfg.setups-1 {
			sys = s
			break
		}
		if err := s.close(); err != nil {
			return nil, fmt.Errorf("setup: close: %w", err)
		}
		if err := s.removeDir(); err != nil {
			return nil, err
		}
	}
	defer sys.removeDir()
	defer sys.close()

	r, err := newRunner(sys)
	if err != nil {
		return nil, err
	}
	tSetup := time.Now()
	r.run(cfg.warm, len(spec.mix), 0, false, false)
	tWarm := time.Now()
	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.ops > 0 {
		total = 0
	}
	if cfg.trace {
		// Untraced and traced quarters, in ABBA order, so the tracing
		// overhead is measured against drift within the run.
		for _, traced := range []bool{false, true, true, false} {
			r.run(total/4, cfg.ops, 0, traced, true)
		}
	} else {
		r.run(total, cfg.ops, cfg.minStmts*max(spec.p99Groups, 1), false, true)
	}
	// Twice: the first collection only moves sync.Pool contents to the
	// victim cache, which the second one frees.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	stored, err := sys.storedBytes()
	if err != nil {
		return nil, err
	}
	r.close()
	restoreProcs()
	tMeasure := time.Now()

	ref, err := referenceEngine(sys.ds)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	chk := checkOutputs(r, ref)
	if err := ref.Close(); err != nil {
		return nil, err
	}
	correct := chk.mismatches == 0 && chk.digest == chk.refDigest
	var restartErr error
	if spec.transport == "durable" {
		// Every acknowledged write must also survive a restart.
		restartErr = checkRestart(r, chk.updates)
		correct = correct && restartErr == nil
	}

	res := &result{Correct: correct, Metrics: make(map[string]metric)}
	for _, c := range r.clients {
		for i := range c.ops {
			if o := &c.ops[i]; o.measured && !o.traced {
				res.Attempted++
				if o.failed() {
					res.Failed++
				}
			}
		}
	}
	tCheck := time.Now()
	fmt.Fprintf(out, "phases: set-up %.2fs, warm-up %.2fs, measured %.2fs, check %.2fs\n",
		tSetup.Sub(tStart).Seconds(), tWarm.Sub(tSetup).Seconds(), tMeasure.Sub(tWarm).Seconds(), tCheck.Sub(tMeasure).Seconds())
	fmt.Fprintf(out, "check: %d statements against the serial reference, %d mismatched; digest %016x, reference %016x\n",
		chk.statements, chk.mismatches, chk.digest, chk.refDigest)
	if chk.firstMismatch != "" {
		fmt.Fprintf(out, "check: first mismatch: %.300s\n", chk.firstMismatch)
	}
	if restartErr != nil {
		fmt.Fprintf(out, "check: %v\n", restartErr)
	} else if spec.transport == "durable" {
		fmt.Fprintf(out, "check: restart kept every acknowledged write (%d parcels updated)\n", len(chk.updates))
	}

	if cfg.trace {
		m := perLayer(r, tr.snapshot())
		for _, k := range sortedKeys(m) {
			res.Metrics[k] = metric{Value: m[k], Unit: perLayerUnit(k)}
			fmt.Fprintf(out, "%-28s %14.4f %s\n", k, m[k], perLayerUnit(k))
		}
		fmt.Fprintf(out, "unmeasured layers (no boundary or counter yet): %s\n", strings.Join(unmeasuredLayers, ", "))
		if cfg.traceDir != "" {
			path := filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s-seed%d.json", spec.name, cfg.seed))
			tf := traceFile{Provenance: prov, Unmeasured: unmeasuredLayers, Metrics: m, Spans: tr.snapshot(), Dropped: tr.dropped}
			if err := writeTrace(path, tf); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "trace: %d spans written to %s\n", len(tf.Spans), path)
		}
		return res, nil
	}

	e := endToEnd(r, median(setups), float64(ms.HeapAlloc)/(1<<20), float64(stored)/float64(userBytes(sys.ds)))
	for _, m := range e {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		fmt.Fprintf(out, "%-26s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	return res, nil
}

type namedMetric struct {
	name, unit string
	value      float64
	note       string
}

// endToEnd computes the user-visible metrics of an untraced run.
//
// ops_per_s is the number of clients times the median, over blocks of
// a fixed number of one client's consecutive ops, of the block's rate
// of ops that did not fail. A block spans whole rounds of the mix, so
// it does not depend on where a time window would cut a round, and a
// stall of the host slows a few blocks without moving the median.
func endToEnd(r *runner, setup, heapMB, diskRatio float64) []namedMetric {
	var wall time.Duration
	for _, s := range r.segments {
		if s.measured && !s.traced {
			wall += s.wall
		}
	}
	var lat, rates []float64
	attempted, failed := 0, 0
	block := r.sys.spec.block
	for _, c := range r.clients {
		var ms []opRec
		for _, o := range c.ops {
			if o.measured && !o.traced {
				ms = append(ms, o)
			}
		}
		for i := 0; i+block <= len(ms); i += block {
			okN := 0
			for _, o := range ms[i : i+block] {
				if !o.failed() {
					okN++
				}
			}
			first, last := ms[i], ms[i+block-1]
			rates = append(rates, float64(okN)/last.done.Sub(first.done.Add(-first.dur)).Seconds())
		}
		for _, o := range ms {
			attempted++
			if o.failed() {
				// Counted in ok_frac. Its statements stay out of the
				// percentiles: an op that fails stops early, so keeping
				// them would tie the mix of statement kinds, and with it
				// the median, to the failure rate.
				failed++
				continue
			}
			for _, s := range c.stmts[o.first:o.last] {
				lat = append(lat, float64(s.lat)/1e6)
			}
		}
	}
	p99, groups := groupedP99(lat)
	sort.Float64s(lat)
	ok := attempted - failed
	return []namedMetric{
		{"setup_s", "s", setup, "median of set-ups (generate, load, index, open)"},
		{"ops_per_s", "ops/s", float64(len(r.clients)) * medianOr(rates, 0),
			fmt.Sprintf("median of %d blocks of %d ops; %d of %d ops ok in %.2fs", len(rates), block, ok, attempted, wall.Seconds())},
		{"stmt_p50_ms", "ms", quantile(lat, 0.50), fmt.Sprintf("%d statements", len(lat))},
		{"stmt_p99_ms", "ms", p99, fmt.Sprintf("median of %d groups of at least %d statements", groups, minStmts)},
		{"ok_frac", "ratio", float64(ok) / float64(max(attempted, 1)), fmt.Sprintf("err_frac %.4f", float64(failed)/float64(max(attempted, 1)))},
		{"heap_mb", "MiB", heapMB, "live heap after GC"},
		{"disk_bytes_per_user_byte", "ratio", diskRatio, "stored bytes / loaded user bytes"},
	}
}

// groupedP99 cuts the statement latencies, in the order they were
// issued, into consecutive groups of minStmts (the last group takes the
// remainder) and returns the median of the groups' p99s, with the
// number of groups. Each group has at least ten statements beyond its
// p99, and a burst of slow statements in one stretch of the run (a
// collection cycle, a stall of the host) moves one group, not the
// reported value.
func groupedP99(lat []float64) (float64, int) {
	n := max(len(lat)/minStmts, 1)
	p99s := make([]float64, n)
	for g := range p99s {
		lo, hi := g*minStmts, (g+1)*minStmts
		if g == n-1 {
			hi = len(lat)
		}
		grp := append([]float64(nil), lat[lo:hi]...)
		sort.Float64s(grp)
		p99s[g] = quantile(grp, 0.99)
	}
	return median(p99s), n
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
