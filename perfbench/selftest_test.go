package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// shortRun runs a fixed number of ops per segment, so two runs with the
// same seed issue exactly the same statements.
func shortRun(t *testing.T, workload string, trace bool, ops int, o setupOptions) map[string]metric {
	t.Helper()
	o.baseDir = t.TempDir()
	cfg := config{workload: workload, seed: 7, seconds: 1, trace: trace, setups: 1, ops: ops, opts: o}
	res, err := runWorkload(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%s: output check failed", workload)
	}
	return res.Metrics
}

// TestEveryMetricReported checks the command's contract on each
// workload: the untraced run reports every end-to-end metric of
// BENCHMARK.json, in its unit, and nothing else; the traced run does
// the same for the per-layer metrics.
func TestEveryMetricReported(t *testing.T) {
	if testing.Short() {
		t.Skip("loads every workload")
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			m := shortRun(t, w.name, trace, 2*len(w.mix), setupOptions{})
			list := bf.EndToEnd
			if trace {
				list = bf.PerLayer
			}
			want := make(map[string]string)
			for _, x := range list {
				want[x.Name] = x.Unit
			}
			for name, unit := range want {
				v, ok := m[name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != unit {
					t.Errorf("%s trace=%v: metric %s missing, not a number or not in %s (%+v)", w.name, trace, name, unit, v)
				}
			}
			for name := range m {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not in BENCHMARK.json", w.name, trace, name)
				}
			}
		}
	}
}

// attribution runs the same traced op sequence without and with an
// injected delay and returns the per-op self time each layer gained.
func attribution(t *testing.T, workload string, ops int, base, injected setupOptions) (gain map[string]float64, a, b map[string]metric) {
	t.Helper()
	a = shortRun(t, workload, true, ops, base)
	b = shortRun(t, workload, true, ops, injected)
	gain = make(map[string]float64)
	for _, l := range layers {
		gain[l] = b[l+".self_us"].Value - a[l+".self_us"].Value
	}
	return gain, a, b
}

// checkOnly asserts that the added time landed in one layer: it gained
// at least half the injected time and every other layer gained or lost
// less than a fifth of what it gained.
func checkOnly(t *testing.T, layer string, gain map[string]float64, injectedUs float64) {
	t.Helper()
	if gain[layer] < injectedUs/2 {
		t.Errorf("%s self time grew %.0fµs per op, want at least %.0fµs (half the injected %.0fµs)",
			layer, gain[layer], injectedUs/2, injectedUs)
	}
	for l, g := range gain {
		if l != layer && math.Abs(g) > gain[layer]/5 {
			t.Errorf("layer %s moved %.0fµs per op while %s gained %.0fµs", l, g, layer, gain[layer])
		}
	}
	t.Logf("self-time gain per op: %v (injected %.0fµs)", gain, injectedUs)
}

// TestReadDelayAttributedToStorage injects a fixed delay into the page
// store's ReadPage. The pool is shrunk so that pages are read, and the
// engine runs serially so that the same statements read the same pages
// in both runs.
func TestReadDelayAttributedToStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a workload twice")
	}
	const delay = 10 * time.Millisecond
	base := setupOptions{poolPages: 64, parallelism: 1}
	injected := base
	injected.readDelay = delay
	gain, a, b := attribution(t, "overlay", 17, base, injected)
	reads := a["storage.page_reads"].Value
	if reads == 0 || reads != b["storage.page_reads"].Value {
		t.Fatalf("page reads per op: %v without delay, %v with; want equal and non-zero", reads, b["storage.page_reads"].Value)
	}
	checkOnly(t, "storage", gain, reads*float64(delay.Microseconds()))
}

// TestShardDelayAttributedToCluster injects a fixed delay into shard 0's
// connector, between the cluster.shard span and the engine call. Every
// scatter op sends shard 0 at least one statement, so each op gains at
// least one delay.
func TestShardDelayAttributedToCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a workload twice")
	}
	const delay = 20 * time.Millisecond
	gain, _, _ := attribution(t, "scatter", 6, setupOptions{}, setupOptions{shardDelay: delay})
	checkOnly(t, "cluster", gain, float64(delay.Microseconds()))
}
