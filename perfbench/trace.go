package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a boundary the benchmark owns. Times
// are nanoseconds since the tracer's epoch; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the spans kept in memory; a traced run stops recording
// (and says so in its trace file) rather than growing without bound.
const maxSpans = 1 << 20

// tracer keeps spans in memory while it is on. Spans are written out
// once, when the run ends. The current op and statement are published
// so that boundaries reached from other goroutines (shard calls, page
// reads inside the engine) can name their parent; this is exact only
// for a single client, which is why the two-client workload is counted
// per run rather than per op.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	nextID  atomic.Int64
	curOp   atomic.Int64
	curStmt atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is an open span; end records it.
type active struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span under parent, or returns nil when tracing is off.
func (t *tracer) begin(name string, parent int64) *active {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &active{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
}

// spanID is the span's id, 0 for a nil (untraced) span.
func (a *active) spanID() int64 {
	if a == nil {
		return 0
	}
	return a.id
}

// end closes the span and returns its duration (0 when untraced).
func (a *active) end() time.Duration {
	if a == nil {
		return 0
	}
	now := time.Now()
	t := a.t
	s := span{
		ID: a.id, Parent: a.parent, Op: t.curOp.Load(), Name: a.name,
		Start: int64(a.start.Sub(t.epoch)), End: int64(now.Sub(t.epoch)),
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return now.Sub(a.start)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerOf maps a span name to the module it times.
func layerOf(name string) string {
	switch name {
	case "op":
		return "core"
	case "stmt":
		return "driver"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layers are the modules with spans; the traced run reports each one's
// self time per op.
var layers = []string{"core", "driver", "wire", "sql", "engine", "storage", "cluster"}

// unmeasuredLayers have neither an outside boundary nor a counter yet.
var unmeasuredLayers = []string{"index", "geom", "overlay"}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	flush := func() {
		s, e := max(curS, lo), min(curE, hi)
		if e > s {
			total += e - s
		}
	}
	for _, x := range iv {
		if curE < 0 || x[0] > curE {
			if curE >= 0 {
				flush()
			}
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	flush()
	return total
}

// traceFile is the JSON document a traced run writes.
type traceFile struct {
	Provenance provenance         `json:"provenance"`
	Unmeasured []string           `json:"unmeasured_layers"`
	Metrics    map[string]float64 `json:"metrics"`
	Dropped    int                `json:"dropped_spans"`
	Spans      []span             `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
