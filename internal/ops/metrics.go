package ops

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair on a metric sample.
type Label struct {
	Name, Value string
}

// sample is one exposition line: an optional family-name suffix
// ("_bucket", "_sum", ...), labels, and a value.
type sample struct {
	suffix string
	labels []Label
	value  float64
}

// family is one metric family: a # HELP line, a # TYPE line, and the
// samples its collector emits at scrape time.
type family struct {
	name, help, typ string
	collect         func(emit func(s sample))
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format (v0.0.4). Families registered through
// Counter/CounterVec/Gauge/GaugeFunc/Histogram carry their own state;
// Collect registers a family whose samples are computed at scrape time
// — the shape used to export another subsystem's counters (service
// stats, cache tiers, replica breakers) without copying them on every
// update. All methods are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	seen map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]bool)}
}

// register appends a family, panicking on a duplicate name: two
// families with one name would emit an exposition scrapers reject, and
// registration happens at wiring time where a panic is a build error.
func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[f.name] {
		panic(fmt.Sprintf("ops: metric %q registered twice", f.name))
	}
	r.seen[f.name] = true
	r.fams = append(r.fams, f)
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers and returns a new counter family with one
// unlabeled sample.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", collect: func(emit func(sample)) {
		emit(sample{value: float64(c.v.Load())})
	}})
	return c
}

// CounterVec is a counter family partitioned by one fixed label set.
type CounterVec struct {
	labelNames []string
	mu         sync.RWMutex
	children   map[string]*vecChild
}

type vecChild struct {
	labels []Label
	c      Counter
}

// With returns (creating on first use) the counter for the given label
// values, which must match the registered label names in count and
// order.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("ops: CounterVec got %d label values for %d labels", len(values), len(v.labelNames)))
	}
	key := strings.Join(values, "\x00")
	v.mu.RLock()
	ch := v.children[key]
	v.mu.RUnlock()
	if ch != nil {
		return &ch.c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if ch = v.children[key]; ch == nil {
		labels := make([]Label, len(values))
		for i, val := range values {
			labels[i] = Label{v.labelNames[i], val}
		}
		ch = &vecChild{labels: labels}
		v.children[key] = ch
	}
	return &ch.c
}

// CounterVec registers and returns a labeled counter family. Children
// appear in the exposition once touched via With.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	v := &CounterVec{labelNames: labelNames, children: make(map[string]*vecChild)}
	r.register(&family{name: name, help: help, typ: "counter", collect: func(emit func(sample)) {
		v.mu.RLock()
		keys := make([]string, 0, len(v.children))
		for k := range v.children {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic scrape order
		for _, k := range keys {
			ch := v.children[k]
			emit(sample{labels: ch.labels, value: float64(ch.c.Value())})
		}
		v.mu.RUnlock()
	}})
	return v
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge registers and returns a new integer gauge family.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: "gauge", collect: func(emit func(sample)) {
		emit(sample{value: float64(g.v.Load())})
	}})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", collect: func(emit func(sample)) {
		emit(sample{value: f()})
	}})
}

// Collect registers a family (typ "counter" or "gauge") whose labeled
// samples are produced at scrape time by f — the escape hatch for
// exporting state owned elsewhere (per-replica breaker trackers, cache
// tiers) without mirroring it into registry objects.
func (r *Registry) Collect(name, help, typ string, f func(emit func(labels []Label, value float64))) {
	r.register(&family{name: name, help: help, typ: typ, collect: func(emit func(sample)) {
		f(func(labels []Label, value float64) {
			emit(sample{labels: labels, value: value})
		})
	}})
}

// Histogram is a cumulative histogram of float observations (for
// latencies: seconds, per Prometheus convention).
type Histogram struct {
	bounds []float64       // upper bounds, strictly increasing, no +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Uint64
	sumBit atomic.Uint64 // float64 bits of the observation sum
}

// NewHistogram builds an unregistered histogram with the given upper
// bounds (strictly increasing; +Inf is implicit). Useful for tests;
// production code registers via Registry.Histogram.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("ops: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBit.Load()
		if h.sumBit.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBit.Load()) }

// Histogram registers and returns a histogram family with the given
// bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.register(&family{name: name, help: help, typ: "histogram", collect: func(emit func(sample)) {
		emitHistogram(emit, h.bounds, func(i int) uint64 { return h.counts[i].Load() }, h.Sum())
	}})
	return h
}

// HistogramFrom registers a histogram family whose per-bucket counts
// and sum are read at scrape time — the exporter for a histogram whose
// state is kept by another subsystem (the service's latency buckets).
// counts must return len(bounds)+1 non-cumulative bucket counts (last
// is overflow); sumSeconds the observation sum.
func (r *Registry) HistogramFrom(name, help string, bounds []float64, counts func() []uint64, sum func() float64) {
	bounds = append([]float64(nil), bounds...)
	r.register(&family{name: name, help: help, typ: "histogram", collect: func(emit func(sample)) {
		c := counts()
		if len(c) != len(bounds)+1 {
			return // mis-wired source; emit nothing rather than a malformed family
		}
		emitHistogram(emit, bounds, func(i int) uint64 { return c[i] }, sum())
	}})
}

// emitHistogram renders cumulative _bucket samples plus _sum and
// _count from non-cumulative per-bucket counts.
func emitHistogram(emit func(sample), bounds []float64, count func(int) uint64, sum float64) {
	var cum uint64
	for i, b := range bounds {
		cum += count(i)
		emit(sample{suffix: "_bucket", labels: []Label{{"le", formatFloat(b)}}, value: float64(cum)})
	}
	cum += count(len(bounds))
	emit(sample{suffix: "_bucket", labels: []Label{{"le", "+Inf"}}, value: float64(cum)})
	emit(sample{suffix: "_sum", value: sum})
	emit(sample{suffix: "_count", value: float64(cum)})
}

// WriteText renders every family in the Prometheus text exposition
// format, families in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		f.collect(func(s sample) {
			b.WriteString(f.name)
			b.WriteString(s.suffix)
			if len(s.labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Name)
					b.WriteString(`="`)
					b.WriteString(escapeLabel(l.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.value))
			b.WriteByte('\n')
		})
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the exposition over HTTP — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// formatFloat renders a value the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// DefBuckets are general-purpose request-latency bucket bounds in
// seconds: 1 µs to 10 s, roughly ×2.5 per step — wide enough to span a
// cached direct lookup and a beyond-horizon scan in one family.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}
