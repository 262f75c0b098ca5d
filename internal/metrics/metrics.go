// Package metrics is the repo's dependency-free instrumentation layer:
// counters, gauges, and fixed-bucket histograms with label support, a
// registry that owns them, and a Prometheus text-format (v0.0.4)
// exposition writer — the observability seam the dsu layer's batch
// funnel, the stream pipeline, and the network front end all feed.
//
// # Design
//
// The hot path is lock-free: every instrument is a handful of
// sync/atomic words, so recording a batch costs a few uncontended atomic
// adds and never allocates. Locks exist only on the cold paths —
// registering a family, resolving a labelled child, and scraping — and a
// scrape never blocks a recording (readers use the same atomics).
//
// Labelled series come from Vec families (CounterVec, GaugeVec,
// HistogramVec): the family is registered once with its label names, and
// With(values...) resolves one child per label-value tuple. Resolution
// takes the family lock, so callers on hot paths resolve their children
// once — at tenant creation, stream open, server construction — and hold
// the pointers; that is the idiom every instrumented layer in this repo
// follows.
//
// # Disabled mode
//
// Every method is nil-safe: instruments resolved from a nil *Registry
// are nil, and recording on a nil instrument is a no-op that performs
// zero work and zero allocations. Layers therefore thread instrument
// pointers unconditionally and the "metrics off" configuration costs one
// predictable nil check per record — the property the root
// BenchmarkMetricsOverhead pins down.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// kind is the exposition TYPE of a family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing series. The nil Counter discards
// all recordings.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Negative n is a programming error; it is discarded to keep
// the series monotone rather than panicking on a hot path.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can go up and down. The nil Gauge discards all
// recordings.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: observation counts per
// upper-bound bucket, a running sum, and a total count, all atomic. The
// nil Histogram discards all observations.
type Histogram struct {
	// bounds are the inclusive bucket upper bounds, ascending; the
	// implicit +Inf bucket is counts[len(bounds)].
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	// sum holds math.Float64bits; updated by CAS (observations race only
	// under heavy contention, and the loop is lock-free).
	sum atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the scan is
	// branch-predictable; a binary search saves nothing at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n exponential bucket bounds: start, start*factor,
// start*factor², … — the shape latency histograms want. It panics on
// non-positive start, factor ≤ 1, or n < 1 (construction time, not hot
// path).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, n ≥ 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DefBuckets is the default latency bucket layout, in seconds: 100µs to
// ~52s in ×2 steps — wide enough for a microbatch and a multi-second
// mega-batch on one scale.
func DefBuckets() []float64 { return ExpBuckets(100e-6, 2, 20) }

// family is one registered metric name: TYPE, HELP, label names, and the
// children keyed by label-value tuple (the unlabelled instrument is the
// single child under the empty key).
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

// child is one series: its label values plus exactly one live instrument
// (by family kind).
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// labelKey joins label values unambiguously (values may contain any
// bytes, so a plain join could collide; length-prefix each value).
func labelKey(values []string) string {
	key := make([]byte, 0, 16*len(values))
	for _, v := range values {
		key = append(key, fmt.Sprintf("%d:", len(v))...)
		key = append(key, v...)
	}
	return string(key)
}

// get resolves (or creates) the child for the given label values.
func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: family %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.children[key]; ok {
		return ch
	}
	ch := &child{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		ch.c = &Counter{}
	case kindGauge:
		ch.g = &Gauge{}
	case kindHistogram:
		h := &Histogram{bounds: f.bounds}
		h.counts = make([]atomic.Int64, len(f.bounds)+1)
		ch.h = h
	}
	f.children[key] = ch
	return ch
}

// snapshot returns the children sorted by label values, for deterministic
// exposition.
func (f *family) snapshot() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*child, 0, len(f.children))
	for _, ch := range f.children {
		out = append(out, ch)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].values, out[j].values
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// Registry owns a set of metric families. The nil *Registry is the
// disabled mode: every constructor on it returns nil, and nil instruments
// discard recordings for free. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order; exposition sorts by name anyway
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// register creates (or fetches) a family, enforcing that a name keeps one
// TYPE and label arity for the registry's lifetime.
func (r *Registry) register(name, help string, k kind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: family %s re-registered with a different type or label set", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, labels: append([]string(nil), labels...), children: make(map[string]*child)}
	if k == kindHistogram {
		if len(bounds) == 0 {
			bounds = DefBuckets()
		}
		f.bounds = append([]float64(nil), bounds...)
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, nil, nil).get(nil).c
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, nil, nil).get(nil).g
}

// Histogram registers (or fetches) an unlabelled histogram. Empty bounds
// select DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, nil, bounds).get(nil).h
}

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// GaugeVec registers (or fetches) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// HistogramVec registers (or fetches) a labelled histogram family. Empty
// bounds select DefBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, labels, bounds)}
}

// CounterVec is a labelled counter family; With resolves one child
// series. The nil Vec resolves nil children.
type CounterVec struct{ f *family }

// With returns the child counter for the label values (nil on a nil Vec).
// Resolution locks the family: resolve once, hold the pointer.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(values).c
}

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With returns the child gauge for the label values (nil on a nil Vec).
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(values).g
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With returns the child histogram for the label values (nil on a nil
// Vec).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(values).h
}
