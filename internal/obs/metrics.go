package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Registry holds a process's metric families and renders them in
// Prometheus text exposition format (see prom.go). All methods are safe
// for concurrent use. Instrument registration panics on programmer
// errors (invalid names, re-registering a name with a different type or
// label set) — those are bugs, not runtime conditions.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Metric and label names follow the Prometheus data model.
var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric with a fixed type and label schema; its
// children are the per-label-value time series.
type family struct {
	name       string
	help       string
	kind       string
	labelNames []string
	buckets    []float64 // histogram kind only (upper bounds, ascending)

	mu       sync.Mutex
	children map[string]*child
}

// child is one time series. Counters and gauges keep val (or fn for
// callback-backed series read at collect time); histograms keep
// non-cumulative bucket counts plus sum and count, all mutated and read
// under mu so a snapshot is always internally consistent.
type child struct {
	labelValues []string

	mu     sync.Mutex
	val    float64
	fn     func() float64
	counts []uint64
	sum    float64
	count  uint64
}

// childKey joins label values unambiguously (label values may contain
// any byte; \xff never starts a UTF-8 rune, making collisions
// impossible for distinct value tuples).
func childKey(values []string) string {
	return strings.Join(values, "\xff")
}

func (r *Registry) getFamily(name, help, kind string, labelNames []string, buckets []float64) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !nameRe.MatchString(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			labelNames: append([]string(nil), labelNames...),
			buckets:    append([]float64(nil), buckets...),
			children:   make(map[string]*child),
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labelNames) != len(labelNames) {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different type or label set", name))
	}
	for i, l := range labelNames {
		if f.labelNames[i] != l {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different label set", name))
		}
	}
	return f
}

func (f *family) getChild(labelValues []string) *child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := childKey(labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), labelValues...)}
		if f.kind == kindHistogram {
			c.counts = make([]uint64, len(f.buckets)+1)
		}
		f.children[key] = c
	}
	return c
}

// snapshotChildren returns the children in deterministic (sorted key)
// order for exposition.
func (f *family) snapshotChildren() []*child {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, len(keys))
	for i, k := range keys {
		out[i] = f.children[k]
	}
	f.mu.Unlock()
	return out
}

// value reads a counter/gauge child consistently (evaluating fn for
// callback-backed series).
func (c *child) value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fn != nil {
		return c.fn()
	}
	return c.val
}

// ---- counters ----

// Counter is a monotonically increasing series.
type Counter struct{ c *child }

// Inc adds 1.
func (c Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are a programmer error and are dropped).
func (c Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.c.mu.Lock()
	c.c.val += v
	c.c.mu.Unlock()
}

// Value returns the current count.
func (c Counter) Value() float64 { return c.c.value() }

// NewCounter registers (or finds) an unlabelled counter.
func (r *Registry) NewCounter(name, help string) Counter {
	f := r.getFamily(name, help, kindCounter, nil, nil)
	return Counter{f.getChild(nil)}
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// NewCounterVec registers (or finds) a counter family with labels.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.getFamily(name, help, kindCounter, labelNames, nil)}
}

// With returns the child counter for the given label values (created on
// first use).
func (v *CounterVec) With(labelValues ...string) Counter {
	return Counter{v.f.getChild(labelValues)}
}

// NewCounterFunc registers a callback-backed counter series under the
// given label values (labelNames may be empty): the callback is read at
// collect time, so a component can export its own internal counter
// without double bookkeeping. The callback must be monotone and
// concurrency-safe.
func (r *Registry) NewCounterFunc(name, help string, labelNames, labelValues []string, fn func() float64) {
	c := r.getFamily(name, help, kindCounter, labelNames, nil).getChild(labelValues)
	c.mu.Lock()
	c.fn = fn
	c.mu.Unlock()
}

// ---- gauges ----

// Gauge is a series that can go up and down.
type Gauge struct{ c *child }

// Set stores v.
func (g Gauge) Set(v float64) {
	g.c.mu.Lock()
	g.c.val = v
	g.c.mu.Unlock()
}

// Add adds v (negative to subtract).
func (g Gauge) Add(v float64) {
	g.c.mu.Lock()
	g.c.val += v
	g.c.mu.Unlock()
}

// Inc adds 1.
func (g Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g Gauge) Value() float64 { return g.c.value() }

// NewGauge registers (or finds) an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) Gauge {
	f := r.getFamily(name, help, kindGauge, nil, nil)
	return Gauge{f.getChild(nil)}
}

// NewGaugeFunc registers a callback-backed gauge series under the given
// label values (labelNames may be empty): the callback is read at
// collect time. It must be concurrency-safe.
func (r *Registry) NewGaugeFunc(name, help string, labelNames, labelValues []string, fn func() float64) {
	c := r.getFamily(name, help, kindGauge, labelNames, nil).getChild(labelValues)
	c.mu.Lock()
	c.fn = fn
	c.mu.Unlock()
}

// ---- histograms ----

// DefBuckets is the default latency bucket ladder (seconds),
// exponential from 1 ms to 10 s; an implicit +Inf bucket catches the
// rest.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a bucketed distribution series. Observe and Snapshot
// synchronize on one mutex, so a snapshot's buckets, sum and count are
// always mutually consistent — never a count that disagrees with the
// bucket totals under concurrent load.
type Histogram struct {
	f *family
	c *child
}

// Observe records one value.
func (h Histogram) Observe(v float64) {
	// sort.SearchFloat64s returns the first bucket whose upper bound is
	// >= v under the le (less-or-equal) convention.
	i := sort.SearchFloat64s(h.f.buckets, v)
	h.c.mu.Lock()
	h.c.counts[i]++
	h.c.sum += v
	h.c.count++
	h.c.mu.Unlock()
}

// HistogramSnapshot is one consistent view of a histogram: cumulative
// bucket counts (Prometheus le convention, excluding +Inf whose
// cumulative count equals Count), the sum of observations and their
// number. Invariant: Buckets is non-decreasing and Buckets[len-1] <=
// Count.
type HistogramSnapshot struct {
	UpperBounds []float64 // the bucket ladder (shared, do not mutate)
	Buckets     []uint64  // cumulative counts per upper bound
	Sum         float64
	Count       uint64
}

// Snapshot returns a consistent snapshot (all fields read under the
// same lock Observe writes under).
func (h Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{UpperBounds: h.f.buckets}
	h.c.mu.Lock()
	s.Sum = h.c.sum
	s.Count = h.c.count
	s.Buckets = make([]uint64, len(h.f.buckets))
	cum := uint64(0)
	for i := range h.f.buckets {
		cum += h.c.counts[i]
		s.Buckets[i] = cum
	}
	h.c.mu.Unlock()
	return s
}

// NewHistogram registers (or finds) an unlabelled histogram with the
// given bucket upper bounds (nil selects DefBuckets). Bounds must be
// strictly ascending.
func (r *Registry) NewHistogram(name, help string, buckets []float64) Histogram {
	f := r.getFamily(name, help, kindHistogram, nil, checkBuckets(name, buckets))
	return Histogram{f, f.getChild(nil)}
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// NewHistogramVec registers (or finds) a histogram family with labels.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.getFamily(name, help, kindHistogram, labelNames, checkBuckets(name, buckets))}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) Histogram {
	return Histogram{v.f, v.f.getChild(labelValues)}
}

func checkBuckets(name string, buckets []float64) []float64 {
	if buckets == nil {
		return DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
		}
	}
	return buckets
}
