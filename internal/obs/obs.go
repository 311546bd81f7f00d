// Package obs is the fleet's dependency-free observability kit: an
// atomic metrics registry (counters, gauges, lock-free log-scale
// histograms) with Prometheus v0.0.4 text exposition, HTTP middleware
// that mints X-Allarm-Request-Id correlation ids and emits structured
// request logs with per-route latency histograms, and a per-sweep
// lifecycle timeline recorder. Everything here is stdlib-only and
// allocation-light: recording a counter or histogram sample is a
// couple of atomic adds, so instrumentation can sit at job and HTTP
// boundaries without touching the simulator hot path.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A Label is one name="value" pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically increasing uint64. Its method set mirrors
// atomic.Uint64 so existing metric structs can swap their fields to
// *Counter without touching call sites.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Histogram is a lock-free histogram over raw uint64 samples
// (nanoseconds, bytes, ...). Bucket upper bounds are fixed at
// construction; recording a sample is one binary search over a few
// dozen bounds plus three atomic adds. Scale converts raw sample units
// to the exposed unit at exposition time (1e-9 renders nanosecond
// samples as seconds), so the record path never touches floats.
type Histogram struct {
	bounds []uint64        // strictly increasing upper bounds (raw units)
	counts []atomic.Uint64 // len(bounds)+1; last bucket is +Inf
	sum    atomic.Uint64   // total of raw samples
	scale  float64
}

// Observe records one raw sample.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed time since t0 as nanoseconds.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(uint64(time.Since(t0).Nanoseconds()))
}

// ExpBuckets returns doubling bucket bounds from lo until hi is
// covered, for Histogram construction: lo, 2lo, 4lo, ... >= hi.
func ExpBuckets(lo, hi uint64) []uint64 {
	if lo == 0 {
		lo = 1
	}
	var out []uint64
	for b := lo; ; b *= 2 {
		out = append(out, b)
		if b >= hi || b > 1<<62 {
			return out
		}
	}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name   string
	help   string
	labels []Label
	kind   metricKind
	c      *Counter
	fn     func() float64
	h      *Histogram
}

// Registry holds metric series in registration order and renders them
// as Prometheus text exposition. Registration is rare and mutex-
// guarded; reads on the record path go straight to the returned
// Counter/Histogram and never touch the registry lock.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	seen    map[string]metricKind // family name -> kind, for conflict checks
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]metricKind)}
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k, ok := r.seen[m.name]; ok && k != m.kind {
		panic(fmt.Sprintf("obs: metric %q registered as two different kinds", m.name))
	}
	r.seen[m.name] = m.kind
	r.metrics = append(r.metrics, m)
}

// Counter registers a counter series and returns it. The name should
// follow Prometheus conventions (snake_case, `_total` suffix).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(&metric{name: name, help: help, labels: labels, kind: kindCounter, c: c})
	return c
}

// Gauge registers a gauge series whose value is computed at exposition
// time.
func (r *Registry) Gauge(name, help string, fn func() float64, labels ...Label) {
	r.add(&metric{name: name, help: help, labels: labels, kind: kindGauge, fn: fn})
}

// Histogram registers a histogram series over raw uint64 samples with
// the given bucket upper bounds (raw units) and returns it. scale
// converts raw units to the exposed unit (use 1e-9 for nanosecond
// samples exposed as seconds, 1 for bytes).
func (r *Registry) Histogram(name, help string, scale float64, bounds []uint64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	h := &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
		scale:  scale,
	}
	r.add(&metric{name: name, help: help, labels: labels, kind: kindHistogram, h: h})
	return h
}
