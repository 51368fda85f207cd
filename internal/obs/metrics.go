package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ocpmesh/internal/stats"
)

// Registry holds named metrics. Metric lookups create on first use, so
// instrumented code never registers anything up front. All methods are
// safe for concurrent use; counters and gauges update with atomics,
// histograms under a per-histogram mutex.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	run        *Run
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. The name
// is canonicalized with SanitizeMetricName so every registered metric is
// valid in the Prometheus exposition format (see prom.go); names that
// sanitize identically share one counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	name = SanitizeMetricName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Names are
// canonicalized like Counter's.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	name = SanitizeMetricName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (nil bounds = DefBuckets). Bounds
// passed on later lookups of an existing histogram are ignored. Names
// are canonicalized like Counter's.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	name = SanitizeMetricName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Remove unregisters every metric with the given (canonicalized) name,
// so per-entity families such as per-tenant counters do not outlive
// their entity. Handles already held keep working but are no longer
// reported; a later lookup of the name creates a fresh metric.
func (r *Registry) Remove(name string) {
	if r == nil {
		return
	}
	name = SanitizeMetricName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.counters, name)
	delete(r.gauges, name)
	delete(r.histograms, name)
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set records the current value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last set value. Nil-safe.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets is the default histogram bucket layout: 20 exponential
// upper bounds from 1 to ~5e5, wide enough for hop counts, rounds,
// cycles, and nanosecond timings alike once paired with the overflow
// bucket.
var DefBuckets = ExpBuckets(1, 2, 20)

// NSBuckets is the bucket layout for nanosecond durations: exponential
// upper bounds from 256 ns to roughly 75 minutes.
var NSBuckets = ExpBuckets(256, 4, 18)

// ExpBuckets returns n exponentially growing bucket upper bounds
// start, start*factor, start*factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n linear bucket upper bounds start, start+width,
// start+2*width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Histogram is a fixed-bucket histogram with count/sum/min/max and
// bounded-memory P² estimates of the 50th, 90th and 99th percentiles.
type Histogram struct {
	mu       sync.Mutex
	bounds   []float64 // sorted upper bounds; counts has one extra overflow cell
	counts   []uint64
	count    uint64
	sum      float64
	min, max float64
	p50      *stats.P2Quantile
	p90      *stats.P2Quantile
	p99      *stats.P2Quantile
}

// NewHistogram returns a histogram with the given bucket upper bounds
// (nil = DefBuckets). Bounds must be sorted ascending.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
		p50:    stats.MustP2Quantile(0.5),
		p90:    stats.MustP2Quantile(0.9),
		p99:    stats.MustP2Quantile(0.99),
	}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.p50.Add(v)
	h.p90.Add(v)
	h.p99.Add(v)
	h.mu.Unlock()
}

// Count returns the number of observations. Nil-safe.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile returns the q-quantile estimated by linear interpolation
// inside the fixed buckets (0 with no observations). The P² estimates in
// the snapshot are usually tighter; Quantile answers arbitrary q.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	cum := 0.0
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lo := h.min
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if lo > hi {
			lo = hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return h.max
}

// HistogramSnapshot is the exported state of a histogram.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Mean   float64   `json:"mean"`
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		P50: h.p50.Value(), P90: h.p90.Value(), P99: h.p99.Value(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
	}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	return s
}

// Snapshot is a point-in-time export of a registry.
type Snapshot struct {
	Run        *Run                         `json:"run,omitempty"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot exports every metric. Nil-safe: a nil registry exports an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Run = r.run
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ASCII renders a sorted, human-readable summary of the snapshot.
func (s Snapshot) ASCII() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "counter    %-32s %12d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(&b, "gauge      %-32s %12g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "histogram  %-32s n=%d mean=%.4g min=%g max=%g p50=%.4g p90=%.4g p99=%.4g\n",
			name, h.Count, h.Mean, h.Min, h.Max, h.P50, h.P90, h.P99)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
