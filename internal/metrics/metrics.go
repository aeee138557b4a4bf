// Package metrics provides a small, dependency-free metrics registry with
// counters, gauges and latency histograms. It is used by every layer of the
// stack (brokers, clients, processing jobs) so that experiments can report
// rates, lag and latency distributions without external tooling.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// strictMonotone makes a negative Counter.Add panic instead of being
// dropped. It is on inside test binaries: a negative delta is always a
// programming error (a miscomputed byte count, a double-subtract), and a
// silent no-op would let it hide until it skews a committed benchmark.
var strictMonotone = testing.Testing()

// negativeAdds counts negative deltas handed to Counter.Add in production
// (where panicking would be worse than dropping). It should always be zero;
// NegativeAdds exposes it so health checks can assert that.
var negativeAdds atomic.Int64

// NegativeAdds reports how many negative deltas Counter.Add has dropped
// process-wide. Non-zero means some call site violates the monotone
// contract.
func NegativeAdds() int64 { return negativeAdds.Load() }

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter. Counters are monotone by contract: delta
// must be >= 0. A negative delta panics in test binaries and is counted in
// NegativeAdds (then dropped) in production; it is never applied.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		negativeAdds.Add(1)
		if strictMonotone {
			panic(fmt.Sprintf("metrics: Counter.Add(%d) violates the monotone contract", delta))
		}
		return
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of exponential buckets in a Histogram. Bucket i
// covers values in [2^i, 2^(i+1)) nanoseconds when used for durations, giving
// a range from 1ns to ~36 minutes with ≤2x relative error.
const histBuckets = 42

// Histogram records a distribution of int64 observations (typically
// nanoseconds) in exponential buckets. It is safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records a single observation. Values below 1 are clamped to 1.
func (h *Histogram) Observe(v int64) {
	if v < 1 {
		v = 1
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	b := bits64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// ObserveSince records the time elapsed since start in nanoseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// bits64 returns the index of the highest set bit (floor(log2(v))), 0 for 0.
func bits64(v uint64) int {
	return bits.Len64(v|1) - 1
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the maximum observation seen, or 0 if empty.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the arithmetic mean of observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(c)
}

// Quantile returns an upper-bound estimate for the q-th quantile
// (0 ≤ q ≤ 1). The estimate is the upper edge of the bucket containing the
// quantile, clamped to the observed maximum — a bucket's upper edge can
// exceed every value actually recorded in it, and an unclamped estimate
// would report P99 > Max (nonsense in committed BENCH_*.json) — so it errs
// high by at most 2x and never beyond Max.
func (h *Histogram) Quantile(q float64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	max := h.max.Load()
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			// Upper edge of bucket i, clamped to the observed max.
			upper := int64(1) << uint(i+1)
			if upper > max {
				upper = max
			}
			return upper
		}
	}
	return max
}

// Snapshot is a point-in-time copy of a histogram's summary statistics.
type Snapshot struct {
	Count int64
	Mean  float64
	P50   int64
	P95   int64
	P99   int64
	Max   int64
}

// Snapshot returns summary statistics for the histogram.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Registry is a named collection of metrics. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	families   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		families:   make(map[string]*family),
	}
}

// Counter returns the counter with the given name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Dump renders all metrics as sorted "name value" lines, suitable for logs
// and test assertions.
func (r *Registry) Dump() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	lines := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %d", name, g.Value()))
	}
	for name, h := range r.histograms {
		s := h.Snapshot()
		lines = append(lines, fmt.Sprintf("histogram %s count=%d mean=%.0f p50=%d p99=%d max=%d",
			name, s.Count, s.Mean, s.P50, s.P99, s.Max))
	}
	sort.Strings(lines)
	var out strings.Builder
	for _, l := range lines {
		out.WriteString(l)
		out.WriteByte('\n')
	}
	return out.String()
}
