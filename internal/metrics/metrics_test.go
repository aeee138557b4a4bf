package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(0) // zero is a legal no-op
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

// TestCounterNegativeAddPanicsInTests pins the monotone contract: inside a
// test binary a negative delta must fail loudly (panic) rather than be
// silently dropped, and it must never be applied to the counter.
func TestCounterNegativeAddPanicsInTests(t *testing.T) {
	var c Counter
	c.Add(5)
	before := NegativeAdds()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Add(-3) did not panic in a test binary")
			}
		}()
		c.Add(-3)
	}()
	if got := c.Value(); got != 5 {
		t.Fatalf("negative delta was applied: Value() = %d, want 5", got)
	}
	if got := NegativeAdds(); got != before+1 {
		t.Fatalf("NegativeAdds() = %d, want %d", got, before+1)
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("Value() = %d, want 6", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("Value() = %d, want %d", got, workers*each)
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("Count() = %d, want 1000", got)
	}
	if got := h.Max(); got != 1000 {
		t.Fatalf("Max() = %d, want 1000", got)
	}
	if got := h.Mean(); got != 500.5 {
		t.Fatalf("Mean() = %v, want 500.5", got)
	}
	// Exponential buckets err high by at most 2x.
	p50 := h.Quantile(0.5)
	if p50 < 500 || p50 > 1024 {
		t.Fatalf("P50 = %d, want within [500, 1024]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 990 || p99 > 2048 {
		t.Fatalf("P99 = %d, want within [990, 2048]", p99)
	}
}

// TestHistogramQuantileClampedToMax is the regression test for the
// P99 > Max bug: with a single observation every quantile lands in one
// bucket whose upper edge (1<<(i+1)) exceeds the observation, and the
// snapshot used to report that edge. All quantiles must now equal the one
// observed value.
func TestHistogramQuantileClampedToMax(t *testing.T) {
	var h Histogram
	h.Observe(1000) // bucket upper edge is 1024
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 1000 {
			t.Fatalf("Quantile(%v) = %d, want 1000 (the observed max)", q, got)
		}
	}
	s := h.Snapshot()
	if s.P50 > s.Max || s.P95 > s.Max || s.P99 > s.Max {
		t.Fatalf("snapshot quantiles exceed max: %+v", s)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram should report zeros, got %+v", h.Snapshot())
	}
}

func TestHistogramClampsLow(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	h.Observe(0)
	if got := h.Count(); got != 2 {
		t.Fatalf("Count() = %d, want 2", got)
	}
	if got := h.Sum(); got != 2 { // both clamped to 1
		t.Fatalf("Sum() = %d, want 2", got)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	h.Observe(100)
	if got := h.Quantile(-0.5); got == 0 {
		t.Fatalf("Quantile(-0.5) should clamp to 0th percentile and find the value, got 0")
	}
	if got := h.Quantile(1.5); got == 0 {
		t.Fatalf("Quantile(1.5) should clamp to max, got 0")
	}
}

// Observing into a LocalHistogram and merging it leaves a Histogram exactly
// as observing each value into it would, onto earlier observations too.
func TestLocalHistogramMergeMatchesObserve(t *testing.T) {
	vals := []int64{-5, 0, 1, 2, 3, 1000, 1 << 40, math.MaxInt64, 77}
	var direct, merged Histogram
	direct.Observe(9)
	merged.Observe(9)
	var l LocalHistogram
	merged.Merge(&l) // empty: a no-op
	for _, v := range vals {
		direct.Observe(v)
		l.Observe(v)
	}
	merged.Merge(&l)
	if direct.Count() != merged.Count() || direct.Sum() != merged.Sum() || direct.Max() != merged.Max() {
		t.Fatalf("merged count/sum/max %d/%d/%d, observed %d/%d/%d",
			merged.Count(), merged.Sum(), merged.Max(), direct.Count(), direct.Sum(), direct.Max())
	}
	for i := range direct.buckets {
		if a, b := direct.buckets[i].Load(), merged.buckets[i].Load(); a != b {
			t.Fatalf("bucket %d: merged %d, observed %d", i, b, a)
		}
	}
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c1.Inc()
	if got := r.Counter("x").Value(); got != 1 {
		t.Fatalf("registry returned a different counter: value %d", got)
	}
	g := r.Gauge("y")
	g.Set(3)
	if got := r.Gauge("y").Value(); got != 3 {
		t.Fatalf("registry returned a different gauge: value %d", got)
	}
	h := r.Histogram("z")
	h.Observe(7)
	if got := r.Histogram("z").Count(); got != 1 {
		t.Fatalf("registry returned a different histogram: count %d", got)
	}
}

func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(2)
	r.Gauge("b.lag").Set(-1)
	r.Histogram("c.latency").Observe(10)
	out := r.Dump()
	for _, want := range []string{"counter a.count 2", "gauge b.lag -1", "histogram c.latency count=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Dump() missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotFields(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(int64(i + 1))
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Max != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
}

// The histogram's bucket index is floor(log2(v)): pinned at each power of
// two and its neighbours against the shift loop it replaced.
func TestBits64MatchesShiftLoop(t *testing.T) {
	loop := func(v uint64) int {
		n := 0
		for v > 1 {
			v >>= 1
			n++
		}
		return n
	}
	vs := []uint64{0, 1, math.MaxInt64, math.MaxUint64}
	for k := 1; k < 64; k++ {
		vs = append(vs, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, v := range vs {
		if got, want := bits64(v), loop(v); got != want {
			t.Errorf("bits64(%d) = %d, want %d", v, got, want)
		}
	}
}
