package metrics

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestHistogramBucketBoundaries pins the documented bucket contract: bucket i
// covers [2^i, 2^(i+1)), so every power of two lands in its own bucket and
// ±1 neighbours land one bucket below/same.
func TestHistogramBucketBoundaries(t *testing.T) {
	for i := 1; i < histBuckets; i++ {
		edge := int64(1) << uint(i)
		cases := []struct {
			v    int64
			want int
		}{
			{edge - 1, i - 1}, // just below the edge: previous bucket
			{edge, i},         // lower edge: inclusive
			{edge + 1, i},     // just above: same bucket
		}
		for _, c := range cases {
			var h Histogram
			h.Observe(c.v)
			got := -1
			for b := 0; b < histBuckets; b++ {
				if h.buckets[b].Load() != 0 {
					got = b
					break
				}
			}
			if got != c.want {
				t.Fatalf("Observe(%d): landed in bucket %d, want %d", c.v, got, c.want)
			}
		}
	}
	// Values past the last edge clamp into the final bucket.
	var h Histogram
	h.Observe(math.MaxInt64)
	if h.buckets[histBuckets-1].Load() != 1 {
		t.Fatalf("MaxInt64 observation did not clamp to final bucket")
	}
}

// parseCumBuckets reconstructs a histogram's cumulative buckets, sum and
// count from Prometheus exposition text — the same parse a scraper would do.
func parseCumBuckets(t *testing.T, text, name string) (buckets []CumBucket, sum, count int64) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, name+"_bucket{"):
			rest := strings.TrimPrefix(line, name+"_bucket{le=\"")
			leStr, valStr, ok := strings.Cut(rest, "\"} ")
			if !ok {
				t.Fatalf("malformed bucket line %q", line)
			}
			v, err := strconv.ParseInt(valStr, 10, 64)
			if err != nil {
				t.Fatalf("bad bucket count in %q: %v", line, err)
			}
			upper := int64(math.MaxInt64)
			if leStr != "+Inf" {
				if upper, err = strconv.ParseInt(leStr, 10, 64); err != nil {
					t.Fatalf("bad le in %q: %v", line, err)
				}
			}
			buckets = append(buckets, CumBucket{Upper: upper, Count: v})
		case strings.HasPrefix(line, name+"_sum "):
			sum, _ = strconv.ParseInt(strings.TrimPrefix(line, name+"_sum "), 10, 64)
		case strings.HasPrefix(line, name+"_count "):
			count, _ = strconv.ParseInt(strings.TrimPrefix(line, name+"_count "), 10, 64)
		}
	}
	return buckets, sum, count
}

// TestQuantileRoundTripsExposition feeds several distributions through the
// Prometheus writer, re-parses the cumulative buckets, and checks that the
// quantile recomputed from exposition output matches Histogram.Quantile
// (which additionally clamps to the observed max).
func TestQuantileRoundTripsExposition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	distros := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(1 << 20) },
		"exp":       func() int64 { return int64(1) << uint(rng.Intn(40)) },
		"constant":  func() int64 { return 4096 },
		"two-point": func() int64 { return []int64{10, 1e9}[rng.Intn(2)] },
	}
	for name, gen := range distros {
		r := NewRegistry()
		h := r.Histogram("rt." + name)
		var sum int64
		for i := 0; i < 5000; i++ {
			v := gen()
			sum += v
			h.Observe(v)
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		buckets, gotSum, gotCount := parseCumBuckets(t, b.String(), SanitizeName("rt."+name))
		if gotCount != 5000 || gotSum != sum {
			t.Fatalf("%s: exposition count/sum = %d/%d, want 5000/%d", name, gotCount, gotSum, sum)
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
			want := h.Quantile(q)
			got := QuantileFromCumulative(buckets, q)
			if got > h.Max() {
				got = h.Max() // Quantile's max clamp, applied scraper-side
			}
			if got != want {
				t.Fatalf("%s: q=%v: exposition round-trip = %d, Quantile = %d", name, q, got, want)
			}
		}
	}
}

func TestCounterFamily(t *testing.T) {
	r := NewRegistry()
	f := r.CounterFamily("api.requests", "api")
	f.With("produce").Add(3)
	f.With("fetch").Inc()
	f.With("produce").Inc()
	if got := f.With("produce").Value(); got != 4 {
		t.Fatalf("produce counter = %d, want 4", got)
	}
	if got := f.With("fetch").Value(); got != 1 {
		t.Fatalf("fetch counter = %d, want 1", got)
	}
	// Same name returns the same underlying family.
	if r.CounterFamily("api.requests", "api").With("produce") != f.With("produce") {
		t.Fatalf("family lookup not stable")
	}
}

func TestFamilyLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	f := r.CounterFamily("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatalf("wrong label arity did not panic")
		}
	}()
	f.With("only-one")
}

func TestFamilyRedefinitionPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFamily("dup", "a")
	defer func() {
		if recover() == nil {
			t.Fatalf("kind redefinition did not panic")
		}
	}()
	r.GaugeFamily("dup", "a")
}

func TestGaugeFamilyResetAndEach(t *testing.T) {
	r := NewRegistry()
	f := r.GaugeFamily("lag", "topic", "partition")
	f.With("orders", "0").Set(7)
	f.With("orders", "1").Set(9)
	var seen int
	f.Each(func(values []string, g *Gauge) { seen++ })
	if seen != 2 {
		t.Fatalf("Each visited %d children, want 2", seen)
	}
	f.Reset()
	seen = 0
	f.Each(func(values []string, g *Gauge) { seen++ })
	if seen != 0 {
		t.Fatalf("Reset left %d children", seen)
	}
}

func TestGatherIncludesEverything(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(-5)
	r.Histogram("h").Observe(100)
	r.HistogramFamily("hf", "topic").With("t1").Observe(50)
	fams := r.Gather()
	byName := map[string]GatheredFamily{}
	for _, f := range fams {
		if _, dup := byName[f.Name]; dup {
			t.Fatalf("duplicate family %q in Gather", f.Name)
		}
		byName[f.Name] = f
	}
	if f := byName["c"]; f.Kind != KindCounter || f.Points[0].Value != 2 {
		t.Fatalf("counter gathered wrong: %+v", f)
	}
	if f := byName["g"]; f.Kind != KindGauge || f.Points[0].Value != -5 {
		t.Fatalf("gauge gathered wrong: %+v", f)
	}
	if f := byName["h"]; f.Kind != KindHistogram || f.Points[0].Hist.Count != 1 {
		t.Fatalf("histogram gathered wrong: %+v", f)
	}
	hf := byName["hf"]
	if len(hf.LabelNames) != 1 || hf.LabelNames[0] != "topic" || len(hf.Points) != 1 ||
		hf.Points[0].LabelValues[0] != "t1" || hf.Points[0].Hist.Count != 1 {
		t.Fatalf("histogram family gathered wrong: %+v", hf)
	}
	for i := 1; i < len(fams); i++ {
		if fams[i-1].Name > fams[i].Name {
			t.Fatalf("Gather output not sorted: %q before %q", fams[i-1].Name, fams[i].Name)
		}
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"broker.requests":  "broker_requests",
		"log.fsync-ns":     "log_fsync_ns",
		"9lives":           "_9lives",
		"ok_name:sub":      "ok_name:sub",
		"weird name\u00e9": "weird_name__",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Fatalf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterFamily("broker.api.requests", "api").With("produce").Add(10)
	r.Gauge("up").Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE broker_api_requests counter\n",
		"broker_api_requests{api=\"produce\"} 10\n",
		"# TYPE up gauge\n",
		"up 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterFamily("esc", "l").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `esc{l="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

func TestFamilyConcurrent(t *testing.T) {
	r := NewRegistry()
	f := r.CounterFamily("conc", "k")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				f.With(strconv.Itoa(i % 10)).Inc()
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	var total int64
	for i := 0; i < 10; i++ {
		total += f.With(strconv.Itoa(i)).Value()
	}
	if total != 8000 {
		t.Fatalf("concurrent family total = %d, want 8000", total)
	}
}

// A scrape that races observers must still be a valid exposition: cumulative
// buckets never decrease, +Inf included. Loading the count separately from
// the buckets broke this (an Observe completing between the two loads put the
// finite buckets above +Inf), which is what /metrics lint reported as
// "cumulative buckets decrease" under TestChaosSmokeOpsFailover.
func TestCumulativeMonotoneUnderConcurrentObserve(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for v := int64(1); ; v = v*3%(1<<20) + 1 {
				select {
				case <-stop:
					return
				default:
					h.Observe(v << uint(g))
				}
			}
		}(g)
	}
	for i := 0; i < 20000; i++ {
		var prev int64
		for _, b := range h.Cumulative() {
			if b.Count < prev {
				t.Errorf("scrape %d: cumulative bucket le=%d has %d, below the previous bucket's %d", i, b.Upper, b.Count, prev)
			}
			prev = b.Count
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	for g := 0; g < 4; g++ {
		<-done
	}
}
