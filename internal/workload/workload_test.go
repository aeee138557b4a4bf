package workload

import (
	"testing"
)

func TestRUMDeterministicUnderSeed(t *testing.T) {
	g1 := NewRUM(RUMConfig{Seed: 7}, 1000)
	g2 := NewRUM(RUMConfig{Seed: 7}, 1000)
	for i := 0; i < 100; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func TestRUMRoundTrip(t *testing.T) {
	g := NewRUM(RUMConfig{Seed: 1}, 0)
	e := g.Next()
	got, err := DecodeRUM(e.Encode())
	if err != nil || got != e {
		t.Fatalf("round trip: %+v vs %+v (%v)", got, e, err)
	}
}

func TestRUMSlowCDNIsSlower(t *testing.T) {
	g := NewRUM(RUMConfig{Seed: 3, SlowCDN: "cdn-beta", SlowFactor: 10}, 0)
	var slowSum, slowN, fastSum, fastN int64
	for i := 0; i < 5000; i++ {
		e := g.Next()
		if e.CDN == "cdn-beta" {
			slowSum += e.LoadMs
			slowN++
		} else {
			fastSum += e.LoadMs
			fastN++
		}
	}
	if slowN == 0 || fastN == 0 {
		t.Fatal("generator skipped a CDN")
	}
	slowAvg := slowSum / slowN
	fastAvg := fastSum / fastN
	if slowAvg < 5*fastAvg {
		t.Fatalf("slow CDN avg %dms vs others %dms: not degraded enough", slowAvg, fastAvg)
	}
}

func TestRUMTimestampsMonotone(t *testing.T) {
	g := NewRUM(RUMConfig{Seed: 9}, 500)
	last := int64(0)
	for i := 0; i < 1000; i++ {
		e := g.Next()
		if e.Timestamp < last {
			t.Fatal("timestamps went backwards")
		}
		last = e.Timestamp
	}
}

func TestCallGraphWellFormed(t *testing.T) {
	g := NewCallGraph(CallGraphConfig{Seed: 5}, 0)
	for i := 0; i < 100; i++ {
		trace := g.NextTrace()
		if len(trace) == 0 {
			t.Fatal("empty trace")
		}
		spans := map[int]bool{}
		roots := 0
		reqID := trace[0].RequestID
		for _, e := range trace {
			if e.RequestID != reqID {
				t.Fatal("mixed request ids within a trace")
			}
			if spans[e.SpanID] {
				t.Fatal("duplicate span id")
			}
			spans[e.SpanID] = true
			if e.ParentSpan == -1 {
				roots++
				if e.Service != "frontend" {
					t.Fatalf("root service = %s", e.Service)
				}
			}
		}
		if roots != 1 {
			t.Fatalf("trace has %d roots", roots)
		}
		// Every parent exists.
		for _, e := range trace {
			if e.ParentSpan >= 0 && !spans[e.ParentSpan] {
				t.Fatalf("orphan span %d (parent %d missing)", e.SpanID, e.ParentSpan)
			}
		}
	}
}

func TestCallGraphSlowService(t *testing.T) {
	g := NewCallGraph(CallGraphConfig{Seed: 2, SlowService: "ads-svc", FanOut: 3, MaxDepth: 4}, 0)
	var slowMin int64 = 1 << 62
	var fastMax int64
	found := false
	for i := 0; i < 500; i++ {
		for _, e := range g.NextTrace() {
			if e.Service == "ads-svc" {
				found = true
				if e.DurMs < slowMin {
					slowMin = e.DurMs
				}
			} else if e.DurMs > fastMax {
				fastMax = e.DurMs
			}
		}
	}
	if !found {
		t.Skip("ads-svc never sampled (tiny trace shapes)")
	}
	if slowMin <= fastMax {
		t.Fatalf("slow service min %dms <= fast max %dms", slowMin, fastMax)
	}
}

func TestCallEventRoundTrip(t *testing.T) {
	g := NewCallGraph(CallGraphConfig{Seed: 1}, 0)
	e := g.NextTrace()[0]
	got, err := DecodeCall(e.Encode())
	if err != nil || got != e {
		t.Fatalf("round trip: %+v vs %+v (%v)", got, e, err)
	}
}

func TestProfileZipfSkew(t *testing.T) {
	g := NewProfile(ProfileConfig{Seed: 11, Users: 1000}, 0)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.Next().UserID]++
	}
	// Zipf: the hottest user should account for a large share while the
	// key space touched is much smaller than n.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < n/20 {
		t.Fatalf("hottest user only %d/%d updates; zipf skew missing", max, n)
	}
	if len(counts) >= n/2 {
		t.Fatalf("%d distinct users for %d updates; no reuse", len(counts), n)
	}
}

func TestProfileRoundTrip(t *testing.T) {
	g := NewProfile(ProfileConfig{Seed: 1}, 0)
	e := g.Next()
	got, err := DecodeProfile(e.Encode())
	if err != nil || got != e {
		t.Fatalf("round trip: %+v vs %+v (%v)", got, e, err)
	}
}

func TestMetricsSpikeHost(t *testing.T) {
	g := NewMetrics(MetricsConfig{Seed: 4, Hosts: 10, SpikeHost: "host-003"}, 0)
	var spikeMax, otherMax float64
	for i := 0; i < 20000; i++ {
		e := g.Next()
		if e.Name != "errors.rate" {
			continue
		}
		if e.Host == "host-003" {
			if e.Value > spikeMax {
				spikeMax = e.Value
			}
		} else if e.Value > otherMax {
			otherMax = e.Value
		}
	}
	if spikeMax < 50 {
		t.Fatalf("spike host error rate max %.1f, want >= 50", spikeMax)
	}
	if otherMax > 2 {
		t.Fatalf("healthy host error rate max %.1f, want <= 2", otherMax)
	}
}

func TestMetricsRoundTrip(t *testing.T) {
	g := NewMetrics(MetricsConfig{Seed: 1}, 0)
	e := g.Next()
	got, err := DecodeMetric(e.Encode())
	if err != nil || got != e {
		t.Fatalf("round trip: %+v vs %+v (%v)", got, e, err)
	}
}
