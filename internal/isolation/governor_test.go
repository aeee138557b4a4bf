package isolation

import (
	"sync"
	"testing"
	"time"
)

// fakeTime is a deterministic clock whose Sleep advances it.
type fakeTime struct {
	mu sync.Mutex
	t  time.Time
	// slept accumulates simulated sleep.
	slept time.Duration
}

func (f *fakeTime) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeTime) sleep(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
	f.slept += d
}

func newFakeGovernor(share float64, burst time.Duration) (*Governor, *fakeTime) {
	ft := &fakeTime{t: time.Unix(0, 0)}
	g := New(Config{CPUShare: share, Burst: burst, Now: ft.now, Sleep: ft.sleep})
	return g, ft
}

func TestChargeWithinBurstDoesNotThrottle(t *testing.T) {
	g, ft := newFakeGovernor(0.5, 100*time.Millisecond)
	g.Charge(50 * time.Millisecond)
	if ft.slept != 0 {
		t.Fatalf("slept %v inside burst", ft.slept)
	}
	if got := g.Usage().CPUCharged; got != 50*time.Millisecond {
		t.Fatalf("charged = %v", got)
	}
}

func TestChargeBeyondBurstThrottles(t *testing.T) {
	g, ft := newFakeGovernor(0.5, 50*time.Millisecond)
	// Consume 150ms of CPU instantly with a 50ms burst at 50% share:
	// deficit 100ms -> sleep 200ms.
	g.Charge(150 * time.Millisecond)
	if ft.slept != 200*time.Millisecond {
		t.Fatalf("slept %v, want 200ms", ft.slept)
	}
	s := g.Usage()
	if s.ThrottleCount != 1 || s.Throttled != 200*time.Millisecond {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTokensRefillOverTime(t *testing.T) {
	g, ft := newFakeGovernor(0.5, 50*time.Millisecond)
	g.Charge(50 * time.Millisecond) // exhaust burst
	ft.sleep(200 * time.Millisecond)
	// 200ms elapsed at 50% refills 100ms, capped at 50ms burst.
	g.Charge(50 * time.Millisecond)
	if s := g.Usage(); s.ThrottleCount != 0 {
		t.Fatalf("throttled after refill: %+v", s)
	}
}

func TestSteadyStateRate(t *testing.T) {
	g, ft := newFakeGovernor(0.25, 10*time.Millisecond)
	// Charge 1s of CPU in 10ms chunks with no wall time passing except
	// the governor's own sleeps: total wall time must be ~= 1s / 0.25.
	start := ft.now()
	for i := 0; i < 100; i++ {
		g.Charge(10 * time.Millisecond)
	}
	elapsed := ft.now().Sub(start)
	want := 4 * time.Second
	if elapsed < want-100*time.Millisecond || elapsed > want+100*time.Millisecond {
		t.Fatalf("1s of CPU at 25%% took %v, want ~%v", elapsed, want)
	}
}

func TestNilGovernorIsUnlimited(t *testing.T) {
	var g *Governor
	g.Charge(time.Hour) // must not panic or block
	g.Meter(func() {})
	if s := g.Usage(); s.CPUCharged != 0 {
		t.Fatalf("nil governor accounted: %+v", s)
	}
}

func TestZeroShareIsUnlimited(t *testing.T) {
	g, ft := newFakeGovernor(0, 0)
	g.Charge(time.Hour)
	if ft.slept != 0 {
		t.Fatal("zero share should not throttle")
	}
}

func TestMeterCharges(t *testing.T) {
	g, ft := newFakeGovernor(1.0, time.Millisecond)
	ran := false
	g.Meter(func() {
		ran = true
		ft.sleep(10 * time.Millisecond) // simulated work time
	})
	if !ran {
		t.Fatal("Meter did not run fn")
	}
	if got := g.Usage().CPUCharged; got != 10*time.Millisecond {
		t.Fatalf("charged %v, want 10ms", got)
	}
}

func TestConcurrentCharges(t *testing.T) {
	g := New(Config{CPUShare: 100, Burst: time.Second}) // effectively unlimited
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Charge(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := g.Usage().CPUCharged; got != 800*time.Microsecond {
		t.Fatalf("charged %v, want 800µs", got)
	}
}

// TestThrottlingShapesRealWork exercises the governor with the real clock:
// a 10%-share job burning CPU must take ~10x its CPU time in wall time.
func TestThrottlingShapesRealWork(t *testing.T) {
	g := New(Config{CPUShare: 0.10, Burst: time.Millisecond})
	start := time.Now()
	var cpu time.Duration
	for cpu < 20*time.Millisecond {
		s := time.Now()
		for time.Since(s) < time.Millisecond {
			// busy loop ~1ms
		}
		d := time.Since(s)
		cpu += d
		g.Charge(d)
	}
	wall := time.Since(start)
	if wall < 100*time.Millisecond {
		t.Fatalf("20ms CPU at 10%% share finished in %v; throttling ineffective", wall)
	}
}
