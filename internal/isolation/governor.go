// Package isolation implements per-job resource governance, standing in
// for the container-based OS isolation (YARN/cgroups) the paper uses to
// offer "ETL-as-a-service" (§3.2, §4.4): a runaway job must not degrade
// co-located jobs. CPU is governed with a CFS-bandwidth-style token bucket
// charged with measured execution time.
package isolation

import (
	"sync"
	"time"
)

// Config bounds one job's resources. Zero values mean unlimited.
type Config struct {
	// CPUShare is the fraction of one core the job may consume
	// (0.25 = 25%). Zero disables CPU throttling.
	CPUShare float64
	// Burst is how much CPU time may be consumed ahead of the refill
	// rate before throttling kicks in.
	Burst time.Duration
	// Now and Sleep are injectable for tests.
	Now   func() time.Time
	Sleep func(time.Duration)
}

func (c Config) withDefaults() Config {
	if c.Burst == 0 {
		c.Burst = 50 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Stats snapshots a governor's accounting.
type Stats struct {
	CPUCharged    time.Duration
	Throttled     time.Duration
	ThrottleCount int64
}

// Governor enforces one job's resource budget. All methods are safe for
// concurrent use by the job's tasks.
type Governor struct {
	cfg Config

	mu         sync.Mutex
	tokens     time.Duration // available CPU time (can go negative)
	lastRefill time.Time
	stats      Stats
}

// New creates a governor. A nil *Governor is valid and enforces nothing,
// so jobs without a budget skip all accounting.
func New(cfg Config) *Governor {
	cfg = cfg.withDefaults()
	return &Governor{cfg: cfg, tokens: cfg.Burst, lastRefill: cfg.Now()}
}

// Charge records d of consumed CPU time and blocks until the job is back
// within its budget — the moral equivalent of cgroup CPU bandwidth
// throttling. Call it after each unit of work with the measured duration.
func (g *Governor) Charge(d time.Duration) {
	if g == nil || g.cfg.CPUShare <= 0 || d <= 0 {
		return
	}
	g.mu.Lock()
	now := g.cfg.Now()
	// Refill tokens for wall time elapsed since the last charge.
	refill := time.Duration(float64(now.Sub(g.lastRefill)) * g.cfg.CPUShare)
	g.tokens += refill
	if g.tokens > g.cfg.Burst {
		g.tokens = g.cfg.Burst
	}
	g.lastRefill = now
	g.tokens -= d
	g.stats.CPUCharged += d
	var sleep time.Duration
	if g.tokens < 0 {
		// Sleep long enough for the deficit to refill.
		sleep = time.Duration(float64(-g.tokens) / g.cfg.CPUShare)
		g.stats.Throttled += sleep
		g.stats.ThrottleCount++
	}
	g.mu.Unlock()
	if sleep > 0 {
		g.cfg.Sleep(sleep)
	}
}

// Meter runs fn, charging its measured duration. Convenience for task
// loops.
func (g *Governor) Meter(fn func()) {
	if g == nil || g.cfg.CPUShare <= 0 {
		fn()
		return
	}
	start := g.cfg.Now()
	fn()
	g.Charge(g.cfg.Now().Sub(start))
}

// Usage snapshots the accounting.
func (g *Governor) Usage() Stats {
	if g == nil {
		return Stats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}
