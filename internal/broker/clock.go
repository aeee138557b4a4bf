package broker

import "time"

// This file is the broker's only door to the wall clock. Everything that
// reads the time goes through the injected cfg.Now so that seeded chaos
// runs observe a reproducible clock; everything that *waits* real time
// goes through the helpers below, each of which is a single audited
// escape hatch. liquid-vet's clockdiscipline analyzer rejects any direct
// time.Now / time.After / ticker construction elsewhere in this package.

// now reads the injected clock.
func (b *Broker) now() time.Time { return b.cfg.Now() }

// since is time.Since against the injected clock.
func (b *Broker) since(t time.Time) time.Duration { return b.now().Sub(t) }

// after waits d of real time. Chaos schedules inject only Now — timers and
// long-poll waits deliberately stay on the runtime timer wheel, so every
// such wait funnels through this one reviewed call site. A test that needs
// a timeout to fire sets b.timeouts.
func (b *Broker) after(d time.Duration) <-chan time.Time {
	if b.timeouts != nil {
		return b.timeouts(d)
	}
	//lint:ignore clockdiscipline real-time waits intentionally bypass the injected clock; this helper is the single audited escape hatch
	return time.After(d)
}

// newTicker is the package's one sanctioned ticker constructor; see after.
func newTicker(d time.Duration) *time.Ticker {
	//lint:ignore clockdiscipline periodic duties run on real time by design; this helper is the single audited escape hatch
	return time.NewTicker(d)
}

// newTimer is the package's one sanctioned timer constructor; see after.
func newTimer(d time.Duration) *time.Timer {
	//lint:ignore clockdiscipline ack and long-poll deadlines run on real time by design; this helper is the single audited escape hatch
	return time.NewTimer(d)
}
