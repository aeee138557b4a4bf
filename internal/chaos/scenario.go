package chaos

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage/log"
	"repro/internal/wire"
)

// ScenarioConfig sizes one fault-injection scenario.
type ScenarioConfig struct {
	// Name labels logs and violations.
	Name string
	// Seed drives the fault schedule; print it on failure so the run is
	// reproducible (tests take it from -chaos.seed).
	Seed int64
	// Brokers / Topic / Partitions / Replication shape the stack under
	// test (defaults: 3 brokers, "chaos-feed", 1 partition, rf=brokers).
	Brokers     int
	Topic       string
	Partitions  int32
	Replication int16
	// Producers is how many concurrent acks=all producers run (default 2).
	Producers int
	// ProducePause paces each producer between sends (default 1ms).
	ProducePause time.Duration
	// SessionTimeout bounds failover detection (default 750ms).
	SessionTimeout time.Duration
	// ReplicaMaxLag is the ISR shrink threshold (default 1s).
	ReplicaMaxLag time.Duration
	// Spec, when non-nil, overrides how the scenario feed is created
	// (tiered topics, custom segment sizes); Name/partitions/replication
	// are forced to the scenario's values.
	Spec *wire.TopicSpec
	// TierInterval / RetentionInterval drive the brokers' tiering and
	// retention cadence (0 leaves each at the broker default, which for
	// retention means the housekeeping loop barely runs inside a
	// scenario's lifetime).
	TierInterval      time.Duration
	RetentionInterval time.Duration
	// TierUploadHook is forwarded to the stack: it runs on a partition
	// leader between cold-segment upload and manifest commit — the crash
	// window the tier-crash scenario kills the leader in.
	TierUploadHook func(topic string, partition int32, path string) error
	// Durability is forwarded to every broker's partition logs; the
	// group-commit crash scenario kills a leader mid-sync-window under it.
	Durability log.Durability
	// OpsAddr is forwarded to every broker: non-empty (use "127.0.0.1:0")
	// gives each one an ops HTTP server so scenarios can scrape /metrics
	// and probe /healthz across faults.
	OpsAddr string
	// Logger receives stack events; nil keeps only errors.
	Logger *slog.Logger
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Name == "" {
		c.Name = "scenario"
	}
	if c.Brokers == 0 {
		c.Brokers = 3
	}
	if c.Topic == "" {
		c.Topic = "chaos-feed"
	}
	if c.Partitions == 0 {
		c.Partitions = 1
	}
	if c.Replication == 0 {
		c.Replication = int16(c.Brokers)
	}
	if c.Producers == 0 {
		c.Producers = 2
	}
	if c.ProducePause == 0 {
		c.ProducePause = time.Millisecond
	}
	if c.SessionTimeout == 0 {
		c.SessionTimeout = 750 * time.Millisecond
	}
	if c.ReplicaMaxLag == 0 {
		c.ReplicaMaxLag = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	}
	return c
}

// PreFaultMark is the ledger mark scenarios set before their first fault.
// It segments the ledger for diagnostics (how much was acked before the
// schedule started); the acked-dup check does not need it — exactly-once
// holds across the fault window too.
const PreFaultMark = "pre-fault"

// Scenario drives a live core.Stack through a scripted fault schedule while
// invariant monitors watch continuously. Typical shape:
//
//	sc, _ := StartScenario(cfg)
//	defer sc.Close()
//	sc.StartProducers()
//	sc.AwaitAcked(200, 10*time.Second)
//	sc.MarkPreFault()                 // exactly-once boundary
//	sc.KillLeader(0)                  // the fault under test
//	sc.AwaitAcked(sc.Ledger.Len()+200, 30*time.Second)
//	violations, err := sc.Finish()    // stop, scan, check invariants
type Scenario struct {
	Cfg    ScenarioConfig
	Net    *Network
	Stack  *core.Stack
	Ledger *Ledger

	observer *client.Client    // clean-link client for monitors and scans
	obsMet   *metrics.Registry // the observer's private registry
	prodMet  *metrics.Registry // shared by the scenario's own producers only
	hw       *HWMonitor
	ew       *EpochWatcher

	stopProducers chan struct{}
	wg            sync.WaitGroup
	produceErrs   atomic.Int64

	stopOnce      sync.Once
	monOnce       sync.Once
	monViolations []Violation
	finished      bool
}

// StartScenario boots a chaos-wired stack with the scenario's feed created
// and the invariant monitors running.
func StartScenario(cfg ScenarioConfig) (*Scenario, error) {
	cfg = cfg.withDefaults()
	net := NewNetwork(cfg.Seed)
	stack, err := core.Start(core.Config{
		Brokers:           cfg.Brokers,
		SessionTimeout:    cfg.SessionTimeout,
		ReplicaMaxLag:     cfg.ReplicaMaxLag,
		TierInterval:      cfg.TierInterval,
		RetentionInterval: cfg.RetentionInterval,
		TierUploadHook:    cfg.TierUploadHook,
		Durability:        cfg.Durability,
		OpsAddr:           cfg.OpsAddr,
		Chaos:             net,
		Logger:            cfg.Logger,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", cfg.Name, err)
	}
	spec := wire.TopicSpec{}
	if cfg.Spec != nil {
		spec = *cfg.Spec
	}
	spec.Name = cfg.Topic
	spec.NumPartitions = cfg.Partitions
	spec.ReplicationFactor = cfg.Replication
	if err := stack.CreateTopic(spec); err != nil {
		stack.Shutdown()
		return nil, fmt.Errorf("chaos: %s: create feed: %w", cfg.Name, err)
	}
	// The monitors observe through their own node on the network, so
	// scenarios that fault ClientNode links never corrupt a measurement:
	// an invariant violation is always the stack's fault, not the probe's.
	// The observer gets a private registry for the same reason: its
	// consume counters must reflect only the final scan, and the stack
	// registry's acked counter only the scenario producers.
	obsMet := metrics.NewRegistry()
	observer, err := client.New(client.Config{
		Bootstrap:    stack.Addrs(),
		ClientID:     cfg.Name + "-observer",
		MaxRetries:   40,
		RetryBackoff: 25 * time.Millisecond,
		MetadataTTL:  time.Second,
		Dialer:       net.Dialer(ObserverNode),
		Metrics:      obsMet,
	})
	if err != nil {
		stack.Shutdown()
		return nil, fmt.Errorf("chaos: %s: observer: %w", cfg.Name, err)
	}
	s := &Scenario{
		Cfg:           cfg,
		Net:           net,
		Stack:         stack,
		Ledger:        NewLedger(),
		observer:      observer,
		obsMet:        obsMet,
		prodMet:       metrics.NewRegistry(),
		stopProducers: make(chan struct{}),
	}
	s.hw = StartHWMonitor(observer, cfg.Topic, cfg.Partitions, 10*time.Millisecond)
	s.ew = WatchEpochs(stack.Coord(), cfg.Topic)
	return s, nil
}

// StartProducers launches the acks=all produce workload: each producer
// sends uniquely-valued records in a tight loop and records every
// acknowledgement in the ledger.
func (s *Scenario) StartProducers() {
	for i := 0; i < s.Cfg.Producers; i++ {
		s.wg.Add(1)
		go s.produceLoop(i)
	}
}

func (s *Scenario) produceLoop(id int) {
	defer s.wg.Done()
	// Built directly rather than via Stack.NewClient so the workload
	// records into prodMet, a registry only these producers share: the
	// counter-conservation check needs acked-counter == ledger even when
	// a scenario runs auxiliary clients (quota aggressors, probes).
	cli, err := client.New(client.Config{
		Bootstrap:    s.Stack.Addrs(),
		ClientID:     fmt.Sprintf("%s-producer-%d", s.Cfg.Name, id),
		MaxRetries:   40,
		RetryBackoff: 25 * time.Millisecond,
		MetadataTTL:  time.Second,
		Dialer:       s.Net.ClientDial(),
		Metrics:      s.prodMet,
	})
	if err != nil {
		s.produceErrs.Add(1)
		return
	}
	defer cli.Close()
	p := client.NewProducer(cli, client.ProducerConfig{Acks: client.AcksAll})
	defer p.Close()
	for seq := 0; ; seq++ {
		select {
		case <-s.stopProducers:
			return
		default:
		}
		value := fmt.Sprintf("%s/p%d/%06d", s.Cfg.Name, id, seq)
		// Key = value routes deterministically and spreads partitions.
		if _, err := p.SendSync(client.Message{
			Topic: s.Cfg.Topic,
			Key:   []byte(value),
			Value: []byte(value),
		}); err == nil {
			s.Ledger.Acked(value)
		} else {
			s.produceErrs.Add(1)
		}
		if s.Cfg.ProducePause > 0 {
			time.Sleep(s.Cfg.ProducePause)
		}
	}
}

// MarkPreFault sets the exactly-once boundary: call it right before the
// first fault.
func (s *Scenario) MarkPreFault() { s.Ledger.Mark(PreFaultMark) }

// AwaitAcked blocks until the ledger holds at least n acks (the workload is
// demonstrably making progress) or the timeout passes.
func (s *Scenario) AwaitAcked(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.Ledger.Len() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: %s: %d/%d records acked before timeout", s.Cfg.Name, s.Ledger.Len(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// Leader returns a partition's current leader from the committed state.
func (s *Scenario) Leader(partition int32) (int32, error) {
	st, err := s.Stack.PartitionState(s.Cfg.Topic, partition)
	if err != nil {
		return -1, err
	}
	return st.Leader, nil
}

// KillLeader crashes the current leader of a partition (no graceful
// hand-off; the controller must detect the expiry), returning its id.
func (s *Scenario) KillLeader(partition int32) (int32, error) {
	leader, err := s.Leader(partition)
	if err != nil {
		return -1, err
	}
	if leader < 0 {
		return -1, errors.New("chaos: partition has no leader to kill")
	}
	if !s.Stack.KillBroker(leader) {
		return -1, fmt.Errorf("chaos: kill broker %d failed", leader)
	}
	return leader, nil
}

// KillController crashes the broker holding the controller seat, returning
// its id — the §4.3 hand-over must survive losing its own coordinator.
func (s *Scenario) KillController() (int32, error) {
	id := s.Stack.ControllerID()
	if id < 0 {
		return -1, errors.New("chaos: no controller elected")
	}
	if !s.Stack.KillBroker(id) {
		return -1, fmt.Errorf("chaos: kill controller %d failed", id)
	}
	return id, nil
}

// PartitionFollower severs one in-sync follower of a partition from the
// rest of the cluster (and the clients), returning its id. Past
// ReplicaMaxLag the leader must shrink the ISR so acks=all keeps making
// progress without it.
func (s *Scenario) PartitionFollower(partition int32) (int32, error) {
	st, err := s.Stack.PartitionState(s.Cfg.Topic, partition)
	if err != nil {
		return -1, err
	}
	for _, id := range st.ISR {
		if id != st.Leader {
			s.Stack.IsolateBroker(id)
			return id, nil
		}
	}
	return -1, errors.New("chaos: no follower in ISR to partition")
}

// AwaitLeaderChange blocks until the partition has a live leader different
// from old.
func (s *Scenario) AwaitLeaderChange(partition int32, old int32, timeout time.Duration) (int32, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.Stack.PartitionState(s.Cfg.Topic, partition)
		if err == nil && st.Leader >= 0 && st.Leader != old {
			return st.Leader, nil
		}
		if time.Now().After(deadline) {
			return -1, fmt.Errorf("chaos: leadership never moved off %d", old)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// AwaitISRShrink blocks until the broker leaves the partition's ISR.
func (s *Scenario) AwaitISRShrink(partition int32, follower int32, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.Stack.PartitionState(s.Cfg.Topic, partition)
		if err == nil && !st.InISR(follower) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: broker %d never left the ISR", follower)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ProduceErrors returns how many sends failed (they are allowed — failed
// sends carry no durability promise; the invariants police acked ones).
func (s *Scenario) ProduceErrors() int64 { return s.produceErrs.Load() }

// stopWorkload halts the producers and waits for them.
func (s *Scenario) stopWorkload() {
	s.stopOnce.Do(func() { close(s.stopProducers) })
	s.wg.Wait()
}

// stopMonitors halts the continuous checkers once, caching their findings.
func (s *Scenario) stopMonitors() []Violation {
	s.monOnce.Do(func() {
		s.monViolations = append(s.hw.Stop(), s.ew.Stop()...)
	})
	return s.monViolations
}

// Finish stops the workload, waits for the cluster to serve produces again,
// stops the monitors, scans the feed and returns every invariant violation.
// The scenario stays open (Close shuts the stack down) so callers can
// inspect state after a failure.
func (s *Scenario) Finish() ([]Violation, error) {
	if s.finished {
		return nil, errors.New("chaos: scenario already finished")
	}
	s.finished = true
	s.stopWorkload()

	// The cluster must come back: a probe produce succeeding proves a
	// leader is elected and serving before the final scan. The probe is
	// built directly (not via Stack.NewClient) so its acks stay out of
	// the stack registry — the counter-conservation check below needs the
	// acked counter to equal the ledger exactly.
	probe, err := client.New(client.Config{
		Bootstrap:    s.Stack.Addrs(),
		ClientID:     s.Cfg.Name + "-probe",
		MaxRetries:   40,
		RetryBackoff: 25 * time.Millisecond,
		MetadataTTL:  time.Second,
		Dialer:       s.Net.ClientDial(),
	})
	if err != nil {
		return nil, err
	}
	defer probe.Close()
	pp := client.NewProducer(probe, client.ProducerConfig{Acks: client.AcksAll})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := pp.SendSync(client.Message{
			Topic: s.Cfg.Topic, Key: []byte("probe"), Value: []byte("probe"),
		}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			pp.Close()
			s.stopMonitors()
			return nil, errors.New("chaos: cluster never recovered to serve produces")
		}
	}
	pp.Close()

	violations := append([]Violation(nil), s.stopMonitors()...)
	scan, err := ScanFeed(s.observer, s.Cfg.Topic, s.Cfg.Partitions, 60*time.Second)
	if err != nil {
		return violations, err
	}
	// Probe records are not in the ledger; drop them before checks so the
	// survival checker never counts them, and contiguity still covers them
	// via offsets.
	violations = append(violations, CheckAckedSurvival(scan, s.Ledger)...)
	violations = append(violations, CheckOffsetContiguity(scan)...)
	violations = append(violations, s.checkCounterConservation(scan)...)
	return violations, nil
}

// checkCounterConservation audits the instrumentation's own books against
// ground truth the scenario already holds: the producers' registry's acked
// counter must equal the ledger (both are written at the same SendSync
// resolution), the observer registry's consume counter and e2e histogram
// must equal the final scan (the observer only ever consumes during
// ScanFeed), and no counter anywhere may have gone backwards. A failover
// that loses or double-counts instrumentation shows up here even when the
// data itself survived.
func (s *Scenario) checkCounterConservation(scan *FeedScan) []Violation {
	var out []Violation
	const inv = "CounterConservation"

	acked := s.prodMet.CounterFamily("client.produce.acked.records", "topic").With(s.Cfg.Topic).Value()
	if acked != int64(s.Ledger.Len()) {
		out = append(out, violationf(inv,
			"acked counter %d != ledger %d for %s", acked, s.Ledger.Len(), s.Cfg.Topic))
	}

	var scanned int64
	for _, offs := range scan.Offsets {
		scanned += int64(len(offs))
	}
	consumed := s.obsMet.CounterFamily("client.consume.records", "topic").With(s.Cfg.Topic).Value()
	if consumed != scanned {
		out = append(out, violationf(inv,
			"consume counter %d != scanned records %d for %s", consumed, scanned, s.Cfg.Topic))
	}
	e2e := s.obsMet.HistogramFamily("client.e2e.latency.ns", "topic").With(s.Cfg.Topic).Count()
	if e2e != scanned {
		out = append(out, violationf(inv,
			"e2e latency observations %d != scanned records %d for %s", e2e, scanned, s.Cfg.Topic))
	}

	if n := metrics.NegativeAdds(); n > 0 {
		out = append(out, violationf(inv, "%d negative counter adds recorded process-wide", n))
	}
	return out
}

// Close shuts the stack down (idempotent with Finish).
func (s *Scenario) Close() {
	s.stopWorkload()
	s.stopMonitors()
	s.finished = true
	s.observer.Close()
	s.Stack.Shutdown()
}
