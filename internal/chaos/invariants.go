package chaos

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/wire"
)

// Violation is one invariant breach found by a checker. Scenarios pass when
// the violation list is empty.
type Violation struct {
	// Invariant names the guarantee ("acked-loss", "hw-monotonic",
	// "leader-epoch", "offset-contiguity", "backfill-exactly-once",
	// "acked-dup").
	Invariant string
	// Detail describes the breach.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// violationf renders one violation.
func violationf(invariant, format string, args ...any) Violation {
	return Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// ------------------------------------------------------------------ ledger

// Ledger records every value the workload got acknowledged, in ack order,
// with named marks segmenting phases (before/after a fault). The checkers
// compare it against what a full scan of the feed actually holds:
//
//   - no acked-record loss: every acked value is present;
//   - no acked-record duplication, unconditionally: idempotent producers
//     stamp every batch with (id, epoch, sequence) and brokers dedup
//     retries, so a produce retried across a failover lands exactly once
//     even when the original ack died with the old leader.
type Ledger struct {
	mu    sync.Mutex
	acked []string
	marks map[string]int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{marks: make(map[string]int)} }

// Acked records one acknowledged value.
func (l *Ledger) Acked(value string) {
	l.mu.Lock()
	l.acked = append(l.acked, value)
	l.mu.Unlock()
}

// Mark names the current ack watermark (e.g. "pre-fault").
func (l *Ledger) Mark(name string) {
	l.mu.Lock()
	l.marks[name] = len(l.acked)
	l.mu.Unlock()
}

// All returns every acked value.
func (l *Ledger) All() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.acked...)
}

// Before returns the values acked before the named mark (nil when the mark
// was never set).
func (l *Ledger) Before(name string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, ok := l.marks[name]
	if !ok {
		return nil
	}
	return append([]string(nil), l.acked[:n]...)
}

// Len returns the acked count.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acked)
}

// ------------------------------------------------------------- HW monitor

// HWMonitor samples each partition's committed end offset (the leader's
// high watermark, via ListOffsets latest) and records every regression: the
// high watermark must be monotonic per partition across failovers, because
// it only ever covers fully replicated data (§4.3). Query errors during a
// failover window are expected and skipped.
type HWMonitor struct {
	c          *client.Client
	topic      string
	partitions int32

	mu         sync.Mutex
	last       map[int32]int64
	violations []Violation

	stop chan struct{}
	done chan struct{}
}

// StartHWMonitor begins sampling at the given interval.
func StartHWMonitor(c *client.Client, topic string, partitions int32, interval time.Duration) *HWMonitor {
	m := &HWMonitor{
		c:          c,
		topic:      topic,
		partitions: partitions,
		last:       make(map[int32]int64),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go m.run(interval)
	return m
}

func (m *HWMonitor) run(interval time.Duration) {
	defer close(m.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			for p := int32(0); p < m.partitions; p++ {
				hw, err := m.c.ListOffset(m.topic, p, wire.TimestampLatest)
				if err != nil {
					continue // leaderless window: nothing to observe
				}
				m.observe(p, hw)
			}
		}
	}
}

// observe folds one sample in.
func (m *HWMonitor) observe(p int32, hw int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.last[p]; ok && hw < prev {
		m.violations = append(m.violations, violationf("hw-monotonic",
			"%s/%d high watermark regressed %d -> %d", m.topic, p, prev, hw))
	}
	if hw > m.last[p] {
		m.last[p] = hw
	}
}

// Stop halts sampling and returns the violations found.
func (m *HWMonitor) Stop() []Violation {
	close(m.stop)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Violation(nil), m.violations...)
}

// ---------------------------------------------------------- epoch watcher

// EpochWatcher subscribes to the coordination store's partition-state
// events and asserts the §4.3 hand-over safety property: within one epoch a
// partition has at most one leader — the controller bumps the epoch on every
// leader change, so two brokers may never both hold a (partition, epoch)
// claim. The watch sees every committed transition, so this checker has no
// sampling gaps.
type EpochWatcher struct {
	topic string

	mu         sync.Mutex
	leaders    map[string]int32 // "partition/epoch" -> leader
	lastEpoch  map[int32]int32
	violations []Violation

	cancel func()
	done   chan struct{}
}

// WatchEpochs starts watching a topic's partition state in the store.
func WatchEpochs(store *coord.Store, topic string) *EpochWatcher {
	events, cancel := store.Watch(cluster.StatePrefix + topic + "/")
	w := &EpochWatcher{
		topic:     topic,
		leaders:   make(map[string]int32),
		lastEpoch: make(map[int32]int32),
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	go w.run(events)
	return w
}

func (w *EpochWatcher) run(events <-chan coord.Event) {
	defer close(w.done)
	for ev := range events {
		if ev.Type == coord.EventDeleted {
			continue
		}
		_, partition, ok := cluster.ParseStatePath(ev.Path)
		if !ok {
			continue
		}
		var st cluster.PartitionState
		if json.Unmarshal(ev.Value, &st) != nil {
			continue
		}
		w.observe(partition, st)
	}
}

// observe folds one committed state transition in.
func (w *EpochWatcher) observe(partition int32, st cluster.PartitionState) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if st.Epoch < w.lastEpoch[partition] {
		w.violations = append(w.violations, violationf("leader-epoch",
			"%s/%d epoch regressed %d -> %d", w.topic, partition, w.lastEpoch[partition], st.Epoch))
	}
	w.lastEpoch[partition] = st.Epoch
	if st.Leader < 0 {
		return // offline: no leader claim in this state
	}
	key := fmt.Sprintf("%d/%d", partition, st.Epoch)
	if prev, ok := w.leaders[key]; ok && prev != st.Leader {
		w.violations = append(w.violations, violationf("leader-epoch",
			"%s/%d epoch %d claimed by two leaders: %d and %d",
			w.topic, partition, st.Epoch, prev, st.Leader))
	}
	w.leaders[key] = st.Leader
}

// Stop cancels the watch and returns the violations found.
func (w *EpochWatcher) Stop() []Violation {
	w.cancel()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Violation(nil), w.violations...)
}

// -------------------------------------------------------------- feed scan

// FeedScan is a full committed read of one feed, the ground truth the
// ledger is checked against.
type FeedScan struct {
	// Values counts occurrences of each consumed value across partitions.
	Values map[string]int
	// Offsets holds each partition's consumed offsets in consumption order.
	Offsets map[int32][]int64
	// Start holds each partition's log start offset at scan time.
	Start map[int32]int64
}

// ScanFeed reads every partition of a feed from its log start to its
// current committed end, retrying through transient leaderless windows
// until the deadline.
func ScanFeed(c *client.Client, topic string, partitions int32, timeout time.Duration) (*FeedScan, error) {
	scan := &FeedScan{
		Values:  make(map[string]int),
		Offsets: make(map[int32][]int64),
		Start:   make(map[int32]int64),
	}
	deadline := time.Now().Add(timeout)
	for p := int32(0); p < partitions; p++ {
		var start, end int64
		var err error
		for {
			start, err = c.ListOffset(topic, p, wire.TimestampEarliest)
			if err == nil {
				end, err = c.ListOffset(topic, p, wire.TimestampLatest)
			}
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("chaos: scan %s/%d: %w", topic, p, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
		scan.Start[p] = start
		cons := client.NewConsumer(c, client.ConsumerConfig{})
		if err := cons.Assign(topic, p, start); err != nil {
			cons.Close()
			return nil, err
		}
		pos := start
		for pos < end {
			msgs, err := cons.Poll(250 * time.Millisecond)
			if err != nil {
				if time.Now().After(deadline) {
					cons.Close()
					return nil, fmt.Errorf("chaos: scan %s/%d stalled at %d/%d: %w", topic, p, pos, end, err)
				}
				continue
			}
			for _, m := range msgs {
				scan.Values[string(m.Value)]++
				scan.Offsets[p] = append(scan.Offsets[p], m.Offset)
			}
			if n := cons.Position(topic, p); n > pos {
				pos = n
			}
			if time.Now().After(deadline) {
				cons.Close()
				return nil, fmt.Errorf("chaos: scan %s/%d stalled at %d/%d", topic, p, pos, end)
			}
		}
		cons.Close()
	}
	return scan, nil
}

// CheckAckedSurvival asserts that every ledger value is in the scan
// (no acked-record loss) and appears exactly once (no acked-record
// duplication). The dup check is unconditional: idempotent producers make
// failover-window retries safe, so a value acked at any point — including
// mid-fault — must land exactly once.
func CheckAckedSurvival(scan *FeedScan, ledger *Ledger) []Violation {
	var out []Violation
	for _, v := range ledger.All() {
		switch n := scan.Values[v]; {
		case n == 0:
			out = append(out, violationf("acked-loss", "acked record %q missing from feed", v))
		case n > 1:
			out = append(out, violationf("acked-dup",
				"acked record %q appears %d times in the feed", v, n))
		}
	}
	return out
}

// CheckOffsetContiguity asserts each partition's consumed offsets form a
// gapless, duplicate-free run from its log start — consumers never see an
// offset twice or skip a committed one.
func CheckOffsetContiguity(scan *FeedScan) []Violation {
	var out []Violation
	parts := make([]int32, 0, len(scan.Offsets))
	for p := range scan.Offsets {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
	for _, p := range parts {
		want := scan.Start[p]
		for _, off := range scan.Offsets[p] {
			if off != want {
				out = append(out, violationf("offset-contiguity",
					"partition %d consumed offset %d, want %d", p, off, want))
				want = off // resynchronise to report each break once
			}
			want++
		}
	}
	return out
}
