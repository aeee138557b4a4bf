package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// startTieredStack boots a stack tuned for fast tiering: tiny segments, a
// tight hot horizon, and millisecond offload/retention cadence.
func startTieredStack(t *testing.T, brokers int) *Stack {
	t.Helper()
	s, err := Start(Config{
		Brokers:           brokers,
		SessionTimeout:    700 * time.Millisecond,
		RetentionInterval: 25 * time.Millisecond,
		TierInterval:      25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// tieredSpec shapes the topic under test: 4 KiB segments, an 8 KiB hot
// horizon, unbounded total horizon.
func tieredSpec(name string, rf int16) wire.TopicSpec {
	return wire.TopicSpec{
		Name:              name,
		NumPartitions:     1,
		ReplicationFactor: rf,
		SegmentBytes:      4 << 10,
		Tiered:            true,
		HotRetentionMs:    -1,
		HotRetentionBytes: 8 << 10,
		RetentionMs:       -1,
		RetentionBytes:    -1,
	}
}

// produceN publishes sequenced records [from, to), flushing every 50 (~2 KiB)
// so the log holds many batches smaller than the topic's 4 KiB segments: the
// leader stores a flushed batch whole, and one batch never spans segments.
// acks=all so the records survive any later forced failover (the failover
// test kills the leader; acked-but-unreplicated data carries no survival
// promise).
func produceN(t *testing.T, s *Stack, topic string, from, to int) {
	t.Helper()
	p := s.NewProducer(client.ProducerConfig{Acks: client.AcksAll})
	defer p.Close()
	for i := from; i < to; i++ {
		if err := p.Send(client.Message{
			Topic: topic,
			Key:   []byte(fmt.Sprintf("k-%06d", i)),
			Value: []byte(fmt.Sprintf("v-%06d", i)),
		}); err != nil {
			t.Fatal(err)
		}
		if (i-from)%50 == 49 {
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

// awaitOffload blocks until the partition's local log start advanced past
// zero (segments offloaded AND locally deleted) and returns the status.
func awaitOffload(t *testing.T, s *Stack, topic string) wire.TierStatusPartition {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		sts, err := s.TierStatus(topic)
		if err == nil && len(sts) == 1 && sts[0].LocalStartOffset > 0 && sts[0].TieredSegments > 0 {
			return sts[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("offload never advanced the local start: %+v (err %v)", sts, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// consumeAll reads records [from, to) and asserts every offset arrives
// exactly once, in order, with the value it was produced with.
func consumeAll(t *testing.T, s *Stack, topic string, from, to int64) {
	t.Helper()
	c := s.NewConsumer(client.ConsumerConfig{})
	defer c.Close()
	if err := c.Assign(topic, 0, from); err != nil {
		t.Fatal(err)
	}
	next := from
	deadline := time.Now().Add(30 * time.Second)
	for next < to {
		if time.Now().After(deadline) {
			t.Fatalf("consumed up to offset %d, want %d", next, to)
		}
		msgs, err := c.Poll(time.Second)
		if err != nil {
			// Transient during failover (stale metadata, dead leader);
			// the deadline bounds how long we tolerate it.
			time.Sleep(20 * time.Millisecond)
			continue
		}
		for _, m := range msgs {
			if m.Offset != next {
				t.Fatalf("offset %d, want %d (gap or duplicate across the cold→hot boundary)", m.Offset, next)
			}
			if want := fmt.Sprintf("v-%06d", m.Offset); string(m.Value) != want {
				t.Fatalf("offset %d value %q, want %q", m.Offset, m.Value, want)
			}
			next++
		}
	}
	if next != to {
		t.Fatalf("consumed %d records past the target", next-to)
	}
}

// TestTieredRewindAcrossBoundary is the acceptance test: a consumer started
// at offset 0 on a topic whose early segments were offloaded and locally
// deleted reads every record exactly once across the cold→hot boundary.
func TestTieredRewindAcrossBoundary(t *testing.T) {
	s := startTieredStack(t, 1)
	const topic = "tiered-feed"
	if err := s.CreateTopic(tieredSpec(topic, 1)); err != nil {
		t.Fatal(err)
	}
	const n = 1500
	produceN(t, s, topic, 0, n)
	st := awaitOffload(t, s, topic)
	if st.EarliestOffset != 0 {
		t.Fatalf("tiered earliest = %d, want 0 (nothing expired)", st.EarliestOffset)
	}
	if st.LocalStartOffset == 0 || st.TieredNextOffset < st.LocalStartOffset {
		t.Fatalf("tier status inconsistent: %+v", st)
	}
	// StartEarliest now means tiered-earliest.
	if off, err := s.Client().ListOffset(topic, 0, wire.TimestampEarliest); err != nil || off != 0 {
		t.Fatalf("ListOffset earliest = %d,%v; want 0", off, err)
	}
	consumeAll(t, s, topic, 0, n)
}

// TestTieredSeekOneBelowLocalStart is the out-of-range regression test:
// seeking exactly one record below the local log start must be served from
// the cold tier (not bounce through an out-of-range reset), and the record
// must be the right one.
func TestTieredSeekOneBelowLocalStart(t *testing.T) {
	s := startTieredStack(t, 1)
	const topic = "tiered-seek"
	if err := s.CreateTopic(tieredSpec(topic, 1)); err != nil {
		t.Fatal(err)
	}
	const n = 1200
	produceN(t, s, topic, 0, n)
	st := awaitOffload(t, s, topic)

	c := s.NewConsumer(client.ConsumerConfig{OnReset: client.ResetError})
	defer c.Close()
	target := st.LocalStartOffset - 1
	if err := c.Assign(topic, 0, target); err != nil {
		t.Fatal(err)
	}
	msgs, err := c.Poll(2 * time.Second)
	if err != nil {
		t.Fatalf("poll one below local start: %v (out-of-range leaked to the client)", err)
	}
	if len(msgs) == 0 || msgs[0].Offset != target {
		t.Fatalf("first message %+v, want offset %d", msgs, target)
	}
	if want := fmt.Sprintf("v-%06d", target); string(msgs[0].Value) != want {
		t.Fatalf("value %q, want %q", msgs[0].Value, want)
	}
}

// TestTieredOutOfRangeCarriesEarliest proves the out-of-range error carries
// the earliest AVAILABLE offset once total retention has expired the oldest
// cold segments: auto-reset lands exactly on the tiered-earliest instead of
// guessing.
func TestTieredOutOfRangeCarriesEarliest(t *testing.T) {
	s := startTieredStack(t, 1)
	const topic = "tiered-expire"
	spec := tieredSpec(topic, 1)
	spec.RetentionBytes = 24 << 10 // total horizon: ~6 segments hot+cold
	if err := s.CreateTopic(spec); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	produceN(t, s, topic, 0, n)

	// Wait for total retention to advance the tiered earliest past zero.
	var st wire.TierStatusPartition
	deadline := time.Now().Add(15 * time.Second)
	for {
		sts, err := s.TierStatus(topic)
		if err == nil && len(sts) == 1 && sts[0].EarliestOffset > 0 {
			st = sts[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("total retention never advanced the tiered earliest: %+v (err %v)", sts, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Retention keeps sweeping in the background, so the earliest can move
	// between the status sample and the ListOffset — retry with a fresh
	// status until the two agree on the same settled value.
	for {
		off, err := s.Client().ListOffset(topic, 0, wire.TimestampEarliest)
		if err == nil && off == st.EarliestOffset {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ListOffset earliest = %d,%v; want %d", off, err, st.EarliestOffset)
		}
		if sts, err2 := s.TierStatus(topic); err2 == nil && len(sts) == 1 {
			st = sts[0]
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A consumer at offset 0 with ResetEarliest must resume exactly at the
	// tiered-earliest the error carried.
	c := s.NewConsumer(client.ConsumerConfig{OnReset: client.ResetEarliest})
	defer c.Close()
	if err := c.Assign(topic, 0, 0); err != nil {
		t.Fatal(err)
	}
	var first int64 = -1
	pollDeadline := time.Now().Add(10 * time.Second)
	for first < 0 && time.Now().Before(pollDeadline) {
		msgs, err := c.Poll(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) > 0 {
			first = msgs[0].Offset
		}
	}
	// Retention keeps running; the earliest can only have moved forward.
	if first < st.EarliestOffset {
		t.Fatalf("auto-reset resumed at %d, below the tiered earliest %d", first, st.EarliestOffset)
	}
}

// TestTieredFailoverRecoversFromManifest kills the leader of a tiered
// partition after offload and asserts the new leader serves the full
// history from offset 0 — the manifest, not the dead broker, is the source
// of truth for cold data, while followers replicated only the hot log.
func TestTieredFailoverRecoversFromManifest(t *testing.T) {
	s := startTieredStack(t, 3)
	const topic = "tiered-failover"
	if err := s.CreateTopic(tieredSpec(topic, 3)); err != nil {
		t.Fatal(err)
	}
	const n = 1200
	produceN(t, s, topic, 0, n)
	awaitOffload(t, s, topic)

	st, err := s.PartitionState(topic, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := st.Leader
	if !s.KillBroker(old) {
		t.Fatalf("kill broker %d failed", old)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := s.PartitionState(topic, 0)
		if err == nil && st.Leader >= 0 && st.Leader != old {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leadership never moved off %d", old)
		}
		time.Sleep(20 * time.Millisecond)
	}
	consumeAll(t, s, topic, 0, n)
}
