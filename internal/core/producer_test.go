// Stack-level tests of the producer's flush: one produce request per
// partition leader, and per-partition order plus exactly-once delivery when
// a leader dies with a multi-partition flush in flight.
package core_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/wire"
)

const flushPartitions = 8

// produceRequests reads how many produce requests the stack's brokers have
// served (they share one registry).
func produceRequests(s *core.Stack) int64 {
	for _, f := range s.Metrics().Gather() {
		if f.Name != "broker.api.requests" {
			continue
		}
		for _, p := range f.Points {
			if len(p.LabelValues) == 1 && p.LabelValues[0] == "produce" {
				return p.Value
			}
		}
	}
	return 0
}

// flushProducer is an acks=all producer that sends only on Flush.
func flushProducer(t *testing.T, s *core.Stack, onError func(client.Message, error)) *client.Producer {
	t.Helper()
	cli, err := s.NewClient("flush-test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	p := client.NewProducer(cli, client.ProducerConfig{
		Acks: client.AcksAll, Linger: time.Hour, BatchBytes: 1 << 30, OnError: onError,
	})
	t.Cleanup(func() { p.Close() })
	return p
}

// sendRound buffers one record "partition/round" for every partition.
func sendRound(t *testing.T, p *client.Producer, topic string, round int) {
	t.Helper()
	for part := int32(0); part < flushPartitions; part++ {
		msg := client.Message{Topic: topic, Partition: part, Value: []byte(fmt.Sprintf("%d/%d", part, round))}
		if err := p.SendExplicit(msg); err != nil {
			t.Fatal(err)
		}
	}
}

// scanRounds reads every partition from its start to its committed end and
// returns, per partition, the rounds found in log order.
func scanRounds(t *testing.T, s *core.Stack, topic string) [][]int {
	t.Helper()
	out := make([][]int, flushPartitions)
	for part := int32(0); part < flushPartitions; part++ {
		end, err := s.Client().ListOffset(topic, part, wire.TimestampLatest)
		if err != nil {
			t.Fatal(err)
		}
		cons := s.NewConsumer(client.ConsumerConfig{})
		if err := cons.Assign(topic, part, client.StartEarliest); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for cons.Position(topic, part) < end {
			if time.Now().After(deadline) {
				t.Fatalf("scan of %s/%d stalled at %d/%d", topic, part, cons.Position(topic, part), end)
			}
			msgs, err := cons.Poll(250 * time.Millisecond)
			if err != nil {
				continue
			}
			for _, m := range msgs {
				ps, rs, _ := strings.Cut(string(m.Value), "/")
				round, err := strconv.Atoi(rs)
				if err != nil || ps != strconv.Itoa(int(part)) {
					t.Fatalf("partition %d holds foreign value %q", part, m.Value)
				}
				out[part] = append(out[part], round)
			}
		}
		cons.Close()
	}
	return out
}

func TestFlushIsOneProduceRequestPerLeader(t *testing.T) {
	s := startFailoverStack(t)
	const topic = "per-leader"
	if err := s.CreateFeed(topic, flushPartitions, 3); err != nil {
		t.Fatal(err)
	}
	p := flushProducer(t, s, nil)
	// A first flush settles what a fresh topic legitimately retries on:
	// brokers still adopting their replicas answer not-leader.
	sendRound(t, p, topic, 0)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	for flush := 0; flush < 2; flush++ {
		leaders := make(map[int32]bool)
		for part := int32(0); part < flushPartitions; part++ {
			st, err := s.PartitionState(topic, part)
			if err != nil {
				t.Fatal(err)
			}
			leaders[st.Leader] = true
		}
		if len(leaders) < 2 {
			t.Fatalf("all %d partitions on one leader: the test would prove nothing", flushPartitions)
		}
		before := produceRequests(s)
		for r := 0; r < rounds; r++ {
			sendRound(t, p, topic, 1+flush*rounds+r)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := produceRequests(s) - before; got != int64(len(leaders)) {
			t.Fatalf("flush %d: %d produce requests for %d partitions on %d leaders, want one per leader",
				flush, got, flushPartitions, len(leaders))
		}
	}
	for part, got := range scanRounds(t, s, topic) {
		if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("partition %d holds rounds %v, want %v", part, got, want)
		}
	}
}

// TestFlushAcrossLeaderKillExactlyOnceInOrder kills a partition leader while
// multi-partition flushes stream without pause. The request to the dead
// leader fails while its siblings succeed, so the flush resolves partition
// by partition: the survivors' acks stand, the rest are regrouped onto their
// new leaders and resent as the same stamped bytes, which the broker
// deduplicates if the first copy had been replicated. Every round whose
// Flush returned nil must be in every partition exactly once, no record may
// appear twice, and each partition's rounds must rise.
func TestFlushAcrossLeaderKillExactlyOnceInOrder(t *testing.T) {
	s := startFailoverStack(t)
	const topic = "flush-failover"
	if err := s.CreateFeed(topic, flushPartitions, 3); err != nil {
		t.Fatal(err)
	}
	p := flushProducer(t, s, func(client.Message, error) {})
	acked := make(map[int]bool)
	round := 0
	flushRounds := func(n int, timeout time.Duration) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for got := 0; got < n; round++ {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d rounds acked before timeout", got, n)
			}
			sendRound(t, p, topic, round)
			if p.Flush() == nil {
				acked[round] = true
				got++
			}
		}
	}
	flushRounds(20, 20*time.Second)
	st, err := s.PartitionState(topic, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Kill from the side so a flush is in flight when the leader dies.
	killed := make(chan bool, 1)
	go func() {
		time.Sleep(5 * time.Millisecond)
		killed <- s.KillBroker(st.Leader)
	}()
	flushRounds(60, 60*time.Second)
	if !<-killed {
		t.Fatalf("kill broker %d failed", st.Leader)
	}
	if now, _ := s.PartitionState(topic, 0); now.Leader == st.Leader {
		t.Fatalf("leadership still on killed broker %d", st.Leader)
	}

	for part, rounds := range scanRounds(t, s, topic) {
		seen := make(map[int]bool)
		last := -1
		for _, r := range rounds {
			if seen[r] {
				t.Errorf("partition %d: round %d appears twice", part, r)
			}
			seen[r] = true
			if r <= last {
				t.Errorf("partition %d: round %d after round %d", part, r, last)
			}
			last = r
		}
		for r := range acked {
			if !seen[r] {
				t.Errorf("partition %d: acked round %d missing", part, r)
			}
		}
	}
}
