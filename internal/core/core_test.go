package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/processing"
	"repro/internal/wire"
)

func startTestStack(t *testing.T, brokers int) *Stack {
	t.Helper()
	s, err := Start(Config{Brokers: brokers, SessionTimeout: 700 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func TestStackLifecycle(t *testing.T) {
	s := startTestStack(t, 1)
	if len(s.Addrs()) != 1 {
		t.Fatalf("addrs = %v", s.Addrs())
	}
	if s.Client() == nil || s.Metrics() == nil || s.DataDir() == "" {
		t.Fatal("accessors broken")
	}
	// Shutdown is idempotent.
	s.Shutdown()
	s.Shutdown()
}

func TestStackProduceConsume(t *testing.T) {
	s := startTestStack(t, 1)
	if err := s.CreateFeed("f", 2, 1); err != nil {
		t.Fatal(err)
	}
	p := s.NewProducer(client.ProducerConfig{})
	defer p.Close()
	for i := 0; i < 10; i++ {
		if err := p.Send(client.Message{Topic: "f", Value: []byte(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	cons := s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	cons.Assign("f", 0, client.StartEarliest)
	cons.Assign("f", 1, client.StartEarliest)
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got < 10 && time.Now().Before(deadline) {
		msgs, err := cons.Poll(200 * time.Millisecond)
		if err != nil {
			continue
		}
		got += len(msgs)
	}
	if got != 10 {
		t.Fatalf("consumed %d/10", got)
	}
}

func TestStackMultiBrokerSpreadsLeadership(t *testing.T) {
	s := startTestStack(t, 3)
	if err := s.CreateFeed("spread", 6, 2); err != nil {
		t.Fatal(err)
	}
	leaders := map[int32]int{}
	for p := int32(0); p < 6; p++ {
		l, err := s.Client().LeaderFor("spread", p)
		if err != nil {
			t.Fatal(err)
		}
		leaders[l]++
	}
	if len(leaders) != 3 {
		t.Fatalf("leadership on %d/3 brokers: %v", len(leaders), leaders)
	}
}

// TestStackManyTopicsServeTraffic is the paper's many-topics deployment
// (§5) at small scale: 20 topics × 4 partitions on 3 brokers all have a
// live leader in metadata, and a sample of them serves exactly the records
// produced to it.
func TestStackManyTopicsServeTraffic(t *testing.T) {
	const topics, parts, perTopic = 20, 4, 50
	s := startTestStack(t, 3)
	name := func(i int) string { return fmt.Sprintf("feed-%02d", i) }
	for i := 0; i < topics; i++ {
		if err := s.CreateFeed(name(i), parts, 1); err != nil {
			t.Fatal(err)
		}
	}

	cli := s.Client()
	if err := cli.RefreshMetadata(); err != nil {
		t.Fatal(err)
	}
	brokers, err := cli.Brokers()
	if err != nil {
		t.Fatal(err)
	}
	live := map[int32]bool{}
	for _, b := range brokers {
		live[b.ID] = true
	}
	if len(live) != 3 {
		t.Fatalf("metadata lists %d live brokers, want 3", len(live))
	}
	for i := 0; i < topics; i++ {
		n, err := cli.PartitionCount(name(i))
		if err != nil || n != parts {
			t.Fatalf("%s: %d partitions in metadata (%v), want %d", name(i), n, err, parts)
		}
		for p := int32(0); p < parts; p++ {
			l, err := cli.LeaderFor(name(i), p)
			if err != nil || !live[l] {
				t.Fatalf("%s/%d: leader %d (%v), want one of %v", name(i), p, l, err, live)
			}
		}
	}

	p := s.NewProducer(client.ProducerConfig{Acks: client.AcksAll})
	defer p.Close()
	for i := 0; i < topics; i += 4 {
		for j := 0; j < perTopic; j++ {
			msg := client.Message{Topic: name(i), Key: []byte(fmt.Sprint(j)), Value: []byte(fmt.Sprintf("%s/%d", name(i), j))}
			if err := p.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < topics; i += 4 {
		var end int64
		for part := int32(0); part < parts; part++ {
			off, err := cli.ListOffset(name(i), part, wire.TimestampLatest)
			if err != nil {
				t.Fatal(err)
			}
			end += off
		}
		if end != perTopic {
			t.Fatalf("%s holds %d records, want %d", name(i), end, perTopic)
		}
		seen := map[string]bool{}
		func() {
			cons := s.NewConsumer(client.ConsumerConfig{})
			defer cons.Close()
			for part := int32(0); part < parts; part++ {
				if err := cons.Assign(name(i), part, client.StartEarliest); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for len(seen) < perTopic && time.Now().Before(deadline) {
				msgs, err := cons.Poll(200 * time.Millisecond)
				if err != nil {
					continue
				}
				for _, m := range msgs {
					if seen[string(m.Value)] {
						t.Fatalf("%s: %q read twice", name(i), m.Value)
					}
					seen[string(m.Value)] = true
				}
			}
		}()
		for j := 0; j < perTopic; j++ {
			if v := fmt.Sprintf("%s/%d", name(i), j); !seen[v] {
				t.Fatalf("%s: read %d of %d records, %q missing", name(i), len(seen), perTopic, v)
			}
		}
	}
}

func TestStackKillBroker(t *testing.T) {
	s := startTestStack(t, 3)
	if err := s.CreateFeed("kb", 1, 3); err != nil {
		t.Fatal(err)
	}
	p := s.NewProducer(client.ProducerConfig{Acks: client.AcksAll})
	defer p.Close()
	if _, err := p.SendSync(client.Message{Topic: "kb", Value: []byte("before")}); err != nil {
		t.Fatal(err)
	}
	leader, _ := s.Client().LeaderFor("kb", 0)
	if !s.KillBroker(leader) {
		t.Fatal("kill returned false")
	}
	if s.KillBroker(99) {
		t.Fatal("killing unknown broker returned true")
	}
	if s.Broker(leader) == nil {
		t.Fatal("killed broker should still be addressable in the struct")
	}
	// Produce recovers after failover.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := p.SendSync(client.Message{Topic: "kb", Value: []byte("after")}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("produce never recovered after kill")
		}
	}
}

func TestStackRunJobWiring(t *testing.T) {
	s := startTestStack(t, 1)
	s.CreateFeed("ji", 1, 1)
	s.CreateFeed("jo", 1, 1)
	job, err := s.RunJob(processing.JobConfig{
		Name:   "wire",
		Inputs: []string{"ji"},
		Factory: func() processing.StreamTask {
			return processing.TaskFunc(func(msg client.Message, _ *processing.TaskContext, out *processing.Collector) error {
				return out.Send("jo", msg.Key, msg.Value)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.NumTasks() != 1 {
		t.Fatalf("tasks = %d", job.NumTasks())
	}
	p := s.NewProducer(client.ProducerConfig{})
	defer p.Close()
	p.SendSync(client.Message{Topic: "ji", Value: []byte("x")})
	cons := s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	cons.Assign("jo", 0, client.StartEarliest)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		msgs, err := cons.Poll(200 * time.Millisecond)
		if err == nil && len(msgs) > 0 {
			return
		}
	}
	t.Fatal("job output never arrived")
}

func TestStackInvalidJob(t *testing.T) {
	s := startTestStack(t, 1)
	if _, err := s.RunJob(processing.JobConfig{}); err == nil {
		t.Fatal("invalid job accepted")
	}
	// Jobs on missing inputs fail at Start.
	_, err := s.RunJob(processing.JobConfig{
		Name:    "bad",
		Inputs:  []string{"missing"},
		Factory: func() processing.StreamTask { return processing.TaskFunc(nil) },
	})
	if err == nil {
		t.Fatal("job on missing topic accepted")
	}
}

func TestStackTopicSpecPassthrough(t *testing.T) {
	s := startTestStack(t, 1)
	err := s.CreateTopic(wire.TopicSpec{
		Name:          "compacted-feed",
		NumPartitions: 1,
		Compacted:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTopic(wire.TopicSpec{Name: "compacted-feed", NumPartitions: 1}); err == nil {
		t.Fatal("duplicate create accepted")
	}
}

func TestStackDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Brokers != 1 || cfg.OffsetsPartitions == 0 || cfg.OffsetsReplication != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
	cfg3 := Config{Brokers: 3}.withDefaults()
	if cfg3.OffsetsReplication != 3 {
		t.Fatalf("3-broker offsets replication = %d, want 3", cfg3.OffsetsReplication)
	}
}
