package bench

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
)

// E17Availability measures what §4.3's fault tolerance costs and buys:
// acks=all produce latency (p50/p99) on a healthy replicated partition,
// the time-to-recover when the partition leader is forcibly killed, produce
// latency through the failover window, and — the invariant the design
// exists for — zero acknowledged records lost across the hand-over. The
// stack runs on the chaos transport (internal/chaos) end to end, so the
// numbers include the injectable network path the failure suite uses.
func E17Availability(scale Scale) Table {
	t := Table{
		ID:      "E17",
		Title:   "availability: produce latency and time-to-recover across leader failover",
		Claim:   "§4.3: a hand-over process selects a new leader among the followers; committed data survives and service resumes within the liveness-detection window",
		Headers: []string{"phase", "produces", "p50 ms", "p99 ms"},
	}
	const sessionTimeout = 750 * time.Millisecond
	net := chaos.NewNetwork(17)
	s, err := core.Start(core.Config{
		Brokers:        3,
		SessionTimeout: sessionTimeout,
		Chaos:          net,
		Logger:         quietLogger(),
	})
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer s.Shutdown()
	const topic = "avail"
	if err := s.CreateFeed(topic, 1, 3); err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	p := s.NewProducer(client.ProducerConfig{Acks: client.AcksAll})
	defer p.Close()

	n := scale.pick(150, 600)
	var acked []string
	producePhase := func(phase string) durations {
		var lat durations
		for i := 0; i < n; i++ {
			v := fmt.Sprintf("%s-%06d", phase, i)
			t0 := time.Now()
			if _, err := p.SendSync(client.Message{Topic: topic, Key: []byte("k"), Value: []byte(v)}); err == nil {
				lat = append(lat, time.Since(t0))
				acked = append(acked, v)
			}
		}
		return lat
	}

	healthy := producePhase("healthy")

	// Force the failover: crash the leader, then hammer produces until one
	// succeeds — that first success marks recovery (§4.3's hand-over is
	// bounded below by the session-liveness window).
	leader, err := s.Client().LeaderFor(topic, 0)
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	killAt := time.Now()
	s.KillBroker(leader)
	failedAttempts := 0
	var ttr time.Duration
	for {
		v := fmt.Sprintf("failover-%06d", failedAttempts)
		if _, err := p.SendSync(client.Message{Topic: topic, Key: []byte("k"), Value: []byte(v)}); err == nil {
			ttr = time.Since(killAt)
			acked = append(acked, v)
			break
		}
		failedAttempts++
		if time.Since(killAt) > 60*time.Second {
			t.Notes = append(t.Notes, "failed: cluster never recovered")
			return t
		}
	}

	recovered := producePhase("post-failover")

	// The §4.3 invariant: every acknowledged record survives the failover.
	lost := countLost(s, topic, acked)

	t.Rows = append(t.Rows,
		[]string{"healthy (acks=all)", fmt.Sprint(len(healthy)), ms(healthy.p(0.5)), ms(healthy.p(0.99))},
		[]string{"post-failover", fmt.Sprint(len(recovered)), ms(recovered.p(0.5)), ms(recovered.p(0.99))},
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("time-to-recover %s after leader kill (session timeout %s, %d failed attempts); %d/%d acked records survived",
			ttr.Round(time.Millisecond), sessionTimeout, failedAttempts, len(acked)-lost, len(acked)),
		"expected shape: TTR ≈ session timeout + election; p99 recovers to healthy levels; zero acked loss")
	return t
}

// countLost scans the partition (via the chaos harness's canonical scan,
// which surfaces a stalled read as an error instead of undercounting) and
// returns how many acked values are missing.
func countLost(s *core.Stack, topic string, acked []string) int {
	scan, err := chaos.ScanFeed(s.Client(), topic, 1, 30*time.Second)
	if err != nil {
		return len(acked) // unscannable feed: report everything as at risk
	}
	lost := 0
	for _, v := range acked {
		if scan.Values[v] == 0 {
			lost++
		}
	}
	return lost
}
