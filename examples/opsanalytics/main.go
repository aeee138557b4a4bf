// Opsanalytics reproduces the paper's "operational analysis" use case
// (§5.1): metrics and logs from the fleet are transported by the messaging
// layer; a processing-layer job maintains rolling per-host statistics and
// publishes alert events when error rates spike, so incidents are caught
// while they happen rather than after a post-hoc DFS scan. Integrating a
// new metric source is just producing to the feed.
//
// Paper claim: detection latency of this shape is measured by the standing
// benchmark's pipeline workload; the guarantee that a stalled dashboard
// consumer cannot stall ingestion is held by the broker test
// TestSlowConsumerDoesNotBlockProducerOrFastConsumer.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	liquid "repro"
	"repro/internal/workload"
)

// alert is published to the alerts feed when a host misbehaves.
type alert struct {
	Host     string  `json:"host"`
	Metric   string  `json:"metric"`
	Rate     float64 `json:"rate"`
	Samples  int     `json:"samples"`
	RaisedAt int64   `json:"raisedAt"`
}

// opsTask keeps a rolling window of error rates per host.
type opsTask struct {
	sums    map[string]float64
	samples map[string]int
	raised  map[string]bool
}

func (t *opsTask) Init(*liquid.TaskContext) error {
	t.sums = make(map[string]float64)
	t.samples = make(map[string]int)
	t.raised = make(map[string]bool)
	return nil
}

func (t *opsTask) Process(msg liquid.Message, _ *liquid.TaskContext, _ *liquid.Collector) error {
	ev, err := workload.DecodeMetric(msg.Value)
	if err != nil || ev.Name != "errors.rate" {
		return nil
	}
	t.sums[ev.Host] += ev.Value
	t.samples[ev.Host]++
	return nil
}

func (t *opsTask) Window(_ *liquid.TaskContext, out *liquid.Collector) error {
	for host, sum := range t.sums {
		n := t.samples[host]
		if n < 5 {
			continue
		}
		rate := sum / float64(n)
		if rate > 10 && !t.raised[host] {
			t.raised[host] = true
			b, _ := json.Marshal(alert{
				Host: host, Metric: "errors.rate", Rate: rate,
				Samples: n, RaisedAt: time.Now().UnixMilli(),
			})
			if err := out.Send("alerts", []byte(host), b); err != nil {
				return err
			}
		}
	}
	t.sums = make(map[string]float64)
	t.samples = make(map[string]int)
	return nil
}

func main() {
	stack, err := liquid.Start(liquid.Config{Brokers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Shutdown()
	for _, feed := range []string{"metrics", "alerts"} {
		if err := stack.CreateFeed(feed, 2, 1); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := stack.RunJob(liquid.JobConfig{
		Name:           "ops",
		Inputs:         []string{"metrics"},
		Factory:        func() liquid.StreamTask { return &opsTask{} },
		WindowInterval: 200 * time.Millisecond,
		PollWait:       50 * time.Millisecond,
	}); err != nil {
		log.Fatal(err)
	}

	// The fleet reports metrics; host-013 is failing. A new data source
	// (mobile crash reports, say) would just be another producer.
	gen := workload.NewMetrics(workload.MetricsConfig{
		Seed: 99, Hosts: 30, SpikeHost: "host-013",
	}, time.Now().UnixMilli())
	producer := stack.NewProducer(liquid.ProducerConfig{})
	defer producer.Close()
	incidentStart := time.Now()
	go func() {
		for i := 0; ; i++ {
			ev := gen.Next()
			producer.Send(liquid.Message{Topic: "metrics", Key: []byte(ev.Host), Value: ev.Encode()})
			if i%500 == 0 {
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()

	// The on-call dashboard subscribes to alerts.
	consumer := stack.NewConsumer(liquid.ConsumerConfig{})
	defer consumer.Close()
	for p := int32(0); p < 2; p++ {
		consumer.Assign("alerts", p, liquid.StartEarliest)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		msgs, err := consumer.Poll(200 * time.Millisecond)
		if err != nil {
			continue
		}
		for _, m := range msgs {
			var a alert
			if json.Unmarshal(m.Value, &a) != nil {
				continue
			}
			fmt.Printf("ALERT: %s %s=%.1f over %d samples (%.1fs after incident began)\n",
				a.Host, a.Metric, a.Rate, a.Samples, time.Since(incidentStart).Seconds())
			if a.Host == "host-013" {
				fmt.Println("action: drain and reimage host-013")
				return
			}
		}
	}
	log.Fatal("no alert within 30s")
}
