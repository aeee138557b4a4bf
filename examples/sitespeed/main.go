// Sitespeed reproduces the paper's "site speed monitoring" use case
// (§5.1): real-user-monitoring events carrying page, region, CDN and load
// time flow into the messaging layer; a processing-layer job groups them
// by CDN and region in tumbling windows and publishes aggregates; an
// anomaly detector consumes the aggregate feed and flags a degraded CDN
// within seconds — instead of the hours a batch pipeline would take.
//
// Paper claim: this example is the check. It exits non-zero unless the
// degraded CDN is flagged within 30 s, and CI runs it on every change; the
// underlying latency claim is the standing benchmark's pipeline workload.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	liquid "repro"
	"repro/internal/workload"
)

// aggKey groups RUM events.
type aggKey struct {
	CDN    string `json:"cdn"`
	Region string `json:"region"`
}

// aggregate is a window's summary for one (CDN, region).
type aggregate struct {
	aggKey
	Count     int64 `json:"count"`
	MeanLoad  int64 `json:"meanLoadMs"`
	WindowEnd int64 `json:"windowEnd"`
}

// rumAggTask accumulates per-(CDN, region) sums and emits them on each
// window boundary.
type rumAggTask struct {
	counts map[aggKey]int64
	sums   map[aggKey]int64
}

func (t *rumAggTask) Init(*liquid.TaskContext) error {
	t.counts = make(map[aggKey]int64)
	t.sums = make(map[aggKey]int64)
	return nil
}

func (t *rumAggTask) Process(msg liquid.Message, _ *liquid.TaskContext, _ *liquid.Collector) error {
	ev, err := workload.DecodeRUM(msg.Value)
	if err != nil {
		return nil // tolerate malformed events; cleaning is upstream
	}
	k := aggKey{CDN: ev.CDN, Region: ev.Region}
	t.counts[k]++
	t.sums[k] += ev.LoadMs
	return nil
}

func (t *rumAggTask) Window(_ *liquid.TaskContext, out *liquid.Collector) error {
	now := time.Now().UnixMilli()
	for k, n := range t.counts {
		agg := aggregate{aggKey: k, Count: n, MeanLoad: t.sums[k] / n, WindowEnd: now}
		b, _ := json.Marshal(agg)
		key, _ := json.Marshal(k)
		if err := out.Send("rum-aggregates", key, b); err != nil {
			return err
		}
	}
	t.counts = make(map[aggKey]int64)
	t.sums = make(map[aggKey]int64)
	return nil
}

func main() {
	stack, err := liquid.Start(liquid.Config{Brokers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Shutdown()
	for _, feed := range []string{"rum-events", "rum-aggregates"} {
		if err := stack.CreateFeed(feed, 2, 1); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := stack.RunJob(liquid.JobConfig{
		Name:           "sitespeed",
		Inputs:         []string{"rum-events"},
		Factory:        func() liquid.StreamTask { return &rumAggTask{} },
		WindowInterval: 300 * time.Millisecond,
		PollWait:       50 * time.Millisecond,
	}); err != nil {
		log.Fatal(err)
	}

	// Front-end servers publish RUM events; cdn-beta is degraded.
	gen := workload.NewRUM(workload.RUMConfig{
		Seed:    42,
		SlowCDN: "cdn-beta",
	}, time.Now().UnixMilli())
	producer := stack.NewProducer(liquid.ProducerConfig{})
	defer producer.Close()
	degradedSince := time.Now()
	go func() {
		for i := 0; ; i++ {
			ev := gen.Next()
			producer.Send(liquid.Message{
				Topic: "rum-events",
				Key:   []byte(ev.SessionID),
				Value: ev.Encode(),
			})
			if i%200 == 0 {
				time.Sleep(10 * time.Millisecond) // ~20k events/s
			}
		}
	}()

	// The back-end anomaly detector consumes pre-aggregated data.
	consumer := stack.NewConsumer(liquid.ConsumerConfig{})
	defer consumer.Close()
	for p := int32(0); p < 2; p++ {
		consumer.Assign("rum-aggregates", p, liquid.StartEarliest)
	}
	baseline := map[string][]int64{} // cdn -> mean samples
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		msgs, err := consumer.Poll(200 * time.Millisecond)
		if err != nil {
			continue
		}
		for _, m := range msgs {
			var agg aggregate
			if json.Unmarshal(m.Value, &agg) != nil {
				continue
			}
			baseline[agg.CDN] = append(baseline[agg.CDN], agg.MeanLoad)
			if agg.MeanLoad > 600 && agg.Count >= 10 {
				fmt.Printf("ANOMALY: %s in %s mean load %dms over %d requests (detected %.1fs after degradation began)\n",
					agg.CDN, agg.Region, agg.MeanLoad, agg.Count,
					time.Since(degradedSince).Seconds())
				fmt.Println("action: reroute traffic away from", agg.CDN)
				summarize(baseline)
				return
			}
		}
	}
	log.Fatal("no anomaly detected within 30s")
}

// summarize prints mean load per CDN so the healthy/degraded contrast is
// visible.
func summarize(baseline map[string][]int64) {
	fmt.Println("per-CDN mean load across windows:")
	for cdn, samples := range baseline {
		var sum int64
		for _, s := range samples {
			sum += s
		}
		fmt.Printf("  %-10s %5dms over %d windows\n", cdn, sum/int64(len(samples)), len(samples))
	}
}
