// Opsmetrics: boot a Liquid stack with the per-broker ops plane enabled,
// run a small produce/consume workload, then scrape each broker's
// /metrics endpoint like a monitoring system would — lint the exposition,
// print the headline request-path series, and show the consumer-lag
// gauges a dashboard alert would key on. The instrumentation is always on:
// the standing benchmark (benchmark/run.sh) measures its cost as part of
// every workload's cpu_us_per_rec.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"time"

	liquid "repro"
	"repro/internal/obs"
)

func main() {
	// OpsAddr gives every broker its own HTTP ops server: ":0" picks an
	// ephemeral port per broker, read back via stack.OpsAddrs().
	stack, err := liquid.Start(liquid.Config{Brokers: 3, OpsAddr: "127.0.0.1:0"})
	if err != nil {
		log.Fatalf("start stack: %v", err)
	}
	defer stack.Shutdown()

	if err := stack.CreateFeed("events", 2, 3); err != nil {
		log.Fatalf("create feed: %v", err)
	}

	// A little traffic so the request-path families have something to say.
	p := stack.NewProducer(liquid.ProducerConfig{})
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("user-%d", i%17))
		if _, err := p.SendSync(liquid.Message{Topic: "events", Key: key, Value: []byte("click")}); err != nil {
			log.Fatalf("produce: %v", err)
		}
	}
	p.Close()

	c := stack.NewConsumer(liquid.ConsumerConfig{})
	for part := int32(0); part < 2; part++ {
		if err := c.Assign("events", part, liquid.StartEarliest); err != nil {
			log.Fatalf("assign: %v", err)
		}
	}
	seen := 0
	for deadline := time.Now().Add(10 * time.Second); seen < 500 && time.Now().Before(deadline); {
		msgs, err := c.Poll(200 * time.Millisecond)
		if err != nil {
			log.Fatalf("poll: %v", err)
		}
		seen += len(msgs)
	}
	c.Close()
	fmt.Printf("produced 500, consumed %d\n\n", seen)

	// A group parked at offset 0 is maximally behind — its lag shows up
	// on the coordinator's gauge within one exporter tick (1s).
	cli := stack.Client()
	if err := cli.CommitOffsets("dashboard", map[string]map[int32]int64{"events": {0: 0, 1: 0}}, nil); err != nil {
		log.Fatalf("commit: %v", err)
	}
	time.Sleep(1500 * time.Millisecond)

	// Scrape every broker the way Prometheus would, and hold each body to
	// the exposition-format rules (typed families, unique series, monotone
	// histogram buckets).
	for i, addr := range stack.OpsAddrs() {
		body, err := scrape(addr)
		if err != nil {
			log.Fatalf("scrape broker %d: %v", i+1, err)
		}
		samples, err := obs.LintExposition(body)
		if err != nil {
			log.Fatalf("broker %d exposition not lint-clean: %v", i+1, err)
		}
		fmt.Printf("broker %d (%s): %d samples, lint-clean\n", i+1, addr, len(samples))
		for _, s := range samples {
			switch {
			case s.Name == "broker_api_requests" && s.Label("api") == "produce",
				s.Name == "broker_api_requests" && s.Label("api") == "fetch",
				s.Name == "broker_group_lag" && s.Label("group") == "dashboard":
				fmt.Printf("  %s%s %g\n", s.Name, formatLabels(s.Labels), s.Value)
			}
		}
	}

	// The same lag, through the admin client (what `liquid-admin lag`
	// prints).
	entries, err := cli.GroupLag("dashboard")
	if err != nil {
		log.Fatalf("group lag: %v", err)
	}
	fmt.Println("\nconsumer lag for group \"dashboard\":")
	for _, e := range entries {
		fmt.Printf("  %s/%d committed=%d end=%d lag=%d\n",
			e.Topic, e.Partition, e.Committed, e.HighWatermark, e.Lag)
	}
}

// formatLabels renders a label map in exposition style, sorted for stable
// output.
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := "{"
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%s=%q", k, labels[k])
	}
	return out + "}"
}

func scrape(addr string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
