package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
)

// E25ObservabilityOverhead measures what the PR-9 ops plane costs on the
// hot path: a concurrent acked produce workload plus a full read-back,
// run with instrumentation on (the default — every request timed into
// per-API histogram families, client-side e2e latency tracing,
// the 1s gauge exporter tick, and a live /metrics+pprof HTTP server) and
// off (DisableInstrumentation, no ops server). OS-flush durability keeps
// the path CPU-bound, the worst case for per-request bookkeeping.
//
// The reproduction target: instrumentation stays within 3% on both the
// produce and consume side. The design that makes this plausible: metric
// families are pre-resolved at startup so a request records via one
// read-locked map hit plus atomic adds, and the gauge families that walk
// broker state are rebuilt by a once-per-second tick, never per request
// or per scrape.
func E25ObservabilityOverhead(scale Scale) Table {
	t := Table{
		ID:      "E25",
		Title:   "Observability overhead: full request-path instrumentation + ops server vs bare broker",
		Claim:   "per-API latency/bytes/error families, e2e tracing and the /metrics exporter cost <3% end-to-end throughput",
		Headers: []string{"configuration", "records", "produce MB/s", "consume MB/s", "errors"},
	}

	const (
		valueBytes = 1 << 10
		producers  = 12
	)
	n := scale.pick(1800, 24000)
	// One read of the feed finishes in tens of milliseconds — far too
	// short to price a per-record cost. The consume side is measured
	// over repeated full read-backs so scheduler jitter and the 1s gauge
	// tick average out.
	readPasses := scale.pick(2, 8)

	cases := []struct {
		name    string
		disable bool
	}{
		{"instrumentation-off", true},
		{"instrumented", false},
	}
	produceMBps := make(map[string]float64, len(cases))
	consumeMBps := make(map[string]float64, len(cases))
	for _, c := range cases {
		s, err := newStack(1, func(cfg *core.Config) {
			cfg.DisableInstrumentation = c.disable
			if !c.disable {
				// The instrumented run carries a live ops server so the
				// scrape surface (HTTP listener, registered pprof mux)
				// is part of what is being priced, not just the counters.
				cfg.OpsAddr = "127.0.0.1:0"
			}
		})
		if err != nil {
			t.Notes = append(t.Notes, "failed: "+err.Error())
			return t
		}
		topic := "e25-feed"
		if err := s.CreateFeed(topic, 1, 1); err != nil {
			s.Shutdown()
			t.Notes = append(t.Notes, "failed: "+err.Error())
			return t
		}
		value := make([]byte, valueBytes)
		for i := range value {
			value[i] = byte('a' + i%26)
		}
		perProducer := n / producers
		total := perProducer * producers
		var wg sync.WaitGroup
		var sendErrs atomic.Int64
		start := time.Now()
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prod := s.NewProducer(client.ProducerConfig{
					Acks:       1,
					BatchBytes: 128 << 10,
				})
				defer prod.Close()
				for i := 0; i < perProducer; i++ {
					if err := prod.Send(client.Message{Topic: topic, Value: value}); err != nil {
						sendErrs.Add(1)
						return
					}
				}
				if err := prod.Flush(); err != nil {
					sendErrs.Add(1)
				}
			}()
		}
		wg.Wait()
		produceDur := time.Since(start)

		start = time.Now()
		got := 0
		var consumeErr error
		for pass := 0; pass < readPasses; pass++ {
			var g int
			if g, consumeErr = consumeCount(s, topic, 1, total, 60*time.Second); consumeErr != nil {
				break
			}
			got += g
		}
		consumeDur := time.Since(start)
		s.Shutdown()
		if consumeErr != nil {
			t.Notes = append(t.Notes, "failed: "+consumeErr.Error())
			return t
		}

		produceRate := float64(total) * valueBytes / produceDur.Seconds() / (1 << 20)
		consumeRate := float64(got) * valueBytes / consumeDur.Seconds() / (1 << 20)
		produceMBps[c.name] = produceRate
		consumeMBps[c.name] = consumeRate
		t.Rows = append(t.Rows, []string{
			c.name, fmt.Sprint(total), fmt.Sprintf("%.1f", produceRate),
			fmt.Sprintf("%.1f", consumeRate), fmt.Sprint(sendErrs.Load()),
		})
		t.Results = append(t.Results, Result{
			Name:          c.name,
			RecordsPerSec: float64(total) / produceDur.Seconds(),
			MBPerSec:      produceRate,
			Extra: map[string]string{
				"acked_records":      fmt.Sprint(total),
				"consumed_records":   fmt.Sprint(got),
				"read_passes":        fmt.Sprint(readPasses),
				"consume_mb_per_sec": fmt.Sprintf("%.1f", consumeRate),
				"concurrent_senders": fmt.Sprint(producers),
				"producer_errors":    fmt.Sprint(sendErrs.Load()),
			},
		})
	}
	if off, on := produceMBps["instrumentation-off"], produceMBps["instrumented"]; off > 0 && on > 0 {
		overhead := (off - on) / off * 100
		t.Results[len(t.Results)-1].Extra["produce_overhead_pct_vs_off"] = fmt.Sprintf("%.1f", overhead)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"produce overhead: %.1f%% vs instrumentation-off (target < 3%%; negative means within noise)", overhead))
	}
	if off, on := consumeMBps["instrumentation-off"], consumeMBps["instrumented"]; off > 0 && on > 0 {
		overhead := (off - on) / off * 100
		t.Results[len(t.Results)-1].Extra["consume_overhead_pct_vs_off"] = fmt.Sprintf("%.1f", overhead)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"consume overhead: %.1f%% vs instrumentation-off (target < 3%%; negative means within noise)", overhead))
	}
	t.Notes = append(t.Notes,
		"both runs use 12 concurrent acks=1 producers then repeated full read-backs, 1 KiB values, one partition, OS-flush durability; the instrumented run also serves /metrics+pprof and runs the 1s gauge exporter tick")
	return t
}
