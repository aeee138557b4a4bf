// Callgraph reproduces the paper's "call graph assembly" use case (§5.1):
// every REST call of a page view is logged to the messaging layer with a
// shared request id; a processing-layer job buffers spans per request,
// assembles completed call trees, and publishes them to a derived feed
// within seconds — where the pre-Liquid batch pipeline assembled graphs
// from DFS logs hours after the fact. A monitoring consumer reads the
// assembled graphs and pinpoints the slowest service.
//
// Paper claim: the seconds-not-hours claim behind this pipeline is measured
// by the standing benchmark's pipeline workload, and checked for the
// site-speed use case by examples/sitespeed.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"time"

	liquid "repro"
	"repro/internal/workload"
)

// trace is an assembled call graph.
type trace struct {
	RequestID string               `json:"reqId"`
	Spans     []workload.CallEvent `json:"spans"`
	TotalMs   int64                `json:"totalMs"`
	Critical  string               `json:"slowestService"`
}

// assembleTask buffers spans per request id and emits a request's tree
// once no new span has arrived for a settle window.
type assembleTask struct {
	pending  map[string][]workload.CallEvent
	lastSeen map[string]time.Time
}

func (t *assembleTask) Init(*liquid.TaskContext) error {
	t.pending = make(map[string][]workload.CallEvent)
	t.lastSeen = make(map[string]time.Time)
	return nil
}

func (t *assembleTask) Process(msg liquid.Message, _ *liquid.TaskContext, _ *liquid.Collector) error {
	ev, err := workload.DecodeCall(msg.Value)
	if err != nil {
		return nil
	}
	t.pending[ev.RequestID] = append(t.pending[ev.RequestID], ev)
	t.lastSeen[ev.RequestID] = time.Now()
	return nil
}

func (t *assembleTask) Window(_ *liquid.TaskContext, out *liquid.Collector) error {
	settle := 200 * time.Millisecond
	now := time.Now()
	for reqID, spans := range t.pending {
		if now.Sub(t.lastSeen[reqID]) < settle {
			continue
		}
		tr := trace{RequestID: reqID, Spans: spans}
		var worst int64 = -1
		for _, s := range spans {
			tr.TotalMs += s.DurMs
			if s.DurMs > worst {
				worst = s.DurMs
				tr.Critical = s.Service
			}
		}
		b, _ := json.Marshal(tr)
		if err := out.Send("call-graphs", []byte(reqID), b); err != nil {
			return err
		}
		delete(t.pending, reqID)
		delete(t.lastSeen, reqID)
	}
	return nil
}

func main() {
	stack, err := liquid.Start(liquid.Config{Brokers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Shutdown()
	for _, feed := range []string{"rest-calls", "call-graphs"} {
		if err := stack.CreateFeed(feed, 4, 1); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := stack.RunJob(liquid.JobConfig{
		Name:           "assembler",
		Inputs:         []string{"rest-calls"},
		Factory:        func() liquid.StreamTask { return &assembleTask{} },
		WindowInterval: 100 * time.Millisecond,
		PollWait:       50 * time.Millisecond,
	}); err != nil {
		log.Fatal(err)
	}

	// Front-end machines log REST calls; graph-svc is misbehaving.
	gen := workload.NewCallGraph(workload.CallGraphConfig{
		Seed:        7,
		FanOut:      3,
		MaxDepth:    3,
		SlowService: "graph-svc",
	}, time.Now().UnixMilli())
	producer := stack.NewProducer(liquid.ProducerConfig{})
	defer producer.Close()
	rng := rand.New(rand.NewSource(1))
	const totalTraces = 50
	for i := 0; i < totalTraces; i++ {
		spans := gen.NextTrace()
		// Spans arrive interleaved and out of order in production.
		rng.Shuffle(len(spans), func(a, b int) { spans[a], spans[b] = spans[b], spans[a] })
		for _, s := range spans {
			// Keyed by request id: all spans of a request land in one
			// partition, so one task sees the whole tree.
			producer.Send(liquid.Message{
				Topic: "rest-calls",
				Key:   []byte(s.RequestID),
				Value: s.Encode(),
			})
		}
	}
	if err := producer.Flush(); err != nil {
		log.Fatal(err)
	}
	ingestDone := time.Now()

	// Monitoring reads assembled graphs from the derived feed.
	consumer := stack.NewConsumer(liquid.ConsumerConfig{})
	defer consumer.Close()
	for p := int32(0); p < 4; p++ {
		consumer.Assign("call-graphs", p, liquid.StartEarliest)
	}
	slowest := map[string]int{}
	assembled := 0
	deadline := time.Now().Add(30 * time.Second)
	for assembled < totalTraces && time.Now().Before(deadline) {
		msgs, err := consumer.Poll(200 * time.Millisecond)
		if err != nil {
			continue
		}
		for _, m := range msgs {
			var tr trace
			if json.Unmarshal(m.Value, &tr) != nil {
				continue
			}
			assembled++
			slowest[tr.Critical]++
		}
	}
	if assembled < totalTraces {
		log.Fatalf("assembled %d/%d traces", assembled, totalTraces)
	}
	fmt.Printf("assembled %d call graphs %.1fs after ingest finished\n",
		assembled, time.Since(ingestDone).Seconds())
	fmt.Println("slowest service per request:")
	for svc, n := range slowest {
		fmt.Printf("  %-12s critical in %d requests\n", svc, n)
	}
	if slowest["graph-svc"] > totalTraces/4 {
		fmt.Println("diagnosis: graph-svc is degrading page builds -> page the graph-svc oncall")
	}
}
