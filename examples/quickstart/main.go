// Quickstart: boot a Liquid stack, publish events to a feed, run a
// stateful processing job that counts events per user, and read the
// derived feed — the minimal end-to-end tour of both layers.
//
// Paper claim: the latency of this produce→process→consume shape, against
// the archive + MapReduce leg over the same feed, is measured by the
// standing benchmark's pipeline workload
// (bash benchmark/run.sh --workload pipeline).
package main

import (
	"fmt"
	"log"
	"strconv"
	"time"

	liquid "repro"
)

// countTask counts messages per key into the "counts" store and emits the
// running total to the "totals" feed.
type countTask struct{}

func (countTask) Process(msg liquid.Message, ctx *liquid.TaskContext, out *liquid.Collector) error {
	store := ctx.Store("counts")
	n := 0
	if v, ok, err := store.Get(msg.Key); err != nil {
		return err
	} else if ok {
		n, _ = strconv.Atoi(string(v))
	}
	n++
	if err := store.Put(msg.Key, []byte(strconv.Itoa(n))); err != nil {
		return err
	}
	return out.Send("totals", msg.Key, []byte(strconv.Itoa(n)))
}

func main() {
	stack, err := liquid.Start(liquid.Config{Brokers: 1})
	if err != nil {
		log.Fatalf("start stack: %v", err)
	}
	defer stack.Shutdown()

	// Source-of-truth feed and derived feed (paper §3).
	for _, feed := range []string{"events", "totals"} {
		if err := stack.CreateFeed(feed, 2, 1); err != nil {
			log.Fatalf("create feed %s: %v", feed, err)
		}
	}

	// A stateful ETL job on the processing layer.
	if _, err := stack.RunJob(liquid.JobConfig{
		Name:    "counter",
		Inputs:  []string{"events"},
		Factory: func() liquid.StreamTask { return countTask{} },
		Stores:  []liquid.StoreSpec{{Name: "counts"}},
	}); err != nil {
		log.Fatalf("run job: %v", err)
	}

	// Publish keyed events.
	producer := stack.NewProducer(liquid.ProducerConfig{})
	defer producer.Close()
	users := []string{"alice", "bob", "carol"}
	for i := 0; i < 12; i++ {
		user := users[i%len(users)]
		err := producer.Send(liquid.Message{
			Topic: "events",
			Key:   []byte(user),
			Value: []byte(fmt.Sprintf("click-%d", i)),
		})
		if err != nil {
			log.Fatalf("send: %v", err)
		}
	}
	if err := producer.Flush(); err != nil {
		log.Fatalf("flush: %v", err)
	}

	// Subscribe to the derived feed and watch totals arrive.
	consumer := stack.NewConsumer(liquid.ConsumerConfig{})
	defer consumer.Close()
	for p := int32(0); p < 2; p++ {
		if err := consumer.Assign("totals", p, liquid.StartEarliest); err != nil {
			log.Fatalf("assign: %v", err)
		}
	}
	final := map[string]string{}
	deadline := time.Now().Add(10 * time.Second)
	for len(final) < 3 || final["alice"] != "4" {
		if time.Now().After(deadline) {
			log.Fatalf("timed out; totals so far: %v", final)
		}
		msgs, err := consumer.Poll(200 * time.Millisecond)
		if err != nil {
			continue
		}
		for _, m := range msgs {
			final[string(m.Key)] = string(m.Value)
			fmt.Printf("totals: %s = %s (lineage %s)\n", m.Key, m.Value, lineage(m))
		}
	}
	fmt.Printf("final counts: %v\n", final)
}

// lineage extracts the producing job from the message's lineage header.
func lineage(m liquid.Message) string {
	for _, h := range m.Headers {
		if h.Key == "liquid.lineage" {
			return string(h.Value)
		}
	}
	return "unknown"
}
