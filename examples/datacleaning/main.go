// Datacleaning reproduces the paper's "data cleaning and normalization"
// use case (§5.1): user-generated profile updates are cleaned by an
// algorithm that engineers keep improving. Two requirements pull in
// different directions — new content must be cleaned with low latency, and
// when the algorithm changes, history must be re-processed so that all
// data was cleaned by the same code. Liquid serves both: the cleaning job
// runs nearline with annotated checkpoints (version=v1), and when v2
// ships, the job rewinds to the beginning of the feed and reprocesses —
// the derived feed being keyed and compacted, the latest (v2) cleaning
// wins for every profile.
//
// Paper claim: the rewind mechanics (annotated checkpoints, derived
// compacted feeds) are held by the processing tests
// TestStatefulJobRestoresFromChangelog (a restart processes only the
// delta) and TestRestoreReplaysOnlySuffix; compaction of the keyed derived
// feed by the internal/storage/compact tests.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	liquid "repro"
	"repro/internal/workload"
)

// cleanV1 lower-cases values (the first-generation normalizer).
func cleanV1(v string) string { return strings.ToLower(v) }

// cleanV2 also trims and collapses separators (the improved algorithm).
func cleanV2(v string) string {
	v = strings.ToLower(strings.TrimSpace(v))
	return strings.ReplaceAll(v, "-", " ")
}

// cleaningTask applies a cleaning function and emits keyed results.
type cleaningTask struct {
	version string
	clean   func(string) string
}

func (t cleaningTask) Process(msg liquid.Message, _ *liquid.TaskContext, out *liquid.Collector) error {
	upd, err := workload.DecodeProfile(msg.Value)
	if err != nil {
		return nil
	}
	cleaned := t.clean(upd.Value)
	key := []byte(upd.UserID + "/" + upd.Field)
	value := []byte(t.version + ":" + cleaned)
	return out.Send("profiles-clean", key, value)
}

func main() {
	stack, err := liquid.Start(liquid.Config{Brokers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Shutdown()
	if err := stack.CreateFeed("profile-updates", 2, 1); err != nil {
		log.Fatal(err)
	}
	// The derived feed is keyed and compacted: reprocessing overwrites.
	if err := stack.CreateTopic(liquid.TopicSpec{
		Name: "profiles-clean", NumPartitions: 2, ReplicationFactor: 1, Compacted: true,
	}); err != nil {
		log.Fatal(err)
	}

	// Users generate content.
	gen := workload.NewProfile(workload.ProfileConfig{Seed: 21, Users: 200}, time.Now().UnixMilli())
	producer := stack.NewProducer(liquid.ProducerConfig{})
	defer producer.Close()
	const updates = 400
	for i := 0; i < updates; i++ {
		upd := gen.Next()
		producer.Send(liquid.Message{Topic: "profile-updates", Key: []byte(upd.UserID), Value: upd.Encode()})
	}
	producer.Flush()

	// Phase 1: v1 cleans nearline, checkpointing with version=v1.
	v1, err := stack.RunJob(liquid.JobConfig{
		Name:               "cleaner",
		Inputs:             []string{"profile-updates"},
		Factory:            func() liquid.StreamTask { return cleaningTask{version: "v1", clean: cleanV1} },
		Annotations:        map[string]string{"version": "v1"},
		CheckpointInterval: 100 * time.Millisecond,
		PollWait:           50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	waitProcessed(v1, "cleaner", updates)
	v1.Stop()
	fmt.Printf("v1 cleaned %d updates nearline\n", updates)

	// The offset manager knows exactly where v1 got to (paper §4.2).
	for p := int32(0); p < 2; p++ {
		off, found, err := stack.Client().QueryOffset("job-cleaner", "profile-updates", p, "version", "v1")
		if err != nil || !found {
			log.Fatalf("v1 checkpoint lookup failed: %v", err)
		}
		fmt.Printf("v1 checkpoint: partition %d at offset %d\n", p, off)
	}

	// Phase 2: the algorithm changes. Reprocess everything with v2 by
	// running the job under a new name starting from the earliest offset
	// (the Kappa-style rewind §2.2/§4.2 makes cheap).
	start := time.Now()
	v2, err := stack.RunJob(liquid.JobConfig{
		Name:               "cleaner-v2",
		Inputs:             []string{"profile-updates"},
		Factory:            func() liquid.StreamTask { return cleaningTask{version: "v2", clean: cleanV2} },
		Annotations:        map[string]string{"version": "v2"},
		StartFrom:          liquid.StartEarliest,
		CheckpointInterval: 100 * time.Millisecond,
		PollWait:           50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	waitProcessed(v2, "cleaner-v2", updates)
	v2.Stop()
	fmt.Printf("v2 reprocessed %d updates in %.1fs\n", updates, time.Since(start).Seconds())

	// The compacted derived feed now holds v2 cleanings for every
	// profile field: read it back and verify.
	consumer := stack.NewConsumer(liquid.ConsumerConfig{})
	defer consumer.Close()
	latest := map[string]string{}
	for p := int32(0); p < 2; p++ {
		end, err := stack.Client().ListOffset("profiles-clean", p, -1)
		if err != nil {
			log.Fatal(err)
		}
		consumer.Assign("profiles-clean", p, liquid.StartEarliest)
		for consumer.Position("profiles-clean", p) < end {
			msgs, err := consumer.Poll(300 * time.Millisecond)
			if err != nil {
				continue
			}
			for _, m := range msgs {
				latest[string(m.Key)] = string(m.Value)
			}
		}
		consumer.Unassign("profiles-clean", p)
	}
	v2Count := 0
	for _, v := range latest {
		if strings.HasPrefix(v, "v2:") {
			v2Count++
		}
	}
	fmt.Printf("derived feed: %d profile fields, %d cleaned by v2 (latest algorithm)\n", len(latest), v2Count)
	if v2Count != len(latest) {
		log.Fatalf("%d fields still carry v1 cleanings", len(latest)-v2Count)
	}
	fmt.Println("all data is now cleaned by the same (latest) algorithm")
}

// waitProcessed blocks until a job's processed counter reaches n.
func waitProcessed(job *liquid.Job, name string, n int64) {
	c := job.Metrics().Counter(name + ".processed")
	deadline := time.Now().Add(30 * time.Second)
	for c.Value() < n {
		if time.Now().After(deadline) {
			log.Fatalf("%s processed %d/%d before timeout", name, c.Value(), n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
