// Archival: the unification demo. One feed serves both stacks — a nearline
// job consumes it live while the archiver exports it to the DFS; a
// MapReduce word count then runs directly over the archived segments; and
// finally the archive backfills a fresh feed, replaying history the
// messaging layer could have long expired (paper §1, §3: the log layer as
// the single source of truth for nearline AND offline consumers).
//
// The standing benchmark's pipeline workload measures the same archive and
// MapReduce legs (benchmark/run.sh). Archived segments are the feed's own
// batches, so they are compressed on the DFS exactly when the producer
// compressed them (liquid.ProducerConfig.Codec).
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	liquid "repro"
	"repro/internal/mapreduce"
)

func main() {
	stack, err := liquid.Start(liquid.Config{Brokers: 1})
	if err != nil {
		log.Fatalf("start stack: %v", err)
	}
	defer stack.Shutdown()

	if err := stack.CreateFeed("pages", 2, 1); err != nil {
		log.Fatalf("create feed: %v", err)
	}

	// ---- Publish page-view events into the source-of-truth feed.
	producer := stack.NewProducer(liquid.ProducerConfig{})
	pages := []string{"home", "search", "home", "checkout", "search", "home", "cart", "checkout", "home", "search"}
	for i, page := range pages {
		if err := producer.Send(liquid.Message{
			Topic: "pages",
			Key:   []byte(fmt.Sprintf("user-%d", i%3)),
			Value: []byte(page),
		}); err != nil {
			log.Fatalf("send: %v", err)
		}
	}
	if err := producer.Flush(); err != nil {
		log.Fatalf("flush: %v", err)
	}
	producer.Close()
	fmt.Printf("published %d page views to feed %q\n", len(pages), "pages")

	// ---- Archive the feed into manifest-tracked segments on the DFS.
	snap, err := stack.ArchiveSnapshot(liquid.SnapshotConfig{Topic: "pages", SegmentRecords: 4})
	if err != nil {
		log.Fatalf("archive: %v", err)
	}
	fmt.Printf("archived %d records into %d segments (%d bytes) across %d partitions\n",
		snap.Records, snap.Segments, snap.Bytes, snap.Partitions)

	fs, err := stack.ArchiveFS()
	if err != nil {
		log.Fatalf("archive fs: %v", err)
	}
	manifests, err := liquid.ArchiveManifests(fs, "/archive", "pages")
	if err != nil {
		log.Fatalf("manifests: %v", err)
	}
	for _, m := range manifests {
		fmt.Printf("  manifest %s/%d: %d segments, next offset %d\n",
			m.Topic, m.Partition, len(m.Segments), m.NextOffset)
	}

	// ---- Offline: MapReduce word count directly over archived segments.
	files, decode, err := liquid.ArchiveMRInput(fs, "/archive", "pages")
	if err != nil {
		log.Fatalf("mr input: %v", err)
	}
	engine := mapreduce.NewEngine(fs, mapreduce.EngineConfig{})
	if _, err := engine.Run(mapreduce.JobSpec{
		Name:       "pageviews",
		InputFiles: files,
		Decode:     decode,
		OutputDir:  "/out/pageviews",
		Map: func(_, page string, emit func(k, v string)) error {
			emit(page, "1")
			return nil
		},
		Reduce: func(page string, views []string, emit func(k, v string)) error {
			emit(page, strconv.Itoa(len(views)))
			return nil
		},
	}); err != nil {
		log.Fatalf("mapreduce: %v", err)
	}
	fmt.Println("mapreduce page-view counts over archived segments:")
	for _, info := range fs.List("/out/pageviews/") {
		data, err := fs.ReadFile(info.Path)
		if err != nil {
			log.Fatalf("read output: %v", err)
		}
		for _, kv := range mapreduce.DecodeLines(data) {
			fmt.Printf("  %-10s %s\n", kv.Key, kv.Value)
		}
	}

	// ---- Backfill: replay the archive into a fresh feed, as if rewinding
	// past the retention horizon.
	if err := stack.CreateFeed("pages-replay", 2, 1); err != nil {
		log.Fatalf("create replay feed: %v", err)
	}
	bf, err := stack.Backfill(liquid.BackfillConfig{
		SourceTopic:        "pages",
		TargetTopic:        "pages-replay",
		PreservePartitions: true,
		RecordsPerSec:      500,
	})
	if err != nil {
		log.Fatalf("backfill: %v", err)
	}
	fmt.Printf("backfilled %d records (%d segments) into %q in %v\n",
		bf.Records, bf.Segments, "pages-replay", bf.Duration.Round(time.Millisecond))

	consumer := stack.NewConsumer(liquid.ConsumerConfig{})
	defer consumer.Close()
	consumer.Assign("pages-replay", 0, liquid.StartEarliest)
	consumer.Assign("pages-replay", 1, liquid.StartEarliest)
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	var sample []string
	for got < len(pages) && time.Now().Before(deadline) {
		msgs, err := consumer.Poll(200 * time.Millisecond)
		if err != nil {
			continue
		}
		for _, m := range msgs {
			got++
			for _, h := range m.Headers {
				if h.Key == "liquid.backfill.offset" && len(sample) < 3 {
					sample = append(sample, fmt.Sprintf("%s(orig offset %s)", m.Value, h.Value))
				}
			}
		}
	}
	if got != len(pages) {
		log.Fatalf("replay delivered %d/%d records", got, len(pages))
	}
	fmt.Printf("replay feed delivered all %d records; provenance sample: %s\n",
		got, strings.Join(sample, ", "))
}
