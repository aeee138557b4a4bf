// Command liquid-archiver operates the feed→DFS archival bridge against a
// running cluster: stream a feed into archived segments, take a one-shot
// snapshot, inspect the archive, or backfill archived segments into a feed.
//
// Usage:
//
//	liquid-archiver -bootstrap host:port -dir /data/archive -topic events run
//	liquid-archiver -bootstrap host:port -dir /data/archive -topic events snapshot
//	liquid-archiver -dir /data/archive -topic events ls
//	liquid-archiver -bootstrap host:port -dir /data/archive -topic events -target events-replay -rate 1000 backfill
//
// The archive tree lives on a DFS backed by -dir; -root scopes it inside
// the tree (default /archive), so several feeds can share one directory.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	liquid "repro"
)

func main() {
	bootstrap := flag.String("bootstrap", "127.0.0.1:9092", "comma-separated broker addresses")
	dir := flag.String("dir", "", "local directory backing the archive file system")
	root := flag.String("root", "/archive", "archive root inside the file system")
	topic := flag.String("topic", "", "feed to archive / backfill from")
	name := flag.String("name", "", "archiver name (scopes the consumer group; default = topic)")
	target := flag.String("target", "", "backfill destination feed")
	partition := flag.Int("partition", -1, "backfill a single archived partition (-1 = all)")
	rate := flag.Int("rate", 0, "backfill rate cap in records/sec (0 = unlimited)")
	segBytes := flag.Int64("segment-bytes", 4<<20, "segment roll size in stored batch bytes")
	flushEvery := flag.Duration("flush-interval", 2*time.Second, "max age of an open segment buffer")
	flag.Parse()
	mode := flag.Arg(0)
	if mode == "" {
		mode = "run"
	}
	if *dir == "" {
		log.Fatal("liquid-archiver: -dir is required")
	}
	if *topic == "" {
		log.Fatal("liquid-archiver: -topic is required")
	}
	// Readers open lock-free so they can run alongside a live archiver;
	// writers take the directory lock.
	openFS := liquid.OpenArchiveFS
	if mode == "ls" || mode == "backfill" {
		openFS = liquid.OpenArchiveFSReadOnly
	}
	fs, err := openFS(*dir)
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Close()

	newClient := func() *liquid.Client {
		cli, err := liquid.NewClient(liquid.ClientConfig{
			Bootstrap: strings.Split(*bootstrap, ","),
			ClientID:  "liquid-archiver",
		})
		if err != nil {
			log.Fatal(err)
		}
		return cli
	}

	switch mode {
	case "run":
		cli := newClient()
		defer cli.Close()
		a, err := liquid.NewArchiver(cli, liquid.ArchiverConfig{
			Topic:         *topic,
			Name:          *name,
			FS:            fs,
			Root:          *root,
			SegmentBytes:  *segBytes,
			FlushInterval: *flushEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := a.Start(); err != nil {
			log.Fatal(err)
		}
		log.Printf("archiving %s into %s%s as group %s; ctrl-c to stop", *topic, *dir, *root, a.Group())
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		tick := time.NewTicker(10 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				if err := a.Stop(); err != nil {
					log.Fatal(err)
				}
				st := a.Stats()
				log.Printf("stopped: %d records, %d segments, %d bytes", st.Records, st.Segments, st.Bytes)
				return
			case <-tick.C:
				st := a.Stats()
				log.Printf("progress: %d records, %d segments, %d bytes, %d partitions",
					st.Records, st.Segments, st.Bytes, st.Partitions)
			}
		}

	case "snapshot":
		cli := newClient()
		defer cli.Close()
		stats, err := liquid.ArchiveSnapshot(cli, liquid.SnapshotConfig{
			Topic:        *topic,
			Name:         *name,
			FS:           fs,
			Root:         *root,
			SegmentBytes: *segBytes,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot of %s: %d records, %d segments, %d bytes across %d partitions\n",
			*topic, stats.Records, stats.Segments, stats.Bytes, stats.Partitions)

	case "ls":
		manifests, err := liquid.ArchiveManifests(fs, *root, *topic)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range manifests {
			fmt.Printf("%s/%d: %d segments, %d records, %d bytes, next offset %d\n",
				m.Topic, m.Partition, len(m.Segments), m.Records(), m.Bytes(), m.NextOffset)
			for _, seg := range m.Segments {
				fmt.Printf("  %s offsets [%d,%d] %d records %d bytes\n",
					seg.Path, seg.BaseOffset, seg.LastOffset, seg.Records, seg.Bytes)
			}
		}

	case "backfill":
		if *target == "" {
			log.Fatal("liquid-archiver: backfill requires -target")
		}
		cli := newClient()
		defer cli.Close()
		var parts []int32
		if *partition >= 0 {
			parts = []int32{int32(*partition)}
		}
		stats, err := liquid.Backfill(cli, liquid.BackfillConfig{
			FS:                 fs,
			Root:               *root,
			SourceTopic:        *topic,
			Partitions:         parts,
			TargetTopic:        *target,
			PreservePartitions: true,
			RecordsPerSec:      *rate,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("backfill %s -> %s: %d records, %d segments republished, %d skipped, in %v\n",
			*topic, *target, stats.Records, stats.Segments, stats.SkippedSegments, stats.Duration)

	default:
		log.Fatalf("liquid-archiver: unknown mode %q (run | snapshot | ls | backfill)", mode)
	}
}
