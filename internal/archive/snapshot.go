package archive

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/dfs"
	"repro/internal/wire"
)

// SnapshotConfig parameterises a one-shot export. A snapshot reads each
// partition's end offset once and archives whole batches up to the first
// batch boundary at or after it.
type SnapshotConfig struct {
	// Topic is the feed to archive.
	Topic string
	// FS is the destination file system.
	FS *dfs.FS
	// Root is the archive tree's DFS root (default "/archive").
	Root string
	// Name scopes the checkpoint group ("__archiver-<Name>", default
	// Name = Topic), so a snapshot and a later streaming Archiver with the
	// same name share progress.
	Name string
	// SegmentBytes bounds segments' stored batch bytes (default 4 MiB).
	SegmentBytes int64
	// SegmentRecords bounds segment record counts (0 = no bound). Both
	// bounds are met at batch granularity: a segment ends with the batch
	// that reaches one.
	SegmentRecords int
	// Timeout bounds the whole snapshot (default 60s).
	Timeout time.Duration
}

func (c SnapshotConfig) withDefaults() SnapshotConfig {
	if c.Root == "" {
		c.Root = "/archive"
	}
	if c.Name == "" {
		c.Name = c.Topic
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// SnapshotStats summarises one snapshot run.
type SnapshotStats struct {
	// Partitions is the feed's partition count.
	Partitions int32
	// Records / Bytes / Segments count what THIS run exported (already
	// archived data is skipped, making Snapshot idempotent).
	Records  int64
	Bytes    int64
	Segments int64
	// NextOffsets maps each partition to its archived high-water mark
	// after the run.
	NextOffsets map[int32]int64
}

// Snapshot archives a feed up to its current end offsets and returns. It is
// incremental and idempotent: partitions already archived past the end are
// skipped, and a re-run after new traffic exports only the delta. The same
// manifests and annotated checkpoints as the streaming Archiver make the
// result indistinguishable from one.
func Snapshot(c *client.Client, cfg SnapshotConfig) (SnapshotStats, error) {
	cfg = cfg.withDefaults()
	var stats SnapshotStats
	if cfg.Topic == "" {
		return stats, errors.New("archive: Topic is required")
	}
	if cfg.FS == nil {
		return stats, errors.New("archive: FS is required")
	}
	n, err := c.PartitionCount(cfg.Topic)
	if err != nil {
		return stats, err
	}
	stats.Partitions = n
	stats.NextOffsets = make(map[int32]int64, n)
	group := "__archiver-" + cfg.Name
	deadline := time.Now().Add(cfg.Timeout)
	for p := int32(0); p < n; p++ {
		exp, err := openExporter(cfg.FS, cfg.Root, cfg.Topic, p, exporterConfig{
			segmentBytes:   cfg.SegmentBytes,
			segmentRecords: cfg.SegmentRecords,
		})
		if err != nil {
			return stats, err
		}
		end, err := c.ListOffset(cfg.Topic, p, wire.TimestampLatest)
		if err != nil {
			return stats, err
		}
		if exp.man.NextOffset >= end {
			stats.NextOffsets[p] = exp.man.NextOffset
			continue
		}
		cons := client.NewConsumer(c, client.ConsumerConfig{OnReset: client.ResetEarliest})
		start := exp.man.NextOffset
		if start == 0 {
			start = client.StartEarliest
		}
		if err := cons.Assign(cfg.Topic, p, start); err != nil {
			cons.Close()
			return stats, err
		}
		for cons.Position(cfg.Topic, p) < end {
			if time.Now().After(deadline) {
				cons.Close()
				return stats, fmt.Errorf("archive: snapshot of %s/%d timed out at offset %d/%d",
					cfg.Topic, p, cons.Position(cfg.Topic, p), end)
			}
			batches, err := cons.PollBatches(200 * time.Millisecond)
			if err != nil {
				continue
			}
			for _, b := range batches {
				if b.Info.BaseOffset < end && !exp.add(b) {
					// The consumer is behind the exporter: realign it.
					_ = cons.Seek(cfg.Topic, p, exp.nextOffset())
					break
				}
			}
			for exp.shouldRoll() {
				if err := commitRoll(c, group, cfg.Topic, p, exp, &stats); err != nil {
					cons.Close()
					return stats, err
				}
			}
		}
		cons.Close()
		for len(exp.batches) > 0 {
			if err := commitRoll(c, group, cfg.Topic, p, exp, &stats); err != nil {
				return stats, err
			}
		}
		stats.NextOffsets[p] = exp.man.NextOffset
	}
	return stats, nil
}

// commitRoll rolls one segment and checkpoints it under the group.
func commitRoll(c *client.Client, group, topic string, p int32, exp *exporter, stats *SnapshotStats) error {
	info, err := exp.roll()
	if err != nil {
		return err
	}
	stats.Records += info.Records
	stats.Bytes += info.Bytes
	stats.Segments++
	return c.CommitOffsets(group,
		map[string]map[int32]int64{topic: {p: exp.man.NextOffset}},
		segmentAnnotations(info))
}
