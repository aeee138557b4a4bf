package archive

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/dfs"
	"repro/internal/isolation"
	"repro/internal/storage/record"
)

// Backfill header keys: each republished message carries its provenance so
// downstream jobs can distinguish replay from live traffic and correlate
// records with their original offsets.
const (
	// HeaderBackfillSource holds "topic/partition" of the archived origin.
	HeaderBackfillSource = "liquid.backfill.source"
	// HeaderBackfillOffset holds the record's original feed offset.
	HeaderBackfillOffset = "liquid.backfill.offset"
	// HeaderBackfillSegment holds the archived segment path.
	HeaderBackfillSegment = "liquid.backfill.segment"
)

// BackfillConfig parameterises a replay of archived segments into a feed.
type BackfillConfig struct {
	// FS / Root locate the archive tree.
	FS   *dfs.FS
	Root string
	// SourceTopic is the archived feed to replay.
	SourceTopic string
	// Partitions selects archived partitions to replay; empty replays
	// them all.
	Partitions []int32
	// TargetTopic is the destination feed (it may be the source feed
	// itself for beyond-retention rewind, or a fresh feed).
	TargetTopic string
	// PreservePartitions routes each record to its original partition
	// (requires the target to have at least as many partitions); when
	// false records are re-routed by key.
	PreservePartitions bool
	// RecordsPerSec bounds the publish rate (0 = unlimited), so a replay
	// cannot starve live traffic — the paper's resource-isolation concern
	// applied to rewind.
	RecordsPerSec int
	// Group scopes the progress checkpoints
	// ("__backfill-<source>-<target>" by default); a re-run under the
	// same group skips segments already handed off.
	Group string
	// Acks selects producer durability (default leader acks).
	Acks int16
}

func (c BackfillConfig) withDefaults() BackfillConfig {
	if c.Root == "" {
		c.Root = "/archive"
	}
	if c.Group == "" {
		c.Group = "__backfill-" + c.SourceTopic + "-" + c.TargetTopic
	}
	if c.Acks == 0 {
		c.Acks = 1
	}
	return c
}

// BackfillStats summarises one backfill run.
type BackfillStats struct {
	// Partitions is how many archived partitions were replayed.
	Partitions int
	// Segments / Records / Bytes count what THIS run republished.
	Segments int64
	Records  int64
	Bytes    int64
	// SkippedSegments counts segments already handed off under the group
	// (exactly-once across re-runs).
	SkippedSegments int64
	// Duration is the wall-clock replay time.
	Duration time.Duration
}

// Backfill republishes archived segments into a feed at a bounded rate.
// The unit of handoff is the segment: after a segment's records are
// acknowledged, its last offset is checkpointed under the group with
// annotations naming the segment, so an interrupted or repeated run resumes
// after the last completed segment and never republishes one twice.
func Backfill(c *client.Client, cfg BackfillConfig) (BackfillStats, error) {
	cfg = cfg.withDefaults()
	var stats BackfillStats
	start := time.Now()
	if cfg.SourceTopic == "" || cfg.TargetTopic == "" {
		return stats, errors.New("archive: SourceTopic and TargetTopic are required")
	}
	if cfg.FS == nil {
		return stats, errors.New("archive: FS is required")
	}
	manifests, err := ListManifests(cfg.FS, cfg.Root, cfg.SourceTopic)
	if err != nil {
		return stats, err
	}
	if len(cfg.Partitions) > 0 {
		byPart := make(map[int32]*Manifest, len(manifests))
		for _, m := range manifests {
			byPart[m.Partition] = m
		}
		var selected []*Manifest
		for _, p := range cfg.Partitions {
			m, ok := byPart[p]
			if !ok {
				return stats, fmt.Errorf("%w: %s/%d", ErrNoArchive, cfg.SourceTopic, p)
			}
			selected = append(selected, m)
		}
		manifests = selected
	}
	targetParts, err := c.PartitionCount(cfg.TargetTopic)
	if err != nil {
		return stats, err
	}
	if cfg.PreservePartitions {
		for _, m := range manifests {
			if m.Partition >= targetParts {
				return stats, fmt.Errorf("archive: cannot preserve partition %d of %s: target %s has %d partitions",
					m.Partition, cfg.SourceTopic, cfg.TargetTopic, targetParts)
			}
		}
	}

	prod := client.NewProducer(c, client.ProducerConfig{Acks: cfg.Acks, BatchBytes: 256 << 10})
	defer prod.Close()
	// Burst 1 keeps the pacing strict: no record goes ahead of its slot.
	limiter := isolation.NewRate(isolation.RateConfig{PerSec: float64(cfg.RecordsPerSec), Burst: 1})

	for _, man := range manifests {
		// Resume point: the committed checkpoint is the last offset (+1)
		// of the last fully handed-off segment.
		committed, err := c.FetchOffsets(cfg.Group, cfg.SourceTopic, []int32{man.Partition})
		if err != nil {
			return stats, err
		}
		resume := committed[man.Partition] // -1 when absent
		stats.Partitions++
		for _, seg := range man.Segments {
			if seg.LastOffset < resume {
				stats.SkippedSegments++
				continue
			}
			data, err := cfg.FS.ReadFile(seg.Path)
			if err != nil {
				return stats, err
			}
			records, err := DecodeSegment(data)
			if err != nil {
				return stats, fmt.Errorf("archive: segment %s: %w", seg.Path, err)
			}
			source := fmt.Sprintf("%s/%d", cfg.SourceTopic, man.Partition)
			for i := range records {
				r := &records[i]
				if r.Offset < resume {
					continue // partial segment handoff is impossible, but stay safe
				}
				time.Sleep(limiter.Charge(1))
				msg := client.Message{
					Topic:     cfg.TargetTopic,
					Partition: man.Partition,
					Timestamp: r.Timestamp,
					Key:       r.Key,
					Value:     r.Value,
					Headers: append(append([]record.Header(nil), r.Headers...),
						record.Header{Key: HeaderBackfillSource, Value: []byte(source)},
						record.Header{Key: HeaderBackfillOffset, Value: []byte(strconv.FormatInt(r.Offset, 10))},
						record.Header{Key: HeaderBackfillSegment, Value: []byte(seg.Path)}),
				}
				var serr error
				if cfg.PreservePartitions {
					serr = prod.SendExplicit(msg)
				} else {
					serr = prod.Send(msg)
				}
				if serr != nil {
					return stats, serr
				}
				stats.Records++
				stats.Bytes += int64(len(r.Key) + len(r.Value))
			}
			// Segment handoff commit: flush (so every record is
			// acknowledged), then checkpoint the segment boundary.
			if err := prod.Flush(); err != nil {
				return stats, err
			}
			err = c.CommitOffsets(cfg.Group,
				map[string]map[int32]int64{cfg.SourceTopic: {man.Partition: seg.LastOffset + 1}},
				map[string]string{
					"backfill.segment": seg.Path,
					"backfill.target":  cfg.TargetTopic,
					"backfill.records": strconv.FormatInt(seg.Records, 10),
				})
			if err != nil {
				return stats, err
			}
			stats.Segments++
		}
	}
	stats.Duration = time.Since(start)
	return stats, nil
}
