// Package compact implements key-based log compaction (paper §4.1): the
// inactive segments of a log are rewritten keeping only the most recent
// record for each key, preserving surviving records' original offsets.
// Compaction shrinks changelogs that back processing-layer state, which both
// reduces storage and speeds up state recovery after failures.
package compact

import (
	"fmt"

	"repro/internal/storage/log"
	"repro/internal/storage/record"
)

// Stats summarises one compaction pass.
type Stats struct {
	SegmentsScanned int
	RecordsBefore   int
	RecordsAfter    int
	BytesBefore     int64
	BytesAfter      int64
}

// Compact performs one compaction pass over l, bounded at upTo: the offset
// below which records are known committed (a replica passes its high
// watermark). Records without keys are always retained (compaction is
// meaningful only for keyed data). Each key's newest record below upTo
// survives; older versions in segments wholly below upTo are dropped. A
// record at or above upTo supersedes nothing, since it may not be committed
// and a truncation may cut it, and no segment reaching upTo is rewritten.
// Tombstones (nil values) that are the latest for their key are retained so
// that replicating consumers observe the deletion.
//
// A restarted replica's high watermark is its log end, so the bound
// protects only a running replica's uncommitted tail.
func Compact(l *log.Log, upTo int64) (Stats, error) {
	var stats Stats
	segs := l.Segments()
	n := 0
	for n < len(segs) && !segs[n].Active && segs[n].NextOffset <= upTo {
		n++
	}
	if n == 0 {
		return stats, nil // nothing inactive wholly below the bound
	}
	inactive := segs[:n]

	// Pass 1: newest offset per key below the bound.
	latest := make(map[string]int64)
	for _, si := range segs {
		if si.BaseOffset >= upTo {
			break
		}
		data, err := l.ReadSegment(si.BaseOffset)
		if err != nil {
			return stats, err
		}
		err = record.ScanRecords(data, func(r record.Record) error {
			if r.Key != nil && r.Offset < upTo {
				latest[string(r.Key)] = r.Offset
			}
			return nil
		})
		if err != nil {
			return stats, fmt.Errorf("compact: scan segment %d: %w", si.BaseOffset, err)
		}
	}

	// Pass 2: rewrite inactive segments keeping only surviving records.
	segmentBytes := l.Config().SegmentBytes
	var (
		oldBases    []int64
		newSegments [][]byte
		current     []byte
		batchBuf    []record.Record
	)
	flushBatch := func() {
		if len(batchBuf) == 0 {
			return
		}
		enc := record.EncodeBatchKeepOffsets(batchBuf)
		if int64(len(current)+len(enc)) > segmentBytes && len(current) > 0 {
			newSegments = append(newSegments, current)
			current = nil
		}
		current = append(current, enc...)
		batchBuf = batchBuf[:0]
	}
	for _, si := range inactive {
		stats.SegmentsScanned++
		stats.BytesBefore += si.Size
		oldBases = append(oldBases, si.BaseOffset)
		data, err := l.ReadSegment(si.BaseOffset)
		if err != nil {
			return stats, err
		}
		err = record.ScanRecords(data, func(r record.Record) error {
			stats.RecordsBefore++
			keep := r.Key == nil || latest[string(r.Key)] == r.Offset
			if keep {
				stats.RecordsAfter++
				batchBuf = append(batchBuf, r)
				if len(batchBuf) >= 512 {
					flushBatch()
				}
			}
			return nil
		})
		if err != nil {
			return stats, fmt.Errorf("compact: rewrite segment %d: %w", si.BaseOffset, err)
		}
		flushBatch()
	}
	if len(current) > 0 {
		newSegments = append(newSegments, current)
	}
	for _, s := range newSegments {
		stats.BytesAfter += int64(len(s))
	}
	if err := l.ReplaceSegments(oldBases, newSegments); err != nil {
		return stats, err
	}
	return stats, nil
}
