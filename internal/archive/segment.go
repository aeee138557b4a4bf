// Package archive bridges the nearline and offline stacks: it drains feed
// partitions from the messaging layer into immutable, size/time-rolled
// segment files on the DFS, tracks them in per-partition manifests, and
// checkpoints its progress through the offset manager with annotations
// recording the offset↔segment mapping (the paper's annotated-checkpoint
// mechanism, §3.1.2, applied to offline export). A segment file is the log's
// own batches, stored as fetched: the offline copy is the nearline bytes.
// The archived layout is the single source of truth for offline consumers:
// MapReduce jobs read segments directly (MRInput), and Backfill republishes
// them into a feed for beyond-retention rewind.
package archive

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/storage/record"
)

// ErrBadSegment reports a segment file that fails structural checks.
var ErrBadSegment = errors.New("archive: corrupt segment")

// retiredFormats are the magics of the record-by-record segment formats
// the archive wrote before it stored log batches. There is no migration:
// such a file is refused by name.
var retiredFormats = [][]byte{[]byte("LIQARCH1"), []byte("LIQARCH2")}

// scanSegment calls fn with each batch of a segment file, to decode. The
// file comes from the DFS, so it is refused with ErrBadSegment unless it is
// a run of whole batches with ascending offsets (one header walk), each
// passing its CRC and decoding whole in fn.
func scanSegment(data []byte, fn func(batch []byte) error) error {
	for _, magic := range retiredFormats {
		if bytes.HasPrefix(data, magic) {
			return fmt.Errorf("%w: %s is a retired segment format; re-archive the feed", ErrBadSegment, magic)
		}
	}
	if len(data) == 0 {
		return fmt.Errorf("%w: empty", ErrBadSegment)
	}
	last := int64(-1)
	err := record.WalkBatches(data, func(pos int, b record.BatchInfo) error {
		if b.BaseOffset <= last {
			return fmt.Errorf("batch [%d, %d] after offset %d", b.BaseOffset, b.LastOffset, last)
		}
		last = b.LastOffset
		return fn(data[pos : pos+b.Length])
	})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSegment, err)
	}
	return nil
}

// DecodeSegment returns every record of a segment file (see scanSegment).
func DecodeSegment(data []byte) ([]record.Record, error) {
	var out []record.Record
	err := scanSegment(data, func(batch []byte) error {
		b, _, err := record.DecodeBatch(batch)
		out = append(out, b.Records...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
