package record

import (
	"encoding/binary"
	"fmt"
)

// BatchInfo summarises a batch header without decoding its records. The log
// uses it on the append and recovery paths where full decoding would waste
// cycles.
type BatchInfo struct {
	BaseOffset   int64
	LastOffset   int64
	MaxTimestamp int64
	RecordCount  int
	Length       int // total encoded length in bytes

	// Producer identity stamped by an idempotent producer, or the -1
	// sentinels (NoProducerID/NoProducerEpoch/NoSequence) for a plain
	// produce. BaseSequence numbers the batch's first record within the
	// producer's per-partition sequence space.
	ProducerID    int64
	ProducerEpoch int32
	BaseSequence  int64
}

// Idempotent reports whether the batch carries a producer identity.
func (i BatchInfo) Idempotent() bool { return i.ProducerID >= 0 }

// LastSequence is the sequence number of the batch's final record
// (BaseSequence + lastOffsetDelta). Meaningless unless Idempotent.
func (i BatchInfo) LastSequence() int64 {
	return i.BaseSequence + (i.LastOffset - i.BaseOffset)
}

// HeaderLen is the fixed size of a batch header; PeekBatchInfo needs only
// this many bytes.
const HeaderLen = batchHeaderLen

// PeekBatchInfo reads the batch header at the start of buf. Only the header
// needs to be present — the batch body may extend beyond buf. It validates
// length-field sanity but not the CRC; use DecodeBatch for full validation.
func PeekBatchInfo(buf []byte) (BatchInfo, error) {
	if len(buf) < batchHeaderLen {
		return BatchInfo{}, ErrShort
	}
	total := int(int32(binary.BigEndian.Uint32(buf[8:]))) + 12
	if total < batchHeaderLen {
		return BatchInfo{}, ErrCorrupt
	}
	base := int64(binary.BigEndian.Uint64(buf[0:]))
	pid := int64(binary.BigEndian.Uint64(buf[producerOffset:]))
	epoch := int32(binary.BigEndian.Uint32(buf[producerOffset+8:]))
	baseSeq := int64(binary.BigEndian.Uint64(buf[producerOffset+12:]))
	lastDelta := int32(binary.BigEndian.Uint32(buf[attrsOffset+2:]))
	maxTS := int64(binary.BigEndian.Uint64(buf[attrsOffset+14:]))
	count := int(int32(binary.BigEndian.Uint32(buf[attrsOffset+22:])))
	if lastDelta < 0 || count < 0 {
		return BatchInfo{}, ErrCorrupt
	}
	// The producer fields sit outside the CRC (so they can be stamped onto a
	// sealed batch); reject values no stamper can produce, mirroring the
	// recovery scan's base-offset regression check, so a torn prefix cannot
	// poison the producer-state table. A stamped batch carries all three
	// fields or none.
	if pid < NoProducerID || epoch < NoProducerEpoch || baseSeq < NoSequence {
		return BatchInfo{}, ErrCorrupt
	}
	if pid >= 0 != (epoch >= 0) || pid >= 0 != (baseSeq >= 0) {
		return BatchInfo{}, ErrCorrupt
	}
	return BatchInfo{
		BaseOffset:    base,
		LastOffset:    base + int64(lastDelta),
		MaxTimestamp:  maxTS,
		RecordCount:   count,
		Length:        total,
		ProducerID:    pid,
		ProducerEpoch: epoch,
		BaseSequence:  baseSeq,
	}, nil
}

// WalkBatches calls fn with the byte position and header of each batch in
// data, failing unless every batch is whole. Nothing is decoded, inflated or
// CRC-checked: it is the header walk of a reader that trusts the batches it
// indexes to a later CheckBatch or DecodeBatch.
func WalkBatches(data []byte, fn func(pos int, b BatchInfo) error) error {
	for pos := 0; pos < len(data); {
		b, err := PeekBatchInfo(data[pos:])
		if err == nil && b.Length > len(data)-pos {
			err = ErrShort
		}
		if err == nil {
			err = fn(pos, b)
		}
		if err != nil {
			return fmt.Errorf("at byte %d: %w", pos, err)
		}
		pos += b.Length
	}
	return nil
}

// EncodeBatchKeepOffsets serialises records preserving each record's
// existing absolute offset (records must be in strictly increasing offset
// order). The batch's base offset is the first record's offset. Offset gaps
// are allowed: this is how log compaction rewrites segments while keeping
// surviving records addressable at their original offsets (paper §4.1).
func EncodeBatchKeepOffsets(records []Record) []byte {
	if len(records) == 0 {
		panic("record: EncodeBatchKeepOffsets called with no records")
	}
	base := records[0].Offset
	size := batchHeaderLen
	for i := range records {
		size += recordSize(&records[i])
	}
	buf := make([]byte, size)

	baseTS := records[0].Timestamp
	var maxTS int64
	for i := range records {
		if records[i].Timestamp > maxTS {
			maxTS = records[i].Timestamp
		}
	}
	last := records[len(records)-1].Offset

	binary.BigEndian.PutUint64(buf[0:], uint64(base))
	binary.BigEndian.PutUint32(buf[8:], uint32(size-12))
	fillProducerSentinels(buf)
	binary.BigEndian.PutUint16(buf[attrsOffset:], 0)
	binary.BigEndian.PutUint32(buf[attrsOffset+2:], uint32(last-base))
	binary.BigEndian.PutUint64(buf[attrsOffset+6:], uint64(baseTS))
	binary.BigEndian.PutUint64(buf[attrsOffset+14:], uint64(maxTS))
	binary.BigEndian.PutUint32(buf[attrsOffset+22:], uint32(len(records)))

	pos := batchHeaderLen
	for i := range records {
		pos = encodeRecord(buf, pos, int32(records[i].Offset-base), &records[i], baseTS)
	}
	crc := checksum(buf[crcDataOffset:])
	binary.BigEndian.PutUint32(buf[crcOffset:], crc)
	return buf
}

// OffsetForTimestamp returns the offset of the first record in buf whose
// timestamp is at or after ts, or -1 when there is none. It decodes only a
// batch whose header MaxTimestamp reaches ts; the ones it skips are neither
// CRC-checked nor inflated. A trailing partial batch is tolerated as in ScanRecords.
func OffsetForTimestamp(buf []byte, ts int64) (int64, error) {
	for len(buf) > 0 {
		if info, err := PeekBatchInfo(buf); err == nil && info.Length <= len(buf) && info.MaxTimestamp < ts {
			buf = buf[info.Length:]
			continue
		}
		b, n, err := DecodeBatch(buf) // which also reports what PeekBatchInfo would not pass
		if err == ErrShort {
			break
		}
		if err != nil {
			return 0, err
		}
		for i := range b.Records {
			if b.Records[i].Timestamp >= ts {
				return b.Records[i].Offset, nil
			}
		}
		buf = buf[n:]
	}
	return -1, nil
}
