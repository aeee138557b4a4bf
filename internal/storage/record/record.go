// Package record defines the on-disk and on-wire representation of messages
// in the messaging layer: individual records (key, value, headers, timestamp)
// grouped into record batches that carry a base offset and a CRC32-C
// checksum. Batches are the unit of appending to a commit log, of
// replication, and of fetch responses, mirroring the design of the log-based
// messaging layer in the paper (§3.1).
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Errors returned when decoding batches.
var (
	// ErrCorrupt indicates that a batch failed its CRC check or had an
	// inconsistent length field.
	ErrCorrupt = errors.New("record: corrupt batch")
	// ErrShort indicates that the buffer ends before a complete batch.
	ErrShort = errors.New("record: short buffer")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum computes the CRC32-C over a batch's checksummed region.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Header is an application-defined key/value annotation on a record. The
// processing layer uses headers to carry lineage information on derived
// feeds (paper §3).
type Header struct {
	Key   string
	Value []byte
}

// Record is a single message. Offset and Timestamp are assigned by the
// broker on append (log-append time) unless the producer supplied a
// timestamp. The byte fields of a decoded Record are the receiver's to keep
// and share their batch's arena: see DecodeBatch for the ownership rule.
type Record struct {
	Offset    int64 // absolute offset within the partition
	Timestamp int64 // milliseconds since the Unix epoch
	Key       []byte
	Value     []byte
	Headers   []Header
}

// Batch is an ordered group of records sharing a contiguous offset range.
type Batch struct {
	BaseOffset int64
	Records    []Record
}

// LastOffset returns the offset of the final record in the batch.
// It panics on an empty batch, which is never produced by EncodeBatch.
func (b *Batch) LastOffset() int64 {
	return b.Records[len(b.Records)-1].Offset
}

// MaxTimestamp returns the largest record timestamp in the batch, or 0 for
// an empty batch.
func (b *Batch) MaxTimestamp() int64 {
	var max int64
	for i := range b.Records {
		if b.Records[i].Timestamp > max {
			max = b.Records[i].Timestamp
		}
	}
	return max
}

// Batch binary layout (all integers big-endian):
//
//	baseOffset      int64
//	batchLength     int32   // bytes following this field
//	producerID      int64   // -1 when not an idempotent produce
//	producerEpoch   int32   // -1 when not an idempotent produce
//	baseSequence    int64   // -1 when not an idempotent produce
//	crc             uint32  // CRC32-C of everything after this field
//	attributes      int16   // low bits: codec
//	lastOffsetDelta int32
//	baseTimestamp   int64
//	maxTimestamp    int64
//	recordCount     int32
//	records         ...
//
// The producer id/epoch/sequence fields sit with the base offset OUTSIDE the
// CRC-covered region: like the base offset (restamped by the leader), they
// are stamped onto an already-sealed — possibly compressed — batch by the
// producer's retry machinery without reopening the blob, so the stored bytes
// stay byte-identical across replication and zero-copy fetch.
//
// Record layout:
//
//	offsetDelta     int32
//	timestampDelta  int64
//	keyLen          int32   // -1 encodes a nil key
//	key             bytes
//	valueLen        int32   // -1 encodes a nil value
//	value           bytes
//	headerCount     int32
//	headers         { keyLen int32, key, valueLen int32, value }*
const (
	batchHeaderLen = 8 + 4 + 8 + 4 + 8 + 4 + 2 + 4 + 8 + 8 + 4
	// producerOffset is the byte position of the producerID field.
	producerOffset = 8 + 4
	// crcOffset is the byte position of the CRC field within a batch.
	crcOffset = producerOffset + 8 + 4 + 8
	// crcDataOffset is where the checksummed region begins.
	crcDataOffset = crcOffset + 4
	// attrsOffset is the byte position of the attributes field.
	attrsOffset = crcDataOffset
)

// NoProducerID and NoProducerEpoch are the sentinel values carried by batches
// produced without idempotence; NoSequence likewise marks an unstamped base
// sequence. Brokers skip producer-state tracking for such batches.
const (
	NoProducerID    int64 = -1
	NoProducerEpoch int32 = -1
	NoSequence      int64 = -1
)

// EncodeBatch serialises records as a single batch starting at baseOffset.
// Record offsets in the input are ignored; records are assigned consecutive
// offsets baseOffset, baseOffset+1, ... Timestamps are taken from the input
// records. EncodeBatch panics if records is empty: callers batch at least
// one record by construction.
func EncodeBatch(baseOffset int64, records []Record) []byte {
	return EncodeBatchInto(nil, baseOffset, records)
}

// EncodeBatchInto is EncodeBatch writing into dst's spare capacity, growing
// it only when the encoded batch does not fit. The commit log's append path
// pools these buffers: one batch encode per append with zero steady-state
// allocations.
func EncodeBatchInto(dst []byte, baseOffset int64, records []Record) []byte {
	if len(records) == 0 {
		panic("record: EncodeBatch called with no records")
	}
	size := batchHeaderLen
	for i := range records {
		size += recordSize(&records[i])
	}
	var buf []byte
	if cap(dst) >= size {
		buf = dst[:size]
	} else {
		buf = make([]byte, size)
	}

	baseTS := records[0].Timestamp
	var maxTS int64
	for i := range records {
		if records[i].Timestamp > maxTS {
			maxTS = records[i].Timestamp
		}
	}

	binary.BigEndian.PutUint64(buf[0:], uint64(baseOffset))
	binary.BigEndian.PutUint32(buf[8:], uint32(size-12)) // bytes after batchLength
	fillProducerSentinels(buf)
	// crc filled in last
	binary.BigEndian.PutUint16(buf[attrsOffset:], 0) // attributes
	binary.BigEndian.PutUint32(buf[attrsOffset+2:], uint32(len(records)-1))
	binary.BigEndian.PutUint64(buf[attrsOffset+6:], uint64(baseTS))
	binary.BigEndian.PutUint64(buf[attrsOffset+14:], uint64(maxTS))
	binary.BigEndian.PutUint32(buf[attrsOffset+22:], uint32(len(records)))

	pos := batchHeaderLen
	for i := range records {
		pos = encodeRecord(buf, pos, int32(i), &records[i], baseTS)
	}
	crc := crc32.Checksum(buf[crcDataOffset:], castagnoli)
	binary.BigEndian.PutUint32(buf[crcOffset:], crc)
	return buf
}

func recordSize(r *Record) int {
	size := 4 + 8 + 4 + len(r.Key) + 4 + len(r.Value) + 4
	for i := range r.Headers {
		size += 4 + len(r.Headers[i].Key) + 4 + len(r.Headers[i].Value)
	}
	return size
}

func encodeRecord(buf []byte, pos int, offsetDelta int32, r *Record, baseTS int64) int {
	binary.BigEndian.PutUint32(buf[pos:], uint32(offsetDelta))
	pos += 4
	binary.BigEndian.PutUint64(buf[pos:], uint64(r.Timestamp-baseTS))
	pos += 8
	pos = putBytes(buf, pos, r.Key)
	pos = putBytes(buf, pos, r.Value)
	binary.BigEndian.PutUint32(buf[pos:], uint32(len(r.Headers)))
	pos += 4
	for i := range r.Headers {
		pos = putBytes(buf, pos, []byte(r.Headers[i].Key))
		pos = putBytes(buf, pos, r.Headers[i].Value)
	}
	return pos
}

func putBytes(buf []byte, pos int, b []byte) int {
	if b == nil {
		binary.BigEndian.PutUint32(buf[pos:], 0xFFFFFFFF)
		return pos + 4
	}
	binary.BigEndian.PutUint32(buf[pos:], uint32(len(b)))
	pos += 4
	copy(buf[pos:], b)
	return pos + len(b)
}

// PeekBatchLen reports the total encoded length of the batch at the start of
// buf, without validating its contents. It returns ErrShort if buf does not
// contain a complete batch header + body.
func PeekBatchLen(buf []byte) (int, error) {
	if len(buf) < 12 {
		return 0, ErrShort
	}
	n := int(int32(binary.BigEndian.Uint32(buf[8:]))) + 12
	if n < batchHeaderLen {
		return 0, ErrCorrupt
	}
	if len(buf) < n {
		return 0, ErrShort
	}
	return n, nil
}

// PeekBaseOffset returns the base offset of the batch at the start of buf.
func PeekBaseOffset(buf []byte) (int64, error) {
	if len(buf) < 8 {
		return 0, ErrShort
	}
	return int64(binary.BigEndian.Uint64(buf)), nil
}

// fillProducerSentinels writes the -1 sentinels (all 0xFF bytes) over the
// 20-byte producer id/epoch/sequence region of a batch header.
func fillProducerSentinels(buf []byte) {
	for i := producerOffset; i < crcOffset; i++ {
		buf[i] = 0xFF
	}
}

// StampProducer writes the producer id, epoch and base sequence onto the
// sealed batch at the start of buf, in place. Like RestampBase, this works on
// an already-sealed (possibly compressed) batch: the producer fields live
// outside the CRC-covered region, so the blob's checksum and stored bytes are
// untouched. The producer stamps a batch once, immediately before its first
// send; retries resend the identical bytes, which is what lets the broker
// recognise them.
func StampProducer(buf []byte, id int64, epoch int32, baseSeq int64) error {
	if len(buf) < producerOffset+20 {
		return ErrShort
	}
	binary.BigEndian.PutUint64(buf[producerOffset:], uint64(id))
	binary.BigEndian.PutUint32(buf[producerOffset+8:], uint32(epoch))
	binary.BigEndian.PutUint64(buf[producerOffset+12:], uint64(baseSeq))
	return nil
}

// DecodeBatch decodes and CRC-verifies the batch at the start of buf,
// returning the batch and the number of bytes consumed. Compressed batches
// (see Codec) are inflated transparently: the CRC is verified over the
// sealed bytes first, so corruption is detected before inflation.
//
// Ownership: each batch gets one private arena — its inflated body, or one
// copy of an uncompressed body — and every decoded Key, Value and header
// Value is a capacity-clipped sub-slice of it. Decoded records never alias
// buf (wire frames, segment reads and pooled buffers stay reusable); a
// retained record pins at most its own batch, so a long-lived structure
// clones what it keeps; appending to one field cannot reach its neighbour.
func DecodeBatch(buf []byte) (Batch, int, error) {
	rs, total, err := DecodeRecords(buf)
	if err != nil {
		return Batch{}, 0, err
	}
	records := make([]Record, rs.Len())
	for i := range records {
		if err := rs.Next(&records[i]); err != nil {
			return Batch{}, 0, err
		}
	}
	return Batch{BaseOffset: rs.base, Records: records}, total, nil
}

// Records hands out the records of one batch decoded by DecodeRecords, one
// at a time, each decoded from the batch's arena when asked for.
type Records struct {
	arena        []byte
	pos, left    int
	base, baseTS int64
}

// DecodeRecords is DecodeBatch without the []Record: it checks the CRC,
// inflates or copies the body into the batch's one private arena and returns
// the records as an iterator, with the number of bytes consumed. The records
// Next fills in follow DecodeBatch's ownership rule.
func DecodeRecords(buf []byte) (Records, int, error) {
	total, err := PeekBatchLen(buf)
	if err != nil {
		return Records{}, 0, err
	}
	b := buf[:total]
	wantCRC := binary.BigEndian.Uint32(b[crcOffset:])
	if crc32.Checksum(b[crcDataOffset:], castagnoli) != wantCRC {
		return Records{}, 0, ErrCorrupt
	}
	count := int(int32(binary.BigEndian.Uint32(b[attrsOffset+22:])))
	if count < 0 {
		return Records{}, 0, ErrCorrupt
	}
	var arena []byte
	if codec := Codec(int16(binary.BigEndian.Uint16(b[attrsOffset:])) & codecMask); codec != CodecNone {
		if arena, err = DecompressRaw(codec, b[batchHeaderLen:]); err != nil {
			return Records{}, 0, err
		}
	} else {
		arena = make([]byte, total-batchHeaderLen)
		copy(arena, b[batchHeaderLen:])
	}

	// The count is header data, not yet proven against the body: one the
	// region could not possibly hold is corrupt, not a huge allocation.
	if count > len(arena)/minRecordLen {
		return Records{}, 0, ErrCorrupt
	}
	return Records{
		arena:  arena,
		left:   count,
		base:   int64(binary.BigEndian.Uint64(b[0:])),
		baseTS: int64(binary.BigEndian.Uint64(b[attrsOffset+6:])),
	}, total, nil
}

// Len reports how many records Next has yet to hand out.
func (rs *Records) Len() int { return rs.left }

// Next decodes the next record into r, overwriting every field. A record
// that runs past the arena, or a call once Len is 0, is ErrCorrupt.
func (rs *Records) Next(r *Record) error {
	if rs.left == 0 {
		return ErrCorrupt
	}
	pos, err := decodeRecord(rs.arena, rs.pos, rs.base, rs.baseTS, r)
	if err != nil {
		return err
	}
	rs.pos = pos
	rs.left--
	return nil
}

// minRecordLen is the encoded size of a record with a nil key, a nil value
// and no headers: what bounds the records a region of known size can hold.
const minRecordLen = 4 + 8 + 4 + 4 + 4

func decodeRecord(b []byte, pos int, baseOffset, baseTS int64, r *Record) (int, error) {
	if pos+12 > len(b) {
		return 0, ErrCorrupt
	}
	offsetDelta := int32(binary.BigEndian.Uint32(b[pos:]))
	pos += 4
	tsDelta := int64(binary.BigEndian.Uint64(b[pos:]))
	pos += 8
	var err error
	r.Offset = baseOffset + int64(offsetDelta)
	r.Timestamp = baseTS + tsDelta
	r.Headers = nil
	r.Key, pos, err = getBytes(b, pos)
	if err != nil {
		return 0, err
	}
	r.Value, pos, err = getBytes(b, pos)
	if err != nil {
		return 0, err
	}
	if pos+4 > len(b) {
		return 0, ErrCorrupt
	}
	hc := int(int32(binary.BigEndian.Uint32(b[pos:])))
	pos += 4
	if hc < 0 || hc > len(b) {
		return 0, ErrCorrupt
	}
	if hc > 0 {
		r.Headers = make([]Header, hc)
		for i := 0; i < hc; i++ {
			var k, v []byte
			k, pos, err = getBytes(b, pos)
			if err != nil {
				return 0, err
			}
			v, pos, err = getBytes(b, pos)
			if err != nil {
				return 0, err
			}
			r.Headers[i] = Header{Key: string(k), Value: v}
		}
	}
	return pos, nil
}

// getBytes returns the length-prefixed field at pos as a capacity-clipped
// sub-slice of b (nil for the -1 length), and the position after it.
func getBytes(b []byte, pos int) ([]byte, int, error) {
	if pos+4 > len(b) {
		return nil, 0, ErrCorrupt
	}
	n := int32(binary.BigEndian.Uint32(b[pos:]))
	pos += 4
	if n == -1 {
		return nil, pos, nil
	}
	end := pos + int(n)
	if n < 0 || end > len(b) {
		return nil, 0, ErrCorrupt
	}
	return b[pos:end:end], end, nil
}

// ScanRecords iterates over every record in every complete batch in buf,
// decoding each batch once, with no []Record (see DecodeRecords). It stops
// early if fn returns an error (which is then returned) and tolerates a
// trailing partial batch, which is common when a fetch response was cut at a
// byte limit. A batch's CRC and inflation are checked before fn sees any of
// its records, but its records are decoded as fn is called: if one fails to
// parse in a batch that passed its CRC (the leader's ValidateBatch refuses
// such a batch), fn has already seen the records before it. That matters
// only to its callers that act on what fn sees, the consumer's decode and
// compaction; keyed state is rebuilt through state.ApplyBatches, which
// applies a batch whole or not at all.
func ScanRecords(buf []byte, fn func(Record) error) error {
	for len(buf) > 0 {
		rs, n, err := DecodeRecords(buf)
		if err == ErrShort {
			return nil // trailing partial batch: normal at fetch boundaries
		}
		for err == nil && rs.Len() > 0 {
			var r Record
			if err = rs.Next(&r); err == nil {
				err = fn(r)
			}
		}
		if err != nil {
			return err
		}
		buf = buf[n:]
	}
	return nil
}

// ClaimedRecords is the number of records the complete batches in buf claim
// in their headers, each claim clipped to what its batch could hold, so that
// a reader can size its output once before decoding: never fewer than
// ScanRecords then delivers. Nothing is inflated or CRC-checked (the decode
// that follows checks each CRC); like the decode, the walk stops at a length
// that does not parse or a trailing partial batch.
func ClaimedRecords(buf []byte) int {
	n := 0
	for total, err := PeekBatchLen(buf); err == nil; total, err = PeekBatchLen(buf) {
		body := total - batchHeaderLen
		if codec, _ := PeekCodec(buf); codec != CodecNone {
			body = min(maxInflatedBody, maxDeflateRatio*body)
		}
		count := int(int32(binary.BigEndian.Uint32(buf[attrsOffset+22:])))
		n += min(max(count, 0), body/minRecordLen)
		buf = buf[total:]
	}
	return n
}

// String implements fmt.Stringer for debugging.
func (r Record) String() string {
	return fmt.Sprintf("Record{off=%d ts=%d key=%q value=%dB}", r.Offset, r.Timestamp, r.Key, len(r.Value))
}
