package record

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Codec identifies the compression applied to a batch's record region. It
// is carried in the low bits of the batch header's attributes field, so a
// compressed batch remains a self-describing sealed blob: brokers store and
// replicate it verbatim and only the final reader decompresses (paper §3.1:
// brokers move sealed batches cheaply at high fan-out).
type Codec int16

// Supported codecs. Id 1 was gzip: the same deflate stream as CodecFlate
// plus a header and a CRC-32 that the batch's own CRC-32C already covers.
// It stays unassigned, so a stored gzip batch is refused as corrupt like
// any other unknown codec rather than misread by a later one.
const (
	// CodecNone leaves the record region uncompressed.
	CodecNone Codec = 0
	// CodecFlate compresses the record region with raw DEFLATE (BestSpeed).
	CodecFlate Codec = 2

	// codecMask selects the codec bits of the attributes field.
	codecMask = 0x0007
)

// String implements fmt.Stringer.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecFlate:
		return "flate"
	}
	return fmt.Sprintf("codec(%d)", int16(c))
}

// ParseCodec maps a configuration string ("none", "flate", or empty for
// none) to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "none":
		return CodecNone, nil
	case "flate":
		return CodecFlate, nil
	}
	return CodecNone, fmt.Errorf("record: unknown codec %q", s)
}

// Valid reports whether c is a known codec.
func (c Codec) Valid() bool {
	return c == CodecNone || c == CodecFlate
}

// PeekCodec returns the codec of the batch at the start of buf without
// validating anything beyond the header length.
func PeekCodec(buf []byte) (Codec, error) {
	if len(buf) < batchHeaderLen {
		return CodecNone, ErrShort
	}
	return Codec(int16(binary.BigEndian.Uint16(buf[attrsOffset:])) & codecMask), nil
}

// flateWriters pools compressors: a flate writer is expensive to construct
// (window allocation), so flushed producer batches reuse them.
var flateWriters = sync.Pool{
	New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	},
}

// CompressRaw compresses a batch's record region with the given codec. Other
// layers (the archive's segment files) use it on arbitrary regions, so the
// whole pipeline shares one compression vocabulary and its pooled compressors.
func CompressRaw(codec Codec, body []byte) ([]byte, error) {
	if codec != CodecFlate {
		return nil, fmt.Errorf("record: cannot compress with codec %s", codec)
	}
	var buf bytes.Buffer
	buf.Grow(len(body)/4 + 64)
	w := flateWriters.Get().(*flate.Writer)
	defer flateWriters.Put(w)
	w.Reset(&buf)
	if _, err := w.Write(body); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// maxInflatedBody bounds how far a compressed record region may inflate
// (matching the wire layer's 64 MiB frame bound), so a stored deflate bomb
// cannot OOM readers: inflation stops at the bound and the batch is
// reported corrupt. The scratch never grows past it.
const maxInflatedBody = 64 << 20

// maxDeflateRatio bounds what one byte of a deflate stream can inflate to: a
// 258-byte match costs at least a 1-bit length code and a 1-bit distance
// code. Header-only record counts use it to clip a compressed batch's claim.
const maxDeflateRatio = 1032

// inflater is everything one inflation needs, pooled as a unit so that a
// steady-state inflate allocates nothing: the Huffman tables of the block
// being decoded (inflate.go) and the scratch the region inflates into. A
// caller that only looks at the inflated bytes (ValidateBatch) walks the
// scratch; one that keeps them copies out a single exact-size buffer.
type inflater struct {
	lit, dist, clen huffTable
	lens            [maxLitSyms + maxDistSyms]uint8
	buf             []byte
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// maxPooledScratch is the largest scratch an inflater reuses, so one huge
// batch does not pin its scratch for the life of the process.
const maxPooledScratch = 4 << 20

// inflate decompresses a record region into the scratch, valid until the
// inflater goes back to the pool. Errors are wrapped in ErrCorrupt: a batch
// that passed its CRC but fails to inflate was built wrong, and readers treat
// both identically.
func (in *inflater) inflate(codec Codec, body []byte) ([]byte, error) {
	if codec != CodecFlate {
		return nil, fmt.Errorf("%w: unknown codec %d", ErrCorrupt, codec)
	}
	if cap(in.buf) > maxPooledScratch {
		in.buf = nil
	}
	out, err := in.inflateInto(in.buf, body)
	in.buf = out[:0]
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrCorrupt, codec, err)
	}
	return out, nil
}

// DecompressRaw inflates a region produced by CompressRaw into a buffer of
// exactly its inflated size, owned by the caller. Errors wrap ErrCorrupt.
func DecompressRaw(codec Codec, body []byte) ([]byte, error) {
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	scratch, err := in.inflate(codec, body)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(scratch))
	copy(out, scratch)
	return out, nil
}

// Compress seals an uncompressed batch with the given codec: the record
// region is compressed, the codec bits are set in the attributes field, the
// batch length is rewritten and the CRC recomputed over the compressed
// bytes. Header metadata (offsets, timestamps, record count) is preserved,
// so PeekBatchInfo keeps working on the sealed form and brokers never need
// to inflate it. CodecNone returns batch unchanged.
func Compress(batch []byte, codec Codec) ([]byte, error) {
	if codec == CodecNone {
		return batch, nil
	}
	if !codec.Valid() {
		return nil, fmt.Errorf("record: unknown codec %d", codec)
	}
	total, err := PeekBatchLen(batch)
	if err != nil {
		return nil, err
	}
	compressed, err := CompressRaw(codec, batch[batchHeaderLen:total])
	if err != nil {
		return nil, err
	}
	return reseal(batch, compressed, codec), nil
}

// reseal returns a new batch with batch's header and the given record
// region, rewriting the length, the codec bits and the CRC.
func reseal(batch, body []byte, codec Codec) []byte {
	out := make([]byte, batchHeaderLen+len(body))
	copy(out, batch[:batchHeaderLen])
	copy(out[batchHeaderLen:], body)
	binary.BigEndian.PutUint32(out[8:], uint32(len(out)-12))
	attrs := binary.BigEndian.Uint16(out[attrsOffset:])
	attrs = attrs&^codecMask | uint16(codec)&codecMask
	binary.BigEndian.PutUint16(out[attrsOffset:], attrs)
	binary.BigEndian.PutUint32(out[crcOffset:], crc32.Checksum(out[crcDataOffset:], castagnoli))
	return out
}

// Decompress rewrites a compressed batch into its equivalent uncompressed
// (CodecNone) form, re-sealing length, attributes and CRC. An uncompressed
// batch is returned unchanged. Readers normally never need this —
// DecodeBatch inflates transparently — but tools that rewrite batches
// (compaction of mixed-codec logs, debugging) do.
func Decompress(batch []byte) ([]byte, error) {
	total, err := PeekBatchLen(batch)
	if err != nil {
		return nil, err
	}
	codec, _ := PeekCodec(batch)
	if codec == CodecNone {
		return batch, nil
	}
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	body, err := in.inflate(codec, batch[batchHeaderLen:total])
	if err != nil {
		return nil, err
	}
	return reseal(batch, body, CodecNone), nil
}

// CheckBatch verifies the structural integrity of the sealed batch at the
// start of buf — length sanity, a known codec, and the CRC over the (possibly
// compressed) record region — without decoding or inflating it. This is the
// broker's produce-path validation: cheap enough for the hot path, strong
// enough that a corrupted compressed blob is rejected before it is stored.
func CheckBatch(buf []byte) (BatchInfo, error) {
	info, err := PeekBatchInfo(buf)
	if err != nil {
		return BatchInfo{}, err
	}
	if len(buf) < info.Length {
		return BatchInfo{}, ErrShort
	}
	codec, _ := PeekCodec(buf)
	if !codec.Valid() {
		return BatchInfo{}, fmt.Errorf("%w: unknown codec %d", ErrCorrupt, codec)
	}
	b := buf[:info.Length]
	if crc32.Checksum(b[crcDataOffset:], castagnoli) != binary.BigEndian.Uint32(b[crcOffset:]) {
		return BatchInfo{}, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	return info, nil
}

// ValidateBatch is the broker's produce-path validation: CheckBatch plus a
// full structural walk of the record region (inflating compressed batches
// into pooled scratch — the stored bytes remain the producer's, verbatim).
// Neither the inflate nor the walk allocates, and the walk confirms that
// exactly RecordCount records parse and consume the whole region, so a
// CRC-valid but structurally corrupt batch is rejected at produce time
// instead of being stored and wedging every reader of the partition.
func ValidateBatch(buf []byte) (BatchInfo, error) {
	info, err := CheckBatch(buf)
	if err != nil {
		return BatchInfo{}, err
	}
	codec, _ := PeekCodec(buf)
	body := buf[batchHeaderLen:info.Length]
	if codec != CodecNone {
		in := inflaters.Get().(*inflater)
		defer inflaters.Put(in)
		if body, err = in.inflate(codec, body); err != nil {
			return BatchInfo{}, err
		}
	}
	if err := walkRecords(body, info.RecordCount); err != nil {
		return BatchInfo{}, err
	}
	return info, nil
}

// walkRecords bounds-checks count records in an uncompressed record region
// without materialising them, requiring the region to be consumed exactly.
func walkRecords(body []byte, count int) error {
	pos := 0
	skipBytes := func() bool {
		if pos+4 > len(body) {
			return false
		}
		n := int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
		if n == -1 {
			return true
		}
		if n < 0 || pos+int(n) > len(body) {
			return false
		}
		pos += int(n)
		return true
	}
	for i := 0; i < count; i++ {
		if pos+12 > len(body) {
			return fmt.Errorf("%w: truncated record %d", ErrCorrupt, i)
		}
		pos += 12 // offsetDelta + timestampDelta
		if !skipBytes() || !skipBytes() {
			return fmt.Errorf("%w: bad key/value in record %d", ErrCorrupt, i)
		}
		if pos+4 > len(body) {
			return fmt.Errorf("%w: truncated record %d", ErrCorrupt, i)
		}
		hc := int(int32(binary.BigEndian.Uint32(body[pos:])))
		pos += 4
		if hc < 0 {
			return fmt.Errorf("%w: negative header count in record %d", ErrCorrupt, i)
		}
		for j := 0; j < hc; j++ {
			if !skipBytes() || !skipBytes() {
				return fmt.Errorf("%w: bad header in record %d", ErrCorrupt, i)
			}
		}
	}
	if pos != len(body) {
		return fmt.Errorf("%w: %d trailing bytes after %d records", ErrCorrupt, len(body)-pos, count)
	}
	return nil
}

// RestampBase rewrites the base offset of the sealed batch at the start of
// buf in place. The offset prefix sits outside the CRC-covered region
// precisely so the leader can assign offsets to a producer's sealed
// (possibly compressed) batch without opening it — record offsets inside
// are deltas, so the whole batch shifts with its base.
func RestampBase(buf []byte, base int64) error {
	if len(buf) < 8 {
		return ErrShort
	}
	binary.BigEndian.PutUint64(buf, uint64(base))
	return nil
}
