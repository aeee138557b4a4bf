package archive

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/storage/record"
)

func archRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Offset:    int64(i * 2), // gaps: compaction survivors
			Timestamp: int64(1000 + i),
			Key:       []byte{byte('k'), byte(i)},
			Value:     bytes.Repeat([]byte("segment-payload-"), 4),
			Headers:   []record.Header{{Key: "h", Value: []byte{byte(i)}}},
		}
	}
	return recs
}

func TestSegmentCompressedRoundTrip(t *testing.T) {
	recs := archRecords(16)
	for _, codec := range []record.Codec{record.CodecNone, record.CodecFlate} {
		data, err := EncodeSegmentCodec(recs, codec)
		if err != nil {
			t.Fatalf("%s: encode: %v", codec, err)
		}
		got, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", codec, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: %d records, want %d", codec, len(got), len(recs))
		}
		for i := range recs {
			if got[i].Offset != recs[i].Offset || !bytes.Equal(got[i].Value, recs[i].Value) ||
				!bytes.Equal(got[i].Key, recs[i].Key) || got[i].Timestamp != recs[i].Timestamp {
				t.Fatalf("%s: record %d mismatch", codec, i)
			}
		}
	}
}

func TestSegmentCompressionShrinks(t *testing.T) {
	recs := archRecords(256)
	plain, _ := EncodeSegmentCodec(recs, record.CodecNone)
	packed, err := EncodeSegmentCodec(recs, record.CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(plain)/2 {
		t.Fatalf("compressed segment %dB not < half of %dB", len(packed), len(plain))
	}
}

func TestSegmentOldFormatStillDecodes(t *testing.T) {
	// EncodeSegment writes the classic LIQARCH1 format; archives written
	// before compression existed must keep decoding.
	recs := archRecords(4)
	data := EncodeSegment(recs)
	if !bytes.Equal(data[:8], []byte("LIQARCH1")) {
		t.Fatalf("EncodeSegment magic = %q", data[:8])
	}
	got, err := DecodeSegment(data)
	if err != nil || len(got) != 4 {
		t.Fatalf("decode old format: %d records, %v", len(got), err)
	}
}

func TestCorruptCompressedSegmentRejected(t *testing.T) {
	data, err := EncodeSegmentCodec(archRecords(8), record.CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)-4] ^= 0xFF
	if _, err := DecodeSegment(bad); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("corrupt compressed segment decoded: %v", err)
	}
}
