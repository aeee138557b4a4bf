package archive

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/storage/record"
)

// compressibleBatches renders n records with repetitive payloads in batches
// of per, sealed with codec.
func compressibleBatches(t *testing.T, codec record.Codec, n, per int) []client.Batch {
	var out []client.Batch
	for first := 0; first < n; first += per {
		recs := make([]record.Record, per)
		for i := range recs {
			off := first + i
			recs[i] = record.Record{
				Offset:    int64(off),
				Timestamp: int64(1000 + off),
				Key:       []byte{'k', byte(off)},
				Value:     bytes.Repeat([]byte("segment-payload-"), 4),
				Headers:   []record.Header{{Key: "h", Value: []byte{byte(off)}}},
			}
		}
		out = append(out, sealBatch(t, codec, recs))
	}
	return out
}

// rollAll exports batches as one segment and returns its bytes.
func rollAll(t *testing.T, batches []client.Batch) []byte {
	t.Helper()
	fs := crashFS(t)
	exp, err := openExporter(fs, "/archive", "t", 0, exporterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		exp.add(b)
	}
	info, err := exp.roll()
	if err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// An archived batch is the log's batch: the segment holds the fetched bytes
// verbatim, compressed exactly when the producer compressed them, and reads
// back as the same records.
func TestSegmentCompressedRoundTrip(t *testing.T) {
	for _, codec := range []record.Codec{record.CodecNone, record.CodecFlate} {
		batches := compressibleBatches(t, codec, 16, 4)
		data := rollAll(t, batches)
		if !bytes.Equal(data, concat(batches)) {
			t.Fatalf("%s: segment is not the log's batches verbatim", codec)
		}
		got, err := DecodeSegment(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", codec, err)
		}
		if len(got) != 16 {
			t.Fatalf("%s: %d records, want 16", codec, len(got))
		}
		for i, r := range got {
			if r.Offset != int64(i) || r.Timestamp != int64(1000+i) || !bytes.Equal(r.Key, []byte{'k', byte(i)}) ||
				len(r.Headers) != 1 || !bytes.Equal(r.Headers[0].Value, []byte{byte(i)}) {
				t.Fatalf("%s: record %d mismatch: %v", codec, i, r)
			}
		}
	}
}

func TestSegmentCompressionShrinks(t *testing.T) {
	plain := rollAll(t, compressibleBatches(t, record.CodecNone, 256, 64))
	packed := rollAll(t, compressibleBatches(t, record.CodecFlate, 256, 64))
	if len(packed) >= len(plain)/2 {
		t.Fatalf("segment of flate batches %dB not < half of %dB", len(packed), len(plain))
	}
}

// The record-by-record formats the archive wrote before it stored log
// batches are refused by name; there is no migration.
func TestSegmentRetiredFormatRefused(t *testing.T) {
	for _, format := range []string{"LIQARCH1", "LIQARCH2"} {
		data, err := os.ReadFile(fmt.Sprintf("testdata/%s.seg", strings.ToLower(format)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSegment(data); !errors.Is(err, ErrBadSegment) || !strings.Contains(err.Error(), format) {
			t.Fatalf("%s segment: decode = %v, want ErrBadSegment naming the format", format, err)
		}
	}
}

func TestCorruptCompressedSegmentRejected(t *testing.T) {
	data := concat(compressibleBatches(t, record.CodecFlate, 8, 4))
	bad := bytes.Clone(data)
	bad[len(bad)-4] ^= 0xFF
	if _, err := DecodeSegment(bad); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("corrupt compressed segment decoded: %v", err)
	}
}
