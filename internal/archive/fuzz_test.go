package archive

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/client"
	"repro/internal/storage/record"
)

// FuzzArchiveSegment feeds arbitrary bytes to the segment reader, which
// reads files from the DFS and so must treat them as untrusted. Properties:
// it never panics; what it allocates is bounded by the input length; it
// fails only with ErrBadSegment, and on success returns exactly the records
// of the file's batches; and a segment built from the input as archived
// batches decodes to exactly the archived records. The seeds pin truncated,
// garbled and retired-format (LIQARCH1/2) files as ErrBadSegment.
//
//	go test ./internal/archive -run '^$' -fuzz '^FuzzArchiveSegment$' -fuzztime 30s
func FuzzArchiveSegment(f *testing.F) {
	good := concat(append(feedBatches(f, record.CodecNone, 0, 6, 3), feedBatches(f, record.CodecFlate, 6, 6, 3)...))
	garbled := bytes.Clone(good)
	garbled[len(garbled)/2] ^= 0xFF
	seeds := []struct {
		data []byte
		ok   bool
	}{{good, true}, {good[:len(good)-1], false}, {garbled, false}}
	for _, name := range []string{"testdata/liqarch1.seg", "testdata/liqarch2.seg"} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, struct {
			data []byte
			ok   bool
		}{data, false})
	}
	for _, seed := range seeds {
		if _, err := DecodeSegment(seed.data); (err == nil) != seed.ok || err != nil && !errors.Is(err, ErrBadSegment) {
			f.Fatalf("seed of %d bytes: err %v, want ok=%v or ErrBadSegment", len(seed.data), err, seed.ok)
		}
		f.Add(seed.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := DecodeSegment(data)
		runtime.ReadMemStats(&after)
		// Deflate expands by at most ~1032x; a decoded record costs a
		// small multiple of its bytes. A count taken on trust costs more.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+16<<10*len(data)); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, over the bound %d", len(data), alloc, bound)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("error %v is not ErrBadSegment", err)
			}
		} else if want := batchRecords(t, data); !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %d records, the batches hold %d", len(got), len(want))
		}

		// The input as archived batches: values cut from it, offsets with
		// gaps, codecs alternating, three records to a batch.
		var recs []record.Record
		for i := 0; i < len(data); i += 7 {
			recs = append(recs, record.Record{Offset: int64(2 * i), Timestamp: int64(i), Value: data[i:min(i+7, len(data))]})
		}
		var batches []client.Batch
		for i := 0; i < len(recs); i += 3 {
			batches = append(batches, sealBatch(t, []record.Codec{record.CodecNone, record.CodecFlate}[i/3%2], recs[i:min(i+3, len(recs))]))
		}
		if len(batches) == 0 {
			return
		}
		archived, err := DecodeSegment(concat(batches))
		if err != nil || len(archived) != len(recs) {
			t.Fatalf("segment of %d archived records decoded to %d, %v", len(recs), len(archived), err)
		}
		for i, r := range archived {
			if r.Offset != recs[i].Offset || r.Timestamp != recs[i].Timestamp || !bytes.Equal(r.Value, recs[i].Value) || r.Key != nil {
				t.Fatalf("archived record %d = %v, want %v", i, r, recs[i])
			}
		}
	})
}

// batchRecords decodes data batch by batch: the records a well-formed
// segment holds.
func batchRecords(t *testing.T, data []byte) []record.Record {
	var out []record.Record
	for len(data) > 0 {
		b, n, err := record.DecodeBatch(data)
		if err != nil {
			t.Fatalf("DecodeSegment accepted a batch DecodeBatch refuses: %v", err)
		}
		out = append(out, b.Records...)
		data = data[n:]
	}
	return out
}
