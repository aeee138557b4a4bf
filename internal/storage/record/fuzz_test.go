package record

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// Native fuzz targets for the bytes a broker or consumer did not write
// itself. Seed corpus: testdata/fuzz/<target>/ (the round-trip and
// corruption cases of the unit tests in both codecs, plus the retired and an
// unknown codec id). CI runs each target for 30 s; reproduce a finding with
//
//	go test ./internal/storage/record -run 'FuzzDecodeBatch/<file>'

// resealed returns data with its length field and CRC made consistent with
// its size, so a mutation reaches the code behind those two checks instead of
// dying at them. Inputs shorter than a header come back unchanged.
func resealed(data []byte) []byte {
	if len(data) < batchHeaderLen {
		return data
	}
	b := append([]byte(nil), data...)
	binary.BigEndian.PutUint32(b[8:], uint32(len(b)-12))
	fixCRC(b)
	return b
}

// checkDecoded holds a successful DecodeBatch to what it promises: it
// consumed a plausible length, its output fits the inflation bound, no field
// aliases the input or can be appended into its neighbour, and re-encoding
// what it returned decodes to the same records.
func checkDecoded(t *testing.T, in []byte, b Batch, n int) {
	t.Helper()
	if n < batchHeaderLen || n > len(in) {
		t.Fatalf("DecodeBatch consumed %d of %d bytes", n, len(in))
	}
	total := 0
	clipped := func(f []byte) {
		total += len(f)
		if cap(f) != len(f) {
			t.Fatalf("decoded field has cap %d, len %d", cap(f), len(f))
		}
	}
	consecutive := true
	for i, r := range b.Records {
		clipped(r.Key)
		clipped(r.Value)
		for _, h := range r.Headers {
			total += len(h.Key)
			clipped(h.Value)
		}
		consecutive = consecutive && r.Offset == b.BaseOffset+int64(i)
	}
	if total > maxInflatedBody {
		t.Fatalf("decoded %d bytes of fields, beyond the inflation bound", total)
	}
	before := make([]Record, len(b.Records))
	for i, r := range b.Records {
		before[i] = r
		before[i].Key, before[i].Value = bytes.Clone(r.Key), bytes.Clone(r.Value)
		before[i].Headers = nil
		for _, h := range r.Headers {
			before[i].Headers = append(before[i].Headers, Header{Key: h.Key, Value: bytes.Clone(h.Value)})
		}
	}
	for i := range in[:n] {
		in[i] ^= 0xFF
	}
	if len(before) > 0 && !reflect.DeepEqual(before, b.Records) {
		t.Fatal("decoded records changed when the input was overwritten")
	}
	for i := range in[:n] {
		in[i] ^= 0xFF
	}
	// EncodeBatch numbers records consecutively from the base, so the
	// identity is checked on batches that are numbered that way — which is
	// every batch an encoder of this package produces.
	if len(b.Records) > 0 && consecutive {
		again, _, err := DecodeBatch(EncodeBatch(b.BaseOffset, b.Records))
		if err != nil || !reflect.DeepEqual(again.Records, b.Records) {
			t.Fatalf("decode(encode(records)) differs from records (err %v)", err)
		}
	}
}

func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealed(data)} {
			if b, n, err := DecodeBatch(in); err == nil {
				checkDecoded(t, in, b, n)
			}
			// The header-only readers walk the same bytes: a consumer sizes
			// its output from CountRecords, so it must never claim fewer
			// records than the scan then delivers.
			claimed, cerr := CountRecords(in)
			decoded := 0
			serr := ScanRecords(in, func(Record) error { decoded++; return nil })
			if cerr == nil && serr == nil && claimed < decoded {
				t.Fatalf("CountRecords claims %d records, ScanRecords delivered %d", claimed, decoded)
			}
			_, _ = OffsetForTimestamp(in, 0)
		}
	})
}

// ValidateBatch is the leader's gate: what it lets into the log, every reader
// must be able to open. Decompress is the tool-side rewrite: what it returns
// is an uncompressed batch holding the same records, within the bound.
func FuzzValidateDecompress(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealed(data)} {
			info, verr := ValidateBatch(in)
			b, n, derr := DecodeBatch(in)
			if verr == nil {
				if derr != nil || n != info.Length || len(b.Records) != info.RecordCount {
					t.Fatalf("ValidateBatch accepted %d records in %d bytes; DecodeBatch: %d records, %d bytes, %v",
						info.RecordCount, info.Length, len(b.Records), n, derr)
				}
				if c, err := CountRecords(in[:n]); err != nil || c != info.RecordCount {
					t.Fatalf("CountRecords of a validated batch = %d, %v; want %d", c, err, info.RecordCount)
				}
			}
			plain, err := Decompress(in)
			if err != nil {
				if verr == nil {
					t.Fatalf("Decompress rejected a batch ValidateBatch accepted: %v", err)
				}
				continue
			}
			if len(plain) > batchHeaderLen+maxInflatedBody {
				t.Fatalf("Decompress returned %d bytes, beyond the inflation bound", len(plain))
			}
			if codec, _ := PeekCodec(plain); codec != CodecNone {
				t.Fatalf("Decompress returned a %s batch", codec)
			}
			if derr != nil {
				continue // CRC-invalid input: Decompress does not check the CRC
			}
			pb, _, err := DecodeBatch(plain)
			if err != nil || !reflect.DeepEqual(pb.Records, b.Records) {
				t.Fatalf("records of Decompress(batch) differ from records of batch (err %v)", err)
			}
			if _, err := ValidateBatch(plain); (err == nil) != (verr == nil) {
				t.Fatalf("ValidateBatch: %v on the batch, %v on its decompressed form", verr, err)
			}
			if !bytes.Equal(plain[:8], in[:8]) || !bytes.Equal(plain[producerOffset:crcOffset], in[producerOffset:crcOffset]) {
				t.Fatal("Decompress changed the base offset or the producer stamp")
			}
		}
	})
}

// FuzzInflate holds the inflater to compress/flate, differentially: it never
// panics, accepts exactly the streams compress/flate inflates within
// maxInflatedBody, to the same bytes, never grows its scratch past the bound,
// and wraps every rejection in ErrCorrupt. Seeds (inflateSeeds): RUM
// batches, every compress/flate level on every block type, a stored block
// after a Huffman block, truncated final blocks and a bomb past the bound.
func FuzzInflate(f *testing.F) {
	for _, s := range inflateSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkInflate)
}
