package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Timestamp: int64(1000 + i),
			Key:       []byte{byte('a' + i%26)},
			Value:     bytes.Repeat([]byte("payload-"), 8),
			Headers:   []Header{{Key: "h", Value: []byte{byte(i)}}},
		}
	}
	return recs
}

func TestCodecRoundTrip(t *testing.T) {
	recs := testRecords(10)
	plain := EncodeBatch(42, recs)
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			sealed, err := Compress(plain, codec)
			if err != nil {
				t.Fatal(err)
			}
			got, n, err := DecodeBatch(sealed)
			if err != nil {
				t.Fatalf("DecodeBatch: %v", err)
			}
			if n != len(sealed) {
				t.Fatalf("consumed %d, want %d", n, len(sealed))
			}
			if got.BaseOffset != 42 || len(got.Records) != len(recs) {
				t.Fatalf("decoded base=%d count=%d", got.BaseOffset, len(got.Records))
			}
			for i, r := range got.Records {
				want := recs[i]
				if r.Offset != 42+int64(i) || r.Timestamp != want.Timestamp ||
					!bytes.Equal(r.Key, want.Key) || !bytes.Equal(r.Value, want.Value) ||
					len(r.Headers) != 1 || r.Headers[0].Key != "h" {
					t.Fatalf("record %d mismatch: %+v", i, r)
				}
			}
			// Header metadata must survive sealing so brokers can index
			// compressed batches without inflating them.
			info, err := PeekBatchInfo(sealed)
			if err != nil {
				t.Fatal(err)
			}
			if info.BaseOffset != 42 || info.LastOffset != 51 || info.RecordCount != 10 {
				t.Fatalf("sealed info = %+v", info)
			}
			if info.Length != len(sealed) {
				t.Fatalf("sealed length = %d, want %d", info.Length, len(sealed))
			}
			pc, err := PeekCodec(sealed)
			if err != nil || pc != codec {
				t.Fatalf("PeekCodec = %v, %v", pc, err)
			}
			if _, err := CheckBatch(sealed); err != nil {
				t.Fatalf("CheckBatch: %v", err)
			}
		})
	}
}

func TestCompressShrinksCompressible(t *testing.T) {
	recs := make([]Record, 32)
	for i := range recs {
		recs[i] = Record{Timestamp: 1, Value: bytes.Repeat([]byte("abcdefgh"), 128)}
	}
	plain := EncodeBatch(0, recs)
	sealed, err := Compress(plain, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) >= len(plain)/4 {
		t.Fatalf("sealed %dB not < 1/4 of plain %dB", len(sealed), len(plain))
	}
}

func TestDecompressRestoresPlainBatch(t *testing.T) {
	plain := EncodeBatch(7, testRecords(5))
	sealed, err := Compress(plain, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, plain) {
		t.Fatal("Decompress(Compress(b)) != b")
	}
}

func TestCorruptCompressedBatchRejected(t *testing.T) {
	sealed, err := Compress(EncodeBatch(0, testRecords(8)), CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the compressed record region: the CRC over the
	// sealed bytes must catch it before any inflation happens.
	bad := append([]byte(nil), sealed...)
	bad[len(bad)-3] ^= 0xFF
	if _, err := CheckBatch(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("CheckBatch on corrupt batch: %v", err)
	}
	if _, _, err := DecodeBatch(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeBatch on corrupt batch: %v", err)
	}
	// A batch whose CRC was "fixed up" after corruption still fails: the
	// inflater rejects the stream, with the error wrapped as corruption so
	// readers treat both identically.
	resealed := append([]byte(nil), sealed...)
	resealed[len(resealed)-3] ^= 0xFF
	fixCRC(resealed)
	if _, _, err := DecodeBatch(resealed); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeBatch on re-CRCed corrupt batch: %v", err)
	}
}

// fixCRC recomputes the CRC of a (possibly corrupt) batch in place.
func fixCRC(b []byte) {
	crc := checksum(b[crcDataOffset:])
	b[crcOffset] = byte(crc >> 24)
	b[crcOffset+1] = byte(crc >> 16)
	b[crcOffset+2] = byte(crc >> 8)
	b[crcOffset+3] = byte(crc)
}

func TestCheckBatchUnknownCodec(t *testing.T) {
	plain := EncodeBatch(0, testRecords(2))
	bad := append([]byte(nil), plain...)
	bad[attrsOffset+1] |= 0x07 // codec 7: reserved
	fixCRC(bad)
	if _, err := CheckBatch(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("CheckBatch with unknown codec: %v", err)
	}
}

// gzipFraming wraps plain in the gzip container (RFC 1952) the retired codec
// id 1 carried: a 10-byte header, a raw deflate stream, and the CRC-32 and
// size of plain.
func gzipFraming(t *testing.T, plain []byte) []byte {
	t.Helper()
	deflated, err := CompressRaw(CodecFlate, plain)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}, deflated...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(plain))
	return binary.LittleEndian.AppendUint32(out, uint32(len(plain)))
}

// TestRetiredCodecRefused: id 1 was gzip and stays unassigned. A CRC-valid
// batch carrying it — a well-formed gzip region included — is corrupt to every
// entry point, and "gzip" no longer names a codec.
func TestRetiredCodecRefused(t *testing.T) {
	plain := EncodeBatch(0, testRecords(4))
	retired := reseal(plain, gzipFraming(t, plain[batchHeaderLen:]), Codec(1))
	if _, err := CheckBatch(retired); !errors.Is(err, ErrCorrupt) {
		t.Errorf("CheckBatch: %v, want ErrCorrupt", err)
	}
	if _, err := ValidateBatch(retired); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ValidateBatch: %v, want ErrCorrupt", err)
	}
	if _, _, err := DecodeBatch(retired); !errors.Is(err, ErrCorrupt) {
		t.Errorf("DecodeBatch: %v, want ErrCorrupt", err)
	}
	if _, err := Decompress(retired); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Decompress: %v, want ErrCorrupt", err)
	}
	if c, err := ParseCodec("gzip"); err == nil {
		t.Errorf("ParseCodec(\"gzip\") = %s, want an error", c)
	}
}

func TestRestampBaseShiftsRecordOffsets(t *testing.T) {
	plain := EncodeBatch(0, testRecords(4))
	sealed, err := Compress(plain, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestampBase(sealed, 1000); err != nil {
		t.Fatal(err)
	}
	// The CRC excludes the offset prefix, so the restamped batch still
	// verifies and decodes at the new base.
	if _, err := CheckBatch(sealed); err != nil {
		t.Fatalf("CheckBatch after restamp: %v", err)
	}
	got, _, err := DecodeBatch(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseOffset != 1000 || got.Records[3].Offset != 1003 {
		t.Fatalf("restamped offsets: base=%d last=%d", got.BaseOffset, got.Records[3].Offset)
	}
}

func TestMixedCodecScan(t *testing.T) {
	// A buffer of consecutive batches with different codecs — the shape of
	// a topic that enabled compression mid-life — scans as one stream.
	var buf []byte
	var want []string
	for i, codec := range []Codec{CodecNone, CodecFlate, CodecNone} {
		recs := []Record{{Timestamp: 1, Value: []byte{byte('A' + i)}}}
		b, err := Compress(EncodeBatch(int64(i), recs), codec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, b...)
		want = append(want, string(recs[0].Value))
	}
	var got []string
	if err := ScanRecords(buf, func(r Record) error {
		got = append(got, string(r.Value))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestParseCodec(t *testing.T) {
	for s, want := range map[string]Codec{"": CodecNone, "none": CodecNone, "flate": CodecFlate} {
		got, err := ParseCodec(s)
		if err != nil || got != want {
			t.Fatalf("ParseCodec(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCodec("zstd"); err == nil {
		t.Fatal("ParseCodec should reject unknown codecs")
	}
}

func TestEncodeBatchIntoReusesBuffer(t *testing.T) {
	recs := testRecords(4)
	buf := make([]byte, 0, 4096)
	b1 := EncodeBatchInto(buf, 0, recs)
	if &b1[0] != &buf[:1][0] {
		t.Fatal("EncodeBatchInto should reuse the provided buffer")
	}
	b2 := EncodeBatch(0, recs)
	if !bytes.Equal(b1, b2) {
		t.Fatal("EncodeBatchInto output differs from EncodeBatch")
	}
}

func TestValidateBatchRejectsStructuralCorruption(t *testing.T) {
	for _, codec := range []Codec{CodecNone, CodecFlate} {
		plain := EncodeBatch(0, testRecords(4))
		sealed, err := Compress(plain, codec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateBatch(sealed); err != nil {
			t.Fatalf("%s: valid batch rejected: %v", codec, err)
		}
		// Lie about the record count and re-seal the CRC: the CRC passes
		// but the structural walk must reject it — this is the batch that
		// would otherwise be stored and wedge every reader.
		bad := append([]byte(nil), sealed...)
		bad[attrsOffset+25] = 9 // recordCount low byte: 4 -> 9
		fixCRC(bad)
		if _, err := CheckBatch(bad); err != nil {
			t.Fatalf("%s: CheckBatch should pass on re-CRCed batch: %v", codec, err)
		}
		if _, err := ValidateBatch(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: structurally corrupt batch accepted: %v", codec, err)
		}
	}
}
