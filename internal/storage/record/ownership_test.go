package record

import (
	"bytes"
	"errors"
	"testing"
)

var allCodecs = []Codec{CodecNone, CodecFlate}

// seal compresses an uncompressed batch, failing the test on error.
func seal(t testing.TB, plain []byte, codec Codec) []byte {
	t.Helper()
	sealed, err := Compress(plain, codec)
	if err != nil {
		t.Fatalf("Compress(%s): %v", codec, err)
	}
	return sealed
}

// rawBatch builds a CRC-valid batch claiming count records around an
// arbitrary (already compressed, or deliberately malformed) record region.
func rawBatch(codec Codec, count int, region []byte) []byte {
	return reseal(EncodeBatch(0, make([]Record, count)), region, codec)
}

// The ownership rule of DecodeBatch: decoded records never alias the input,
// so the caller may reuse or scribble over it (wire frames, segment reads,
// pooled buffers) the moment DecodeBatch returns.
func TestDecodedRecordsDoNotAliasInput(t *testing.T) {
	want := testRecords(20)
	for _, codec := range allCodecs {
		buf := append([]byte(nil), seal(t, EncodeBatch(7, want), codec)...)
		b, _, err := DecodeBatch(buf)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		for i := range buf {
			buf[i] = 0xAA
		}
		for i, r := range b.Records {
			w := want[i]
			if r.Offset != int64(7+i) || !bytes.Equal(r.Key, w.Key) || !bytes.Equal(r.Value, w.Value) ||
				len(r.Headers) != 1 || r.Headers[0].Key != "h" || !bytes.Equal(r.Headers[0].Value, w.Headers[0].Value) {
				t.Fatalf("%s: record %d changed after the input was overwritten: %v", codec, i, r)
			}
		}
	}
}

// Every decoded byte field is capacity-clipped: records share one arena, and
// an append to one field must reallocate rather than run into its neighbour.
func TestDecodedFieldsAreCapacityClipped(t *testing.T) {
	for _, codec := range allCodecs {
		b, _, err := DecodeBatch(seal(t, EncodeBatch(0, testRecords(5)), codec))
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		for i, r := range b.Records {
			for name, f := range map[string][]byte{"key": r.Key, "value": r.Value, "header value": r.Headers[0].Value} {
				if cap(f) != len(f) {
					t.Errorf("%s: record %d %s has cap %d, len %d", codec, i, name, cap(f), len(f))
				}
			}
		}
		next := append([]byte(nil), b.Records[1].Value...)
		_ = append(b.Records[0].Value, "overrun-overrun-overrun"...)
		_ = append(b.Records[0].Key, "overrun-overrun-overrun"...)
		if !bytes.Equal(b.Records[1].Value, next) || !bytes.Equal(b.Records[1].Key, []byte{'b'}) {
			t.Errorf("%s: append to record 0 overwrote record 1", codec)
		}
	}
}

func TestNilVsEmptyPreservedAcrossCodecs(t *testing.T) {
	recs := []Record{
		{Key: nil, Value: []byte{}, Headers: []Header{{Key: "nil", Value: nil}, {Key: "empty", Value: []byte{}}}},
		{Key: []byte{}, Value: nil},
	}
	for _, codec := range allCodecs {
		b, _, err := DecodeBatch(seal(t, EncodeBatch(0, recs), codec))
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		r0, r1 := b.Records[0], b.Records[1]
		if r0.Key != nil || r0.Value == nil || len(r0.Value) != 0 {
			t.Errorf("%s: record 0 key %v value %v, want nil key and empty value", codec, r0.Key, r0.Value)
		}
		if r1.Key == nil || len(r1.Key) != 0 || r1.Value != nil {
			t.Errorf("%s: record 1 key %v value %v, want empty key and nil value", codec, r1.Key, r1.Value)
		}
		if h := r0.Headers; len(h) != 2 || h[0].Value != nil || h[1].Value == nil || len(h[1].Value) != 0 {
			t.Errorf("%s: header values %v, want nil then empty", codec, h)
		}
	}
}

// A region that inflates to exactly the bound is accepted; one byte more is
// a bomb, rejected as corrupt with the scratch never grown past the bound.
// So is the hand-made bomb of about 64 KiB that FuzzInflate starts from.
func TestInflateStopsAtBound(t *testing.T) {
	if testing.Short() {
		t.Skip("inflates 2 x 64 MiB")
	}
	zeros := make([]byte, maxInflatedBody+1)
	codec := CodecFlate
	atBound, err := CompressRaw(codec, zeros[:maxInflatedBody])
	if err != nil {
		t.Fatal(err)
	}
	bomb, err := CompressRaw(codec, zeros)
	if err != nil {
		t.Fatal(err)
	}
	in := inflaters.Get().(*inflater)
	if out, err := in.inflate(codec, atBound); err != nil || len(out) != maxInflatedBody {
		t.Errorf("%s: region of exactly the bound: %d bytes, %v", codec, len(out), err)
	}
	for _, b := range [][]byte{bomb, deflateBomb()} {
		if _, err := in.inflate(codec, b); !errors.Is(err, ErrCorrupt) || !errors.Is(err, errTooLarge) {
			t.Errorf("%s: bomb of %d compressed bytes: %v, want ErrCorrupt beyond the bound", codec, len(b), err)
		}
	}
	if cap(in.buf) > maxInflatedBody {
		t.Errorf("%s: scratch grew to %d, beyond the bound", codec, cap(in.buf))
	}
	inflaters.Put(in)

	sealed := rawBatch(codec, 1, bomb)
	if _, _, err := DecodeBatch(sealed); !errors.Is(err, ErrCorrupt) {
		t.Errorf("%s: DecodeBatch of a bomb: %v", codec, err)
	}
	if _, err := ValidateBatch(sealed); !errors.Is(err, ErrCorrupt) {
		t.Errorf("%s: ValidateBatch of a bomb: %v", codec, err)
	}
}

// A compressed region cut short — at every length, the empty one included —
// is ErrCorrupt from every entry point that inflates, never a short batch
// taken for a whole one.
func TestTruncatedStreamIsCorrupt(t *testing.T) {
	plain := EncodeBatch(0, testRecords(8))
	codec := CodecFlate
	region := seal(t, plain, codec)[batchHeaderLen:]
	for cut := 0; cut < len(region); cut++ {
		bad := rawBatch(codec, 8, region[:cut])
		if _, _, err := DecodeBatch(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s cut at %d/%d: DecodeBatch: %v", codec, cut, len(region), err)
		}
		if _, err := ValidateBatch(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s cut at %d/%d: ValidateBatch: %v", codec, cut, len(region), err)
		}
		if _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s cut at %d/%d: Decompress: %v", codec, cut, len(region), err)
		}
	}
}

// CountRecords sizes a consumer's output from headers: it must agree with a
// full decode on mixed-codec input, stop at a trailing partial batch, and
// refuse a corrupt one.
func TestCountRecordsFromHeaders(t *testing.T) {
	var buf []byte
	want := 0
	for i, codec := range []Codec{CodecFlate, CodecNone, CodecFlate, CodecFlate} {
		buf = append(buf, seal(t, EncodeBatch(int64(want), testRecords(3+i)), codec)...)
		want += 3 + i
	}
	for _, data := range [][]byte{buf, append(append([]byte(nil), buf...), buf[:40]...), append(append([]byte(nil), buf...), buf[:batchHeaderLen+5]...)} {
		if n, err := CountRecords(data); err != nil || n != want {
			t.Fatalf("CountRecords = %d, %v; want %d", n, err, want)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 1
	if n, err := CountRecords(bad); !errors.Is(err, ErrCorrupt) || n != want-6 {
		t.Fatalf("CountRecords over a corrupt last batch = %d, %v; want %d, ErrCorrupt", n, err, want-6)
	}
	// A CRC-valid header that claims more than its bytes could hold is
	// clipped, not believed.
	liar := EncodeBatch(0, testRecords(2))
	liar[attrsOffset+22] = 0x7F // recordCount high byte
	fixCRC(liar)
	if n, err := CountRecords(liar); err != nil || n > len(liar)/minRecordLen {
		t.Fatalf("CountRecords of an over-claiming header = %d, %v; want at most %d", n, err, len(liar)/minRecordLen)
	}
}

func TestOffsetForTimestamp(t *testing.T) {
	// Four batches of five records, timestamps 100..119 then a dip: batch 2
	// (offsets 10-14) restarts at 50, so it is skipped for ts in (54, 119].
	var buf []byte
	ts := [][]int64{{100, 101, 102, 103, 104}, {105, 106, 107, 108, 109}, {50, 51, 52, 53, 54}, {115, 116, 117, 118, 119}}
	for i, codec := range []Codec{CodecFlate, CodecNone, CodecFlate, CodecFlate} {
		recs := make([]Record, len(ts[i]))
		for j := range recs {
			recs[j] = Record{Timestamp: ts[i][j], Value: []byte("v")}
		}
		buf = append(buf, seal(t, EncodeBatch(int64(i*5), recs), codec)...)
	}
	for _, tc := range []struct{ ts, want int64 }{
		{0, 0}, {100, 0}, {103, 3}, {105, 5}, {109, 9}, {110, 15}, {119, 19}, {120, -1},
	} {
		if got, err := OffsetForTimestamp(buf, tc.ts); err != nil || got != tc.want {
			t.Errorf("OffsetForTimestamp(%d) = %d, %v; want %d", tc.ts, got, err, tc.want)
		}
	}
	// Batches that cannot qualify are skipped by header alone: garbage in
	// their record regions is not even looked at, while a qualifying batch
	// is fully verified.
	junk := append([]byte(nil), buf...)
	junk[batchHeaderLen+3] ^= 0xFF // inside batch 0
	if got, err := OffsetForTimestamp(junk, 110); err != nil || got != 15 {
		t.Errorf("lookup past a damaged, skipped batch = %d, %v; want 15", got, err)
	}
	if _, err := OffsetForTimestamp(junk, 100); !errors.Is(err, ErrCorrupt) {
		t.Errorf("lookup into a damaged batch: %v, want ErrCorrupt", err)
	}
	if got, err := OffsetForTimestamp(buf[:len(buf)-4], 115); err != nil || got != -1 {
		t.Errorf("lookup ending in a partial batch = %d, %v; want -1", got, err)
	}
}
