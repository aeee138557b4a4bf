package record

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleRecords() []Record {
	return []Record{
		{Timestamp: 1000, Key: []byte("k1"), Value: []byte("v1")},
		{Timestamp: 1005, Key: nil, Value: []byte("no key")},
		{Timestamp: 990, Key: []byte("k2"), Value: nil}, // tombstone
		{Timestamp: 1010, Key: []byte("k3"), Value: []byte("v3"),
			Headers: []Header{{Key: "lineage", Value: []byte("job-7")}, {Key: "v", Value: nil}}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	buf := EncodeBatch(42, sampleRecords())
	b, n, err := DecodeBatch(buf)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d bytes, want %d", n, len(buf))
	}
	if b.BaseOffset != 42 {
		t.Fatalf("BaseOffset = %d, want 42", b.BaseOffset)
	}
	if len(b.Records) != 4 {
		t.Fatalf("got %d records, want 4", len(b.Records))
	}
	for i, r := range b.Records {
		if r.Offset != 42+int64(i) {
			t.Errorf("record %d offset = %d, want %d", i, r.Offset, 42+i)
		}
	}
	want := sampleRecords()
	for i := range want {
		got := b.Records[i]
		if !bytes.Equal(got.Key, want[i].Key) || !bytes.Equal(got.Value, want[i].Value) {
			t.Errorf("record %d = %v, want key=%q value=%q", i, got, want[i].Key, want[i].Value)
		}
		if got.Timestamp != want[i].Timestamp {
			t.Errorf("record %d timestamp = %d, want %d", i, got.Timestamp, want[i].Timestamp)
		}
	}
	// Headers survive.
	h := b.Records[3].Headers
	if len(h) != 2 || h[0].Key != "lineage" || string(h[0].Value) != "job-7" {
		t.Fatalf("headers = %v", h)
	}
}

func TestNilVsEmptyPreserved(t *testing.T) {
	recs := []Record{
		{Key: nil, Value: []byte{}},
		{Key: []byte{}, Value: nil},
	}
	buf := EncodeBatch(0, recs)
	b, _, err := DecodeBatch(buf)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if b.Records[0].Key != nil {
		t.Error("nil key decoded as non-nil")
	}
	if b.Records[0].Value == nil {
		t.Error("empty value decoded as nil")
	}
	if b.Records[1].Value != nil {
		t.Error("nil value (tombstone) decoded as non-nil")
	}
	if b.Records[1].Key == nil {
		t.Error("empty key decoded as nil")
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	buf := EncodeBatch(0, sampleRecords())
	for _, pos := range []int{crcDataOffset, len(buf) / 2, len(buf) - 1} {
		cp := append([]byte(nil), buf...)
		cp[pos] ^= 0xFF
		if _, _, err := DecodeBatch(cp); err != ErrCorrupt {
			t.Errorf("flip at %d: err = %v, want ErrCorrupt", pos, err)
		}
	}
}

func TestShortBuffer(t *testing.T) {
	buf := EncodeBatch(0, sampleRecords())
	for _, n := range []int{0, 4, 11, len(buf) - 1} {
		if _, _, err := DecodeBatch(buf[:n]); err != ErrShort {
			t.Errorf("len %d: err = %v, want ErrShort", n, err)
		}
	}
}

func TestPeekBatchInfo(t *testing.T) {
	recs := sampleRecords()
	buf := EncodeBatch(100, recs)
	info, err := PeekBatchInfo(buf)
	if err != nil {
		t.Fatalf("PeekBatchInfo: %v", err)
	}
	if info.BaseOffset != 100 || info.LastOffset != 103 {
		t.Fatalf("offsets = [%d, %d], want [100, 103]", info.BaseOffset, info.LastOffset)
	}
	if info.RecordCount != 4 {
		t.Fatalf("RecordCount = %d, want 4", info.RecordCount)
	}
	if info.MaxTimestamp != 1010 {
		t.Fatalf("MaxTimestamp = %d, want 1010", info.MaxTimestamp)
	}
	if info.Length != len(buf) {
		t.Fatalf("Length = %d, want %d", info.Length, len(buf))
	}
}

// TestStampProducerRoundTrip: stamping a sealed batch sets the producer
// fields without touching the CRC'd payload (the fields live beside the
// base offset, outside the checksum), so a batch can be stamped after
// encoding — and after compression — and still validate.
func TestStampProducerRoundTrip(t *testing.T) {
	buf := EncodeBatch(50, sampleRecords())
	info, err := PeekBatchInfo(buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Idempotent() {
		t.Fatal("unstamped batch claims a producer identity")
	}
	if err := StampProducer(buf, 42, 3, 1000); err != nil {
		t.Fatalf("StampProducer: %v", err)
	}
	info, err = PeekBatchInfo(buf)
	if err != nil {
		t.Fatalf("PeekBatchInfo after stamp: %v", err)
	}
	if !info.Idempotent() || info.ProducerID != 42 || info.ProducerEpoch != 3 || info.BaseSequence != 1000 {
		t.Fatalf("stamp round trip: %+v", info)
	}
	// Sequences advance record-by-record with offsets.
	if got := info.LastSequence(); got != 1003 {
		t.Fatalf("LastSequence = %d, want 1003", got)
	}
	// The CRC still validates: the stamp is outside the checksummed region.
	if _, _, err := DecodeBatch(buf); err != nil {
		t.Fatalf("DecodeBatch after stamp: %v", err)
	}
	// Restamping the base offset (what AppendSealed does) keeps the stamps.
	if err := RestampBase(buf, 90); err != nil {
		t.Fatal(err)
	}
	info, _ = PeekBatchInfo(buf)
	if info.BaseOffset != 90 || info.ProducerID != 42 || info.BaseSequence != 1000 {
		t.Fatalf("restamped batch lost producer fields: %+v", info)
	}
}

// TestStampProducerSurvivesCompression: stamps applied to an uncompressed
// batch ride through Compress (the header prefix is copied) and stamps
// applied directly to a compressed batch dedup-validate too — the broker
// never inflates the blob to read them.
func TestStampProducerSurvivesCompression(t *testing.T) {
	plain := EncodeBatch(0, sampleRecords())
	if err := StampProducer(plain, 7, 1, 55); err != nil {
		t.Fatal(err)
	}
	sealed, err := Compress(plain, CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	info, err := PeekBatchInfo(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if info.ProducerID != 7 || info.ProducerEpoch != 1 || info.BaseSequence != 55 {
		t.Fatalf("compressed batch lost stamps: %+v", info)
	}
	// Stamping the sealed blob in place — the client compresses first,
	// stamps last — works without recompressing.
	if err := StampProducer(sealed, 8, 2, 99); err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(sealed)
	if err != nil {
		t.Fatalf("Decompress after stamp: %v", err)
	}
	info, err = PeekBatchInfo(back)
	if err != nil {
		t.Fatal(err)
	}
	if info.ProducerID != 8 || info.ProducerEpoch != 2 || info.BaseSequence != 99 {
		t.Fatalf("stamps did not survive decompress: %+v", info)
	}
	if info.RecordCount != 4 {
		t.Fatalf("RecordCount = %d, want 4", info.RecordCount)
	}
}

// TestPeekBatchInfoRejectsMixedSentinels: the producer fields sit outside
// the CRC, so PeekBatchInfo applies structural checks of its own — a batch
// carrying a real producer id with sentinel epoch/sequence (or vice versa)
// is corrupt, never a half-tracked dedup entry.
func TestPeekBatchInfoRejectsMixedSentinels(t *testing.T) {
	mk := func(pid int64, epoch int32, seq int64) []byte {
		buf := EncodeBatch(0, sampleRecords())
		if err := StampProducer(buf, pid, epoch, seq); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	bad := [][]byte{
		mk(5, NoProducerEpoch, 0), // id without epoch
		mk(5, 0, NoSequence),      // id without sequence
		mk(NoProducerID, 3, 0),    // epoch without id
		mk(NoProducerID, -5, 0),   // epoch below the sentinel
		mk(-7, 0, 0),              // id below the sentinel
		mk(5, 0, -9),              // sequence below the sentinel
	}
	for i, buf := range bad {
		if _, err := PeekBatchInfo(buf); err == nil {
			t.Errorf("case %d: mixed/invalid producer fields accepted", i)
		}
	}
	if _, err := PeekBatchInfo(mk(NoProducerID, NoProducerEpoch, NoSequence)); err != nil {
		t.Errorf("all-sentinel batch rejected: %v", err)
	}
}

func TestScanMultipleBatches(t *testing.T) {
	var buf []byte
	buf = append(buf, EncodeBatch(0, sampleRecords())...)
	buf = append(buf, EncodeBatch(4, sampleRecords()[:2])...)
	var offsets []int64
	err := ScanRecords(buf, func(r Record) error {
		offsets = append(offsets, r.Offset)
		return nil
	})
	if err != nil {
		t.Fatalf("ScanRecords: %v", err)
	}
	if !reflect.DeepEqual(offsets, []int64{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("offsets = %v, want [0 1 2 3 4 5]", offsets)
	}
	if n := ClaimedRecords(buf); n != 6 {
		t.Fatalf("ClaimedRecords = %d, want 6", n)
	}
}

func TestScanToleratesTrailingPartial(t *testing.T) {
	full := EncodeBatch(0, sampleRecords())
	buf := append(append([]byte(nil), full...), full[:10]...)
	count := 0
	err := ScanRecords(buf, func(Record) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatalf("ScanRecords: %v", err)
	}
	if count != len(sampleRecords()) {
		t.Fatalf("scanned %d records, want the first batch's %d", count, len(sampleRecords()))
	}
}

func TestEncodeBatchKeepOffsets(t *testing.T) {
	recs := []Record{
		{Offset: 10, Timestamp: 5, Key: []byte("a"), Value: []byte("1")},
		{Offset: 17, Timestamp: 9, Key: []byte("b"), Value: []byte("2")}, // gap
		{Offset: 30, Timestamp: 7, Key: []byte("c"), Value: []byte("3")},
	}
	buf := EncodeBatchKeepOffsets(recs)
	info, err := PeekBatchInfo(buf)
	if err != nil {
		t.Fatalf("PeekBatchInfo: %v", err)
	}
	if info.BaseOffset != 10 || info.LastOffset != 30 {
		t.Fatalf("offsets = [%d, %d], want [10, 30]", info.BaseOffset, info.LastOffset)
	}
	b, _, err := DecodeBatch(buf)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	got := []int64{b.Records[0].Offset, b.Records[1].Offset, b.Records[2].Offset}
	if !reflect.DeepEqual(got, []int64{10, 17, 30}) {
		t.Fatalf("offsets = %v, want [10 17 30]", got)
	}
	if b.Records[1].Timestamp != 9 {
		t.Fatalf("timestamp = %d, want 9", b.Records[1].Timestamp)
	}
}

func TestBatchHelpers(t *testing.T) {
	b, _, err := DecodeBatch(EncodeBatch(5, sampleRecords()))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.LastOffset(); got != 8 {
		t.Fatalf("LastOffset = %d, want 8", got)
	}
	if got := b.MaxTimestamp(); got != 1010 {
		t.Fatalf("MaxTimestamp = %d, want 1010", got)
	}
}

// TestQuickRoundTrip is a property test: any generated batch round-trips
// exactly through encode/decode.
func TestQuickRoundTrip(t *testing.T) {
	f := func(base int64, keys [][]byte, values [][]byte, tss []int64) bool {
		if base < 0 {
			base = -base
		}
		n := len(keys)
		if len(values) < n {
			n = len(values)
		}
		if len(tss) < n {
			n = len(tss)
		}
		if n == 0 {
			return true
		}
		if n > 64 {
			n = 64
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			ts := tss[i]
			if ts < 0 {
				ts = -ts
			}
			recs[i] = Record{Timestamp: ts % (1 << 40), Key: keys[i], Value: values[i]}
		}
		buf := EncodeBatch(base%(1<<40), recs)
		b, consumed, err := DecodeBatch(buf)
		if err != nil || consumed != len(buf) || len(b.Records) != n {
			return false
		}
		for i := range recs {
			if !bytes.Equal(b.Records[i].Key, recs[i].Key) ||
				!bytes.Equal(b.Records[i].Value, recs[i].Value) ||
				b.Records[i].Timestamp != recs[i].Timestamp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCorruptionNeverPanics fuzzes random corruption. Flips within the
// CRC-protected region (attributes onward) must be detected; flips in the
// base-offset/length prefix are deliberately outside CRC coverage (the
// broker rewrites base offsets without recomputing checksums, as in Kafka's
// format) and only need to decode without panicking.
func TestQuickCorruptionNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := EncodeBatch(0, sampleRecords())
	orig, _, _ := DecodeBatch(base)
	for i := 0; i < 500; i++ {
		cp := append([]byte(nil), base...)
		pos := rng.Intn(len(cp))
		cp[pos] ^= byte(1 + rng.Intn(255))
		b, _, err := DecodeBatch(cp) // must not panic
		if err == nil && pos >= crcDataOffset {
			t.Fatalf("in-CRC corruption at %d accepted: %+v", pos, b)
		}
		if err == nil && pos < 12 {
			// Unprotected prefix: offsets may shift but record payloads
			// must be intact (CRC still covers them).
			for j := range orig.Records {
				if !bytes.Equal(b.Records[j].Value, orig.Records[j].Value) {
					t.Fatalf("payload changed by prefix flip at %d", pos)
				}
			}
		}
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Offset: 3, Timestamp: 9, Key: []byte("k"), Value: []byte("vv")}
	if got := r.String(); got != `Record{off=3 ts=9 key="k" value=2B}` {
		t.Fatalf("String() = %q", got)
	}
}
