package log

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/storage/record"
)

// TestAppendSealedCompressedVerbatim: a compressed sealed batch is stored
// byte-identically (base offset aside) regardless of its size.
func TestAppendSealedCompressedVerbatim(t *testing.T) {
	l, err := Open(t.TempDir(), Config{MaxBatchBytes: 1024, RetentionMs: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	recs := make([]record.Record, 64)
	for i := range recs {
		recs[i] = record.Record{Timestamp: 1, Value: bytes.Repeat([]byte("xyz-"), 64)}
	}
	sealed, err := record.Compress(record.EncodeBatch(0, recs), record.CodecFlate)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), sealed...)
	base, err := l.AppendSealed(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if base != 0 {
		t.Fatalf("base = %d", base)
	}
	if l.NextOffset() != 64 {
		t.Fatalf("next offset = %d, want 64", l.NextOffset())
	}
	got, err := l.Read(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stored compressed batch differs from sealed input")
	}
}

// TestAppendSealedOversizedUncompressedVerbatim: an uncompressed sealed batch
// above MaxBatchBytes — here above SegmentBytes too — is stored as the one
// batch it was sent as, byte-identical but for the base offset, alone in its
// segment, and the log around it still rolls, retains and truncates.
func TestAppendSealedOversizedUncompressedVerbatim(t *testing.T) {
	l, err := Open(t.TempDir(), Config{MaxBatchBytes: 1024, SegmentBytes: 4096, RetentionMs: -1, RetentionBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	small := func() []byte {
		return record.EncodeBatch(0, []record.Record{{Timestamp: 1, Value: bytes.Repeat([]byte("s"), 900)}})
	}
	for i := 0; i < 6; i++ { // rolls on its own: four ~1 KiB batches a segment
		if _, err := l.AppendSealed(small()); err != nil {
			t.Fatal(err)
		}
	}
	recs := make([]record.Record, 64)
	for i := range recs {
		recs[i] = record.Record{Timestamp: 1, Value: bytes.Repeat([]byte("xyz-"), 64)}
	}
	big := record.EncodeBatch(0, recs)
	if int64(len(big)) <= l.Config().SegmentBytes {
		t.Fatalf("test batch too small: %dB", len(big))
	}
	want := append([]byte(nil), big...)
	base, err := l.AppendSealed(big)
	if err != nil || base != 6 {
		t.Fatalf("AppendSealed(big): base=%d err=%v, want 6", base, err)
	}
	if err := record.RestampBase(want, base); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.AppendSealed(small()); err != nil {
			t.Fatal(err)
		}
	}
	if l.NextOffset() != 72 {
		t.Fatalf("next offset = %d, want 72", l.NextOffset())
	}

	// One batch, the producer's bytes.
	got, err := l.Read(base, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stored oversized batch differs from the sealed input beyond its base offset")
	}
	// Alone in its segment, with ordinary segments on both sides.
	var bigSeg *SegmentInfo
	segs := l.Segments()
	for i := range segs {
		if segs[i].BaseOffset == base {
			bigSeg = &segs[i]
		}
	}
	if bigSeg == nil || bigSeg.NextOffset != base+64 || bigSeg.Size != int64(len(want)) || bigSeg.Active {
		t.Fatalf("oversized batch not alone in a sealed segment: %+v (all: %+v)", bigSeg, segs)
	}
	if len(segs) != 4 {
		t.Fatalf("%d segments, want 4 (two before, the big one, one after): %+v", len(segs), segs)
	}

	// Retention still finds sealed segments to delete, the big one included.
	deleted, err := l.EnforceRetention(time.Now())
	if err != nil || deleted != 3 {
		t.Fatalf("EnforceRetention = %d, %v; want the 3 sealed segments gone", deleted, err)
	}
	if l.StartOffset() != 70 {
		t.Fatalf("StartOffset = %d after retention, want 70", l.StartOffset())
	}
}

// TestTruncateIntoOversizedBatchSegment: a follower reconciling to an offset
// inside a segment-sized batch drops the batch whole (batches are the unit of
// truncation) and the log appends on from there.
func TestTruncateIntoOversizedBatchSegment(t *testing.T) {
	l := openTestLog(t, Config{SegmentBytes: 2048, RetentionMs: -1})
	if _, err := l.Append([]record.Record{rec("", "head")}); err != nil {
		t.Fatal(err)
	}
	recs := make([]record.Record, 16)
	for i := range recs {
		recs[i] = record.Record{Timestamp: 1, Value: bytes.Repeat([]byte("b"), 512)}
	}
	if base, err := l.AppendSealed(record.EncodeBatch(0, recs)); err != nil || base != 1 {
		t.Fatalf("AppendSealed: base=%d err=%v", base, err)
	}
	if _, err := l.Append([]record.Record{rec("", "tail")}); err != nil {
		t.Fatal(err)
	}
	if n := l.SegmentCount(); n != 3 {
		t.Fatalf("%d segments, want 3", n)
	}
	if err := l.Truncate(9); err != nil { // mid-batch
		t.Fatal(err)
	}
	if got := l.NextOffset(); got != 1 {
		t.Fatalf("NextOffset = %d after truncating into the batch, want 1", got)
	}
	if base, err := l.Append([]record.Record{rec("", "again")}); err != nil || base != 1 {
		t.Fatalf("append after truncate: base=%d err=%v", base, err)
	}
	assertRecords(t, l, []string{"head", "again"})
}
