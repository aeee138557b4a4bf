package log

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/storage/record"
)

func openTestLog(t *testing.T, cfg Config) *Log {
	t.Helper()
	l, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func rec(key, value string) record.Record {
	var k []byte
	if key != "" {
		k = []byte(key)
	}
	return record.Record{Timestamp: time.Now().UnixMilli(), Key: k, Value: []byte(value)}
}

// readAll decodes every record readable from offset.
func readAll(t *testing.T, l *Log, from int64) []record.Record {
	t.Helper()
	var out []record.Record
	off := from
	for {
		data, err := l.Read(off, 1<<20)
		if err != nil {
			t.Fatalf("Read(%d): %v", off, err)
		}
		if len(data) == 0 {
			return out
		}
		err = record.ScanRecords(data, func(r record.Record) error {
			if r.Offset >= off {
				out = append(out, r)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		off = out[len(out)-1].Offset + 1
	}
}

func TestAppendAssignsSequentialOffsets(t *testing.T) {
	l := openTestLog(t, Config{})
	base, err := l.Append([]record.Record{rec("a", "1"), rec("b", "2")})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if base != 0 {
		t.Fatalf("base = %d, want 0", base)
	}
	base, err = l.Append([]record.Record{rec("c", "3")})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if base != 2 {
		t.Fatalf("base = %d, want 2", base)
	}
	if got := l.NextOffset(); got != 3 {
		t.Fatalf("NextOffset = %d, want 3", got)
	}
}

func TestReadBackMatches(t *testing.T) {
	l := openTestLog(t, Config{})
	want := []string{"v0", "v1", "v2", "v3", "v4"}
	for _, v := range want {
		if _, err := l.Append([]record.Record{rec("k", v)}); err != nil {
			t.Fatal(err)
		}
	}
	got := readAll(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if string(r.Value) != want[i] || r.Offset != int64(i) {
			t.Fatalf("record %d = %v", i, r)
		}
	}
}

func TestReadFromMiddle(t *testing.T) {
	l := openTestLog(t, Config{})
	for i := 0; i < 10; i++ {
		l.Append([]record.Record{rec("k", fmt.Sprint(i))})
	}
	got := readAll(t, l, 7)
	if len(got) != 3 || got[0].Offset != 7 {
		t.Fatalf("got %v", got)
	}
}

func TestReadAtEndReturnsEmpty(t *testing.T) {
	l := openTestLog(t, Config{})
	l.Append([]record.Record{rec("k", "v")})
	data, err := l.Read(1, 1024)
	if err != nil || data != nil {
		t.Fatalf("Read(end) = %v, %v; want nil, nil", data, err)
	}
}

func TestReadOutOfRange(t *testing.T) {
	l := openTestLog(t, Config{})
	l.Append([]record.Record{rec("k", "v")})
	if _, err := l.Read(5, 1024); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("Read(5) err = %v, want ErrOffsetOutOfRange", err)
	}
	if _, err := l.Read(-1, 1024); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("Read(-1) err = %v, want ErrOffsetOutOfRange", err)
	}
}

func TestSegmentRolling(t *testing.T) {
	l := openTestLog(t, Config{SegmentBytes: 256})
	for i := 0; i < 50; i++ {
		if _, err := l.Append([]record.Record{rec("key", fmt.Sprintf("value-%03d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.SegmentCount(); n < 5 {
		t.Fatalf("SegmentCount = %d, want >= 5 with 256-byte segments", n)
	}
	// All data still readable across segment boundaries.
	got := readAll(t, l, 0)
	if len(got) != 50 {
		t.Fatalf("read %d records, want 50", len(got))
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		l.Append([]record.Record{rec("k", fmt.Sprintf("v%d", i))})
	}
	next := l.NextOffset()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Config{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.NextOffset(); got != next {
		t.Fatalf("NextOffset after reopen = %d, want %d", got, next)
	}
	got := readAll(t, l2, 0)
	if len(got) != 20 {
		t.Fatalf("read %d records after reopen, want 20", len(got))
	}
	// Appends continue at the right offset.
	base, err := l2.Append([]record.Record{rec("k", "new")})
	if err != nil || base != next {
		t.Fatalf("append after reopen: base=%d err=%v, want %d", base, err, next)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Append([]record.Record{rec("k", fmt.Sprintf("v%d", i))})
	}
	l.Close()

	// Simulate a crash mid-write: append garbage to the segment file.
	path := segmentPath(dir, 0)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 9, 1, 2, 3})
	f.Close()

	l2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer l2.Close()
	if got := l2.NextOffset(); got != 5 {
		t.Fatalf("NextOffset = %d, want 5 (torn tail dropped)", got)
	}
	// New appends land cleanly where the torn data was.
	if base, err := l2.Append([]record.Record{rec("k", "recovered")}); err != nil || base != 5 {
		t.Fatalf("append after recovery: %d, %v", base, err)
	}
	if got := readAll(t, l2, 0); len(got) != 6 {
		t.Fatalf("read %d records, want 6", len(got))
	}
}

func TestCorruptMiddleTruncatesFromThere(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Config{})
	for i := 0; i < 10; i++ {
		l.Append([]record.Record{rec("k", fmt.Sprintf("v%d", i))})
	}
	segs := l.Segments()
	l.Close()

	// Flip one byte in the middle of the file (inside some batch's CRC
	// region): recovery must keep the prefix and drop from the flip on.
	path := segmentPath(dir, segs[0].BaseOffset)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	l2, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	next := l2.NextOffset()
	if next <= 0 || next >= 10 {
		t.Fatalf("NextOffset = %d, want in (0, 10)", next)
	}
	got := readAll(t, l2, 0)
	if int64(len(got)) != next {
		t.Fatalf("read %d records, next offset %d", len(got), next)
	}
}

func TestTruncateSuffix(t *testing.T) {
	l := openTestLog(t, Config{SegmentBytes: 256})
	for i := 0; i < 30; i++ {
		l.Append([]record.Record{rec("k", fmt.Sprintf("v%02d", i))})
	}
	if err := l.Truncate(12); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if got := l.NextOffset(); got != 12 {
		t.Fatalf("NextOffset = %d, want 12", got)
	}
	got := readAll(t, l, 0)
	if len(got) != 12 {
		t.Fatalf("read %d records, want 12", len(got))
	}
	// Appends continue from the truncation point.
	base, err := l.Append([]record.Record{rec("k", "after")})
	if err != nil || base != 12 {
		t.Fatalf("append: %d, %v", base, err)
	}
}

func TestTruncateBeyondEndIsNoop(t *testing.T) {
	l := openTestLog(t, Config{})
	l.Append([]record.Record{rec("k", "v")})
	if err := l.Truncate(99); err != nil {
		t.Fatal(err)
	}
	if got := l.NextOffset(); got != 1 {
		t.Fatalf("NextOffset = %d, want 1", got)
	}
}

func TestRetentionBySize(t *testing.T) {
	l := openTestLog(t, Config{SegmentBytes: 256, RetentionBytes: 600, RetentionMs: -1})
	for i := 0; i < 50; i++ {
		l.Append([]record.Record{rec("key", fmt.Sprintf("value-%03d", i))})
	}
	before := l.SegmentCount()
	deleted, err := l.EnforceRetention(time.Now())
	if err != nil {
		t.Fatalf("EnforceRetention: %v", err)
	}
	if deleted == 0 {
		t.Fatalf("expected deletions with %d segments over 600-byte cap", before)
	}
	if l.Size() > 600+256 { // at most one segment of slack
		t.Fatalf("size %d still above retention", l.Size())
	}
	if l.StartOffset() == 0 {
		t.Fatal("start offset should have advanced")
	}
	// Reads below the start offset now fail.
	if _, err := l.Read(0, 1024); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Fatalf("read below start: %v", err)
	}
	// Remaining data still readable.
	got := readAll(t, l, l.StartOffset())
	if int64(len(got)) != l.NextOffset()-l.StartOffset() {
		t.Fatalf("read %d records, want %d", len(got), l.NextOffset()-l.StartOffset())
	}
}

func TestRetentionByTime(t *testing.T) {
	l := openTestLog(t, Config{SegmentBytes: 256, RetentionMs: 1000})
	old := time.Now().Add(-time.Hour).UnixMilli()
	for i := 0; i < 30; i++ {
		l.Append([]record.Record{{Timestamp: old, Key: []byte("k"), Value: []byte(fmt.Sprintf("v%02d", i))}})
	}
	deleted, err := l.EnforceRetention(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if deleted == 0 {
		t.Fatal("expected expired segments to be deleted")
	}
	if l.SegmentCount() != 1 {
		t.Fatalf("SegmentCount = %d, want 1 (active never deleted)", l.SegmentCount())
	}
}

func TestRetentionNeverDeletesActive(t *testing.T) {
	l := openTestLog(t, Config{RetentionBytes: 1, RetentionMs: 1})
	l.Append([]record.Record{{Timestamp: 1, Key: nil, Value: []byte("v")}})
	if _, err := l.EnforceRetention(time.Now()); err != nil {
		t.Fatal(err)
	}
	if l.SegmentCount() != 1 || l.NextOffset() != 1 {
		t.Fatal("active segment must survive retention")
	}
}

func TestCompactedLogSkipsRetention(t *testing.T) {
	l := openTestLog(t, Config{SegmentBytes: 128, RetentionBytes: 1, Compacted: true})
	for i := 0; i < 20; i++ {
		l.Append([]record.Record{rec("k", fmt.Sprintf("v%02d", i))})
	}
	deleted, err := l.EnforceRetention(time.Now())
	if err != nil || deleted != 0 {
		t.Fatalf("compacted log: deleted=%d err=%v, want 0, nil", deleted, err)
	}
}

func TestOffsetForTimestamp(t *testing.T) {
	l := openTestLog(t, Config{SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		ts := int64(1000 + i*100)
		l.Append([]record.Record{{Timestamp: ts, Key: []byte("k"), Value: []byte(fmt.Sprint(i))}})
	}
	cases := []struct {
		ts   int64
		want int64
	}{
		{500, 0},    // before everything
		{1000, 0},   // exact first
		{1050, 1},   // between 0 and 1
		{1500, 5},   // exact
		{2901, 20},  // beyond everything -> log end
		{99999, 20}, // far beyond
		{2900, 19},  // exact last
	}
	for _, c := range cases {
		got, err := l.OffsetForTimestamp(c.ts)
		if err != nil {
			t.Fatalf("OffsetForTimestamp(%d): %v", c.ts, err)
		}
		if got != c.want {
			t.Errorf("OffsetForTimestamp(%d) = %d, want %d", c.ts, got, c.want)
		}
	}
}

// The lookup walks batch headers and decodes only a batch that can hold the
// answer: with compressed and uncompressed multi-record batches straddling
// ts across several segments it must agree with a scan of every record.
func TestOffsetForTimestampMixedCodecs(t *testing.T) {
	l := openTestLog(t, Config{SegmentBytes: 512})
	var stamps []int64 // stamps[offset] = timestamp
	for b := 0; b < 24; b++ {
		recs := make([]record.Record, 4)
		for i := range recs {
			ts := int64(1000 + 10*len(stamps))
			stamps = append(stamps, ts)
			recs[i] = record.Record{Timestamp: ts, Key: []byte("k"), Value: []byte(fmt.Sprintf("value-%d-%d", b, i))}
		}
		sealed, err := record.Compress(record.EncodeBatch(0, recs), []record.Codec{record.CodecNone, record.CodecFlate}[b%2])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AppendSealed(sealed); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(l.Segments()); n < 3 {
		t.Fatalf("want the batches spread over several segments, got %d", n)
	}
	for ts := int64(990); ts <= stamps[len(stamps)-1]+10; ts++ {
		want := int64(len(stamps)) // none qualifies: the log end
		for off, s := range stamps {
			if s >= ts {
				want = int64(off)
				break
			}
		}
		if got, err := l.OffsetForTimestamp(ts); err != nil || got != want {
			t.Fatalf("OffsetForTimestamp(%d) = %d, %v; want %d", ts, got, err, want)
		}
	}
}

func TestAppendBatchPreservesOffsets(t *testing.T) {
	l := openTestLog(t, Config{})
	batch := record.EncodeBatch(0, []record.Record{rec("a", "1"), rec("b", "2")})
	if err := l.AppendBatch(batch); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	// A gap (as after compaction upstream) is allowed.
	gap := record.EncodeBatch(10, []record.Record{rec("c", "3")})
	if err := l.AppendBatch(gap); err != nil {
		t.Fatalf("AppendBatch with gap: %v", err)
	}
	if got := l.NextOffset(); got != 11 {
		t.Fatalf("NextOffset = %d, want 11", got)
	}
	// Regression below the log end is rejected.
	stale := record.EncodeBatch(5, []record.Record{rec("d", "4")})
	if err := l.AppendBatch(stale); !errors.Is(err, ErrNonMonotonic) {
		t.Fatalf("stale append err = %v, want ErrNonMonotonic", err)
	}
}

func TestReadSpansGap(t *testing.T) {
	l := openTestLog(t, Config{})
	l.AppendBatch(record.EncodeBatch(0, []record.Record{rec("a", "1")}))
	l.AppendBatch(record.EncodeBatch(10, []record.Record{rec("b", "2")}))
	// Reading at an offset inside the gap returns the next batch.
	data, err := l.Read(5, 1024)
	if err != nil {
		t.Fatalf("Read(5): %v", err)
	}
	var got []record.Record
	record.ScanRecords(data, func(r record.Record) error {
		got = append(got, r)
		return nil
	})
	if len(got) != 1 || got[0].Offset != 10 {
		t.Fatalf("got %v, want record at offset 10", got)
	}
}

func TestClosedLogErrors(t *testing.T) {
	l, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append([]record.Record{rec("k", "v")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on closed: %v", err)
	}
	if _, err := l.Read(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read on closed: %v", err)
	}
	if l.Close() != nil { // double close is fine
		t.Fatal("double close should be nil")
	}
}

func TestStartOffsetPersistedAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Config{SegmentBytes: 256, RetentionBytes: 400, RetentionMs: -1})
	for i := 0; i < 40; i++ {
		l.Append([]record.Record{rec("k", fmt.Sprintf("value-%03d", i))})
	}
	l.EnforceRetention(time.Now())
	start := l.StartOffset()
	l.Close()
	l2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.StartOffset(); got != start {
		t.Fatalf("StartOffset after reopen = %d, want %d", got, start)
	}
}

func TestLargeBatchExceedingMaxBytesStillReadable(t *testing.T) {
	l := openTestLog(t, Config{})
	big := bytes.Repeat([]byte("x"), 8192)
	l.Append([]record.Record{{Timestamp: 1, Key: []byte("k"), Value: big}})
	// maxBytes far below the batch size: the whole batch is returned anyway.
	data, err := l.Read(0, 64)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	n := 0
	if err := record.ScanRecords(data, func(record.Record) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("ScanRecords: %d records, %v", n, err)
	}
}

// TestQuickAppendReadConsistency property-checks that for arbitrary record
// contents, appending then reading returns identical payloads in order.
func TestQuickAppendReadConsistency(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var appended [][]byte
	f := func(vals [][]byte) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 16 {
			vals = vals[:16]
		}
		recs := make([]record.Record, len(vals))
		for i, v := range vals {
			recs[i] = record.Record{Timestamp: 1, Value: v}
			appended = append(appended, v)
		}
		if _, err := l.Append(recs); err != nil {
			return false
		}
		// Verify the complete log contents after every append.
		i := 0
		off := int64(0)
		for {
			data, err := l.Read(off, 1<<20)
			if err != nil || data == nil {
				break
			}
			ok := true
			record.ScanRecords(data, func(r record.Record) error {
				if i >= len(appended) || !bytes.Equal(r.Value, appended[i]) {
					ok = false
				}
				i++
				off = r.Offset + 1
				return nil
			})
			if !ok {
				return false
			}
		}
		return i == len(appended)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentsSnapshot(t *testing.T) {
	l := openTestLog(t, Config{SegmentBytes: 256})
	for i := 0; i < 20; i++ {
		l.Append([]record.Record{rec("k", fmt.Sprintf("value-%02d", i))})
	}
	segs := l.Segments()
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(segs))
	}
	if !segs[len(segs)-1].Active {
		t.Fatal("last segment should be active")
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].BaseOffset <= segs[i-1].BaseOffset {
			t.Fatal("segments not sorted by base offset")
		}
		if segs[i-1].Active {
			t.Fatal("only last segment may be active")
		}
	}
	// ReadSegment returns parseable data.
	data, err := l.ReadSegment(segs[0].BaseOffset)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := record.ScanRecords(data, func(record.Record) error { n++; return nil }); err != nil || n == 0 {
		t.Fatalf("segment unreadable: n=%d err=%v", n, err)
	}
	if _, err := l.ReadSegment(12345); err == nil {
		t.Fatal("ReadSegment of unknown base should fail")
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644)
	os.WriteFile(filepath.Join(dir, "bad.log"), []byte("hi"), 0o644) // unparseable base
	l, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if _, err := l.Append([]record.Record{rec("k", "v")}); err != nil {
		t.Fatal(err)
	}
}
