package log

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/storage/record"
)

// gappedLog builds a log of 3-record batches over small segments with
// offset gaps (as compaction leaves them) both inside a segment and across
// a segment boundary. It returns the log and every stored batch in order.
func gappedLog(t *testing.T) (*Log, [][]byte) {
	t.Helper()
	l := openTestLog(t, Config{SegmentBytes: 512})
	var batches [][]byte
	base := int64(0)
	for i := 0; i < 24; i++ {
		if i%5 == 4 {
			base += 7 // a gap where compaction dropped records
		}
		b := record.EncodeBatch(base, []record.Record{
			{Timestamp: 1, Key: []byte("k"), Value: []byte(fmt.Sprintf("value-%02d-a", i))},
			{Timestamp: 2, Key: []byte("k"), Value: []byte(fmt.Sprintf("value-%02d-b", i))},
			{Timestamp: 3, Key: []byte("k"), Value: []byte(fmt.Sprintf("value-%02d-c", i))},
		})
		if err := l.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
		base += 3
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("only %d segments; boundaries not exercised", l.SegmentCount())
	}
	return l, batches
}

// materialize reads a range into memory: nil stays nil.
func materialize(t *testing.T, rng *SegmentRange) []byte {
	t.Helper()
	if rng == nil {
		return nil
	}
	defer rng.Close()
	b, err := rng.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestReadEqualsMaterializedReadRange(t *testing.T) {
	l, batches := gappedLog(t)
	end := l.NextOffset()
	firstLen := len(batches[0])

	// firstAt returns the index of the first batch ending at or beyond
	// offset: where every read must start.
	firstAt := func(offset int64) int {
		for i, b := range batches {
			if info, _ := record.PeekBatchInfo(b); info.LastOffset >= offset {
				return i
			}
		}
		return -1
	}
	gapOffset := int64(14) // batches cover 0-11, then 19-...: 12..18 is a gap
	if info, _ := record.PeekBatchInfo(batches[firstAt(gapOffset)]); info.BaseOffset <= gapOffset {
		t.Fatalf("offset %d is not inside a gap (next batch starts at %d)", gapOffset, info.BaseOffset)
	}

	cases := []struct {
		name     string
		offset   int64
		maxBytes int
		wantErr  error
		wantNil  bool
		wantN    int // expected byte length; -1 = only check Read == ReadRange
	}{
		{"log start, one batch budget", 0, firstLen, nil, false, firstLen},
		{"maxBytes smaller than the first batch", 0, 1, nil, false, firstLen},
		{"maxBytes zero", 0, 0, nil, false, firstLen},
		{"mid-batch offset starts at its batch", 1, firstLen, nil, false, firstLen},
		{"two batches fit", 0, 2 * firstLen, nil, false, 2 * firstLen},
		{"offset inside a compaction gap", gapOffset, 1, nil, false, -1},
		{"huge budget stops at the segment end", 0, 1 << 20, nil, false, 512 / firstLen * firstLen},
		{"log end", end, 1 << 20, nil, true, 0},
		{"below start", -1, 1 << 20, ErrOffsetOutOfRange, true, 0},
		{"beyond end", end + 1, 1 << 20, ErrOffsetOutOfRange, true, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data, err := l.Read(c.offset, c.maxBytes)
			rng, rerr := l.ReadRange(c.offset, c.maxBytes, -1)
			rb := materialize(t, rng)
			if !errors.Is(err, c.wantErr) || !errors.Is(rerr, c.wantErr) {
				t.Fatalf("errors: Read %v, ReadRange %v, want %v", err, rerr, c.wantErr)
			}
			if (data == nil) != c.wantNil || (rb == nil) != c.wantNil {
				t.Fatalf("nil-ness: Read nil=%v, ReadRange nil=%v, want %v", data == nil, rb == nil, c.wantNil)
			}
			if !bytes.Equal(data, rb) {
				t.Fatalf("Read returned %d bytes, ReadRange %d", len(data), len(rb))
			}
			if c.wantN >= 0 && len(data) != c.wantN {
				t.Fatalf("read %d bytes, want %d", len(data), c.wantN)
			}
		})
	}

	// Exhaustive sweep: at every offset and budget the two agree, and the
	// payload is a run of stored batches starting at the right one that
	// exceeds the budget only when it is a single batch.
	for offset := int64(0); offset < end; offset++ {
		for _, maxBytes := range []int{1, 64, 300, 1 << 20} {
			data, err := l.Read(offset, maxBytes)
			rng, rerr := l.ReadRange(offset, maxBytes, -1)
			rb := materialize(t, rng)
			if err != nil || rerr != nil || !bytes.Equal(data, rb) {
				t.Fatalf("offset %d maxBytes %d: Read (%d bytes, %v) vs ReadRange (%d bytes, %v)",
					offset, maxBytes, len(data), err, len(rb), rerr)
			}
			i := firstAt(offset)
			want := append([]byte(nil), batches[i]...)
			for _, b := range batches[i+1:] {
				if len(want)+len(b) > len(data) {
					break
				}
				want = append(want, b...)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("offset %d maxBytes %d: payload is not the stored batches from #%d", offset, maxBytes, i)
			}
			if len(data) > maxBytes && len(data) != len(batches[i]) {
				t.Fatalf("offset %d maxBytes %d: %d bytes exceed the budget with more than one batch", offset, maxBytes, len(data))
			}
		}
	}
}

func TestReadRangeLimitExcludesUncommittedBatches(t *testing.T) {
	l, batches := gappedLog(t)
	// limit inside the first batch: present but empty. limit on the second
	// batch's base: exactly the first batch. limit < 0: unbounded.
	for _, c := range []struct {
		limit int64
		want  int
	}{{1, 0}, {3, len(batches[0])}, {4, len(batches[0])}, {-1, len(batches[0]) + len(batches[1])}} {
		rng, err := l.ReadRange(0, len(batches[0])+len(batches[1]), c.limit)
		if err != nil || rng == nil {
			t.Fatalf("limit %d: rng=%v err=%v", c.limit, rng, err)
		}
		if got := materialize(t, rng); len(got) != c.want {
			t.Fatalf("limit %d: %d bytes, want %d", c.limit, len(got), c.want)
		}
	}
}
