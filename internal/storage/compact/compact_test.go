package compact

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/storage/log"
	"repro/internal/storage/record"
)

func openLog(t *testing.T, cfg log.Config) *log.Log {
	t.Helper()
	cfg.Compacted = true
	l, err := log.Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func put(t *testing.T, l *log.Log, key, value string) {
	t.Helper()
	var v []byte
	if value != "" {
		v = []byte(value)
	}
	_, err := l.Append([]record.Record{{Timestamp: time.Now().UnixMilli(), Key: []byte(key), Value: v}})
	if err != nil {
		t.Fatal(err)
	}
}

// latestPerKey replays the log and returns the final value per key, with
// deleted keys absent.
func latestPerKey(t *testing.T, l *log.Log) map[string]string {
	t.Helper()
	state := make(map[string]string)
	off := l.StartOffset()
	for {
		data, err := l.Read(off, 1<<20)
		if err != nil {
			t.Fatalf("Read(%d): %v", off, err)
		}
		if len(data) == 0 {
			return state
		}
		record.ScanRecords(data, func(r record.Record) error {
			if r.Offset < off {
				return nil
			}
			if r.Value == nil {
				delete(state, string(r.Key))
			} else {
				state[string(r.Key)] = string(r.Value)
			}
			off = r.Offset + 1
			return nil
		})
	}
}

func countRecords(t *testing.T, l *log.Log) int {
	t.Helper()
	n := 0
	off := l.StartOffset()
	for {
		data, err := l.Read(off, 1<<20)
		if err != nil || len(data) == 0 {
			return n
		}
		record.ScanRecords(data, func(r record.Record) error {
			if r.Offset >= off {
				n++
				off = r.Offset + 1
			}
			return nil
		})
	}
}

func TestCompactKeepsLatestPerKey(t *testing.T) {
	l := openLog(t, log.Config{SegmentBytes: 512})
	// Write 200 updates over 10 keys -> many segments.
	for i := 0; i < 200; i++ {
		put(t, l, fmt.Sprintf("user-%d", i%10), fmt.Sprintf("profile-v%d", i))
	}
	before := latestPerKey(t, l)
	recordsBefore := countRecords(t, l)

	stats, err := Compact(l, l.NextOffset())
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if stats.RecordsAfter >= stats.RecordsBefore {
		t.Fatalf("no shrink: %+v", stats)
	}
	after := latestPerKey(t, l)
	if len(after) != len(before) {
		t.Fatalf("key count changed: %d -> %d", len(before), len(after))
	}
	for k, v := range before {
		if after[k] != v {
			t.Errorf("key %s: %q -> %q", k, v, after[k])
		}
	}
	if got := countRecords(t, l); got >= recordsBefore {
		t.Fatalf("records %d -> %d: no reduction", recordsBefore, got)
	}
	// The log end offset is unchanged: compaction never loses position.
	if got := countRecords(t, l); got < 10 {
		t.Fatalf("fewer records than keys: %d", got)
	}
}

func TestCompactPreservesOffsets(t *testing.T) {
	l := openLog(t, log.Config{SegmentBytes: 256})
	for i := 0; i < 60; i++ {
		put(t, l, fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i))
	}
	end := l.NextOffset()
	if _, err := Compact(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	if l.NextOffset() != end {
		t.Fatalf("log end moved: %d -> %d", end, l.NextOffset())
	}
	// Surviving records keep their original (pre-compaction) offsets: the
	// newest update for each key written into an inactive segment.
	off := l.StartOffset()
	data, err := l.Read(off, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	err = record.ScanRecords(data, func(r record.Record) error {
		if r.Offset < off {
			t.Errorf("offset went backwards: %d < %d", r.Offset, off)
		}
		off = r.Offset + 1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompactRetainsLatestTombstone(t *testing.T) {
	l := openLog(t, log.Config{SegmentBytes: 256})
	for i := 0; i < 30; i++ {
		put(t, l, "victim", fmt.Sprintf("v%d", i))
	}
	put(t, l, "victim", "") // tombstone
	// Push the tombstone out of the active segment.
	for i := 0; i < 30; i++ {
		put(t, l, "other", fmt.Sprintf("v%d", i))
	}
	if _, err := Compact(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	state := latestPerKey(t, l)
	if _, ok := state["victim"]; ok {
		t.Fatalf("victim should be deleted, state = %v", state)
	}
	// The tombstone itself must still be present so that replaying
	// consumers observe the deletion.
	sawTombstone := false
	off := l.StartOffset()
	for {
		data, err := l.Read(off, 1<<20)
		if err != nil || len(data) == 0 {
			break
		}
		record.ScanRecords(data, func(r record.Record) error {
			if r.Offset >= off {
				if string(r.Key) == "victim" && r.Value == nil {
					sawTombstone = true
				}
				off = r.Offset + 1
			}
			return nil
		})
	}
	if !sawTombstone {
		t.Fatal("latest tombstone was dropped by compaction")
	}
}

func TestCompactKeepsUnkeyedRecords(t *testing.T) {
	l := openLog(t, log.Config{SegmentBytes: 256})
	for i := 0; i < 30; i++ {
		if _, err := l.Append([]record.Record{{Timestamp: 1, Value: []byte(fmt.Sprintf("event-%d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	before := countRecords(t, l)
	if _, err := Compact(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	if got := countRecords(t, l); got != before {
		t.Fatalf("unkeyed records dropped: %d -> %d", before, got)
	}
}

func TestCompactSingleSegmentNoop(t *testing.T) {
	l := openLog(t, log.Config{})
	put(t, l, "a", "1")
	stats, err := Compact(l, l.NextOffset())
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsScanned != 0 {
		t.Fatalf("stats = %+v, want nothing scanned", stats)
	}
}

func TestCompactIdempotent(t *testing.T) {
	l := openLog(t, log.Config{SegmentBytes: 512})
	for i := 0; i < 200; i++ {
		put(t, l, fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i))
	}
	if _, err := Compact(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	state1 := latestPerKey(t, l)
	stats2, err := Compact(l, l.NextOffset())
	if err != nil {
		t.Fatal(err)
	}
	state2 := latestPerKey(t, l)
	if len(state1) != len(state2) {
		t.Fatalf("second compaction changed state: %v vs %v", state1, state2)
	}
	if stats2.RecordsAfter != stats2.RecordsBefore {
		t.Fatalf("second pass should drop nothing new: %+v", stats2)
	}
}

func TestCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := log.Config{SegmentBytes: 512, Compacted: true}
	l, err := log.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		l.Append([]record.Record{{Timestamp: 1, Key: []byte(fmt.Sprintf("k%d", i%5)), Value: []byte(fmt.Sprintf("v%d", i))}})
	}
	if _, err := Compact(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	end := l.NextOffset()
	l.Close()

	l2, err := log.Open(dir, cfg)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer l2.Close()
	if l2.NextOffset() != end {
		t.Fatalf("log end after reopen = %d, want %d", l2.NextOffset(), end)
	}
	state := latestPerKey(t, l2)
	if len(state) != 5 {
		t.Fatalf("state = %v, want 5 keys", state)
	}
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, ok := state[k]; !ok {
			t.Errorf("missing key %s", k)
		}
	}
}

// TestCompactStopsAtBound: a version at or above the bound is not known
// committed, so it supersedes nothing. The committed v1 of a key, in an
// inactive segment wholly below the bound, survives a v2 above it.
func TestCompactStopsAtBound(t *testing.T) {
	l := openLog(t, log.Config{SegmentBytes: 256})
	put(t, l, "k", "v1")
	for i := 0; l.SegmentCount() < 3; i++ {
		put(t, l, fmt.Sprintf("filler-%d", i), "x")
	}
	segs := l.Segments()
	bound := segs[1].BaseOffset // segment 0 is wholly below it
	put(t, l, "k", "v2")        // in the active segment, above the bound

	if _, err := Compact(l, bound); err != nil {
		t.Fatal(err)
	}
	data, err := l.Read(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var v1 bool
	record.ScanRecords(data, func(r record.Record) error {
		v1 = v1 || string(r.Key) == "k" && string(r.Value) == "v1"
		return nil
	})
	if !v1 {
		t.Fatalf("v1 of k (offset 0) dropped by a v2 above the bound %d", bound)
	}
	if got := latestPerKey(t, l)["k"]; got != "v2" {
		t.Fatalf("k = %q, want v2", got)
	}
}
