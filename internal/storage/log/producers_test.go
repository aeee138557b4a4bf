package log

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage/record"
)

// stampedBatch encodes values into one sealed batch carrying producer
// stamps, the shape an idempotent client hands to AppendSealed.
func stampedBatch(t *testing.T, pid int64, epoch int32, seq int64, vals ...string) []byte {
	t.Helper()
	recs := make([]record.Record, len(vals))
	for i, v := range vals {
		recs[i] = record.Record{Timestamp: 1, Value: []byte(v)}
	}
	b := record.EncodeBatch(0, recs)
	if err := record.StampProducer(b, pid, epoch, seq); err != nil {
		t.Fatal(err)
	}
	return b
}

// sendStamped appends a fresh copy of the batch (AppendSealed restamps the
// base offset in place, so retries must resend their own bytes).
func sendStamped(l *Log, batch []byte) (int64, error) {
	return l.AppendSealed(append([]byte(nil), batch...))
}

// mustDup asserts the append was deduplicated onto [base, last].
func mustDup(t *testing.T, err error, base, last int64) {
	t.Helper()
	var dup *DupSequenceError
	if !errors.As(err, &dup) {
		t.Fatalf("want DupSequenceError, got %v", err)
	}
	if dup.BaseOffset != base || dup.LastOffset != last {
		t.Fatalf("dup span [%d,%d], want [%d,%d]", dup.BaseOffset, dup.LastOffset, base, last)
	}
}

// TestIdempotentDedupFencingAndSequencing drives the leader-side producer
// table through its full classification: retries dedup onto the original
// offsets, sequence gaps and unverifiable resends are rejected, and stale
// epochs are fenced once a newer instance produced.
func TestIdempotentDedupFencingAndSequencing(t *testing.T) {
	l := openTestLog(t, Config{})

	b0 := stampedBatch(t, 7, 0, 0, "a", "b", "c")
	base, err := sendStamped(l, b0)
	if err != nil || base != 0 {
		t.Fatalf("first append: base=%d err=%v", base, err)
	}
	// The classic resend window: the ack died, the producer resends the
	// identical batch. It must land on the original offsets, appending
	// nothing.
	_, err = sendStamped(l, b0)
	mustDup(t, err, 0, 2)
	if l.NextOffset() != 3 {
		t.Fatalf("NextOffset = %d after dedup, want 3", l.NextOffset())
	}

	b1 := stampedBatch(t, 7, 0, 3, "d", "e")
	if base, err = sendStamped(l, b1); err != nil || base != 3 {
		t.Fatalf("second append: base=%d err=%v", base, err)
	}
	// An older batch still in the window remains dedupable.
	_, err = sendStamped(l, b0)
	mustDup(t, err, 0, 2)

	// A sequence gap means a predecessor batch was lost: reject.
	if _, err := sendStamped(l, stampedBatch(t, 7, 0, 10, "x")); !errors.Is(err, ErrOutOfOrderSequence) {
		t.Fatalf("gap: got %v, want ErrOutOfOrderSequence", err)
	}
	// A resend whose record count disagrees with the appended batch is not
	// a retry of anything we have: reject rather than mis-dedup.
	if _, err := sendStamped(l, stampedBatch(t, 7, 0, 0, "a")); !errors.Is(err, ErrOutOfOrderSequence) {
		t.Fatalf("mismatched resend: got %v, want ErrOutOfOrderSequence", err)
	}

	// A new instance of the producer (higher epoch) starts at sequence 0;
	// the zombie's epoch is fenced from then on.
	if base, err = sendStamped(l, stampedBatch(t, 7, 1, 0, "f")); err != nil || base != 5 {
		t.Fatalf("epoch bump: base=%d err=%v", base, err)
	}
	if _, err := sendStamped(l, stampedBatch(t, 7, 0, 5, "zombie")); !errors.Is(err, ErrFencedEpoch) {
		t.Fatalf("zombie: got %v, want ErrFencedEpoch", err)
	}

	// Unknown producers are always accepted: the table is a bounded cache.
	if base, err = sendStamped(l, stampedBatch(t, 99, 4, 1000, "g")); err != nil || base != 6 {
		t.Fatalf("unknown pid: base=%d err=%v", base, err)
	}
	// Unstamped batches bypass the table entirely.
	if _, err := l.AppendSealed(record.EncodeBatch(0, []record.Record{{Timestamp: 1, Value: []byte("plain")}})); err != nil {
		t.Fatalf("unstamped: %v", err)
	}
}

// TestIdempotentDedupOversizedBatchIsOneEntry: an oversized uncompressed
// idempotent batch is stored as the one stamped batch it was sent as, so it
// is one producer-table entry, and a retry of it dedups onto the original
// offsets — before and after the table is rebuilt from the log.
func TestIdempotentDedupOversizedBatchIsOneEntry(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxBatchBytes: 600, SegmentBytes: 1024}
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base, err := sendStamped(l, stampedBatch(t, 3, 0, 0, "head")); err != nil || base != 0 {
		t.Fatalf("append: base=%d err=%v", base, err)
	}
	vals := make([]string, 8)
	for i := range vals {
		vals[i] = string(bytes.Repeat([]byte{byte('a' + i)}, 192))
	}
	big := stampedBatch(t, 3, 0, 1, vals...)
	if int64(len(big)) <= cfg.SegmentBytes {
		t.Fatalf("test batch too small: %dB", len(big))
	}
	if base, err := sendStamped(l, big); err != nil || base != 1 {
		t.Fatalf("append: base=%d err=%v", base, err)
	}
	if l.NextOffset() != 9 {
		t.Fatalf("NextOffset = %d, want 9", l.NextOffset())
	}
	data, err := l.Read(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	info, err := record.PeekBatchInfo(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Length != len(data) || info.RecordCount != 8 || info.ProducerID != 3 || info.BaseSequence != 1 {
		t.Fatalf("stored as %+v in %dB, want the one stamped 8-record batch", info, len(data))
	}
	if n := len(l.producers.byID[3].recent); n != 2 {
		t.Fatalf("producer table holds %d entries for 2 produced batches", n)
	}
	_, err = sendStamped(l, big)
	mustDup(t, err, 1, 8)
	// A resend of the same sequence with other boundaries is not a retry.
	if _, err := sendStamped(l, stampedBatch(t, 3, 0, 1, vals[:4]...)); !errors.Is(err, ErrOutOfOrderSequence) {
		t.Fatalf("partial resend: got %v, want ErrOutOfOrderSequence", err)
	}
	if l.NextOffset() != 9 {
		t.Fatalf("NextOffset = %d after dedup, want 9", l.NextOffset())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, producerSnapshotFile))

	l, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, err = sendStamped(l, big)
	mustDup(t, err, 1, 8)
}

// TestProducerStateRebuiltFromScan: with no snapshot on disk the table is
// rebuilt by header-walking the recovered log, so a retry that straddles a
// broker restart still dedups.
func TestProducerStateRebuiltFromScan(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b0 := stampedBatch(t, 5, 2, 0, "a", "b")
	b1 := stampedBatch(t, 5, 2, 2, "c")
	if _, err := sendStamped(l, b0); err != nil {
		t.Fatal(err)
	}
	if _, err := sendStamped(l, b1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Forget everything the shutdown persisted: recovery must not depend
	// on a snapshot (or a checkpoint) existing.
	os.Remove(filepath.Join(dir, producerSnapshotFile))
	os.Remove(filepath.Join(dir, checkpointFile))

	l2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	_, err = sendStamped(l2, b0)
	mustDup(t, err, 0, 1)
	_, err = sendStamped(l2, b1)
	mustDup(t, err, 2, 2)
	// The epoch survived the rebuild too: a stale instance stays fenced...
	if _, err := sendStamped(l2, stampedBatch(t, 5, 1, 3, "stale")); !errors.Is(err, ErrFencedEpoch) {
		t.Fatalf("stale epoch after rebuild: got %v, want ErrFencedEpoch", err)
	}
	// ...and the live one continues where it left off.
	if base, err := sendStamped(l2, stampedBatch(t, 5, 2, 3, "d")); err != nil || base != 3 {
		t.Fatalf("continue after rebuild: base=%d err=%v", base, err)
	}
}

// TestProducerStateSnapshotPlusTailRescan: a crash image holding a producer
// snapshot that covers only a prefix (the PR 7 checkpoint flow) recovers by
// seeding the table from the snapshot and header-walking just the tail —
// retries of prefix AND tail batches both dedup after reopen.
func TestProducerStateSnapshotPlusTailRescan(t *testing.T) {
	dir := t.TempDir()
	// Checkpoints (and producer snapshots) persist under explicit sync
	// policies only.
	l, err := Open(dir, Config{Durability: Durability{Policy: SyncBatch}})
	if err != nil {
		t.Fatal(err)
	}
	b0 := stampedBatch(t, 11, 0, 0, "a", "b", "c")
	if _, err := sendStamped(l, b0); err != nil {
		t.Fatal(err)
	}
	// Flush persists the durability checkpoint and the producer snapshot
	// covering offset 3.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, producerSnapshotFile)); err != nil {
		t.Fatalf("flush did not persist the producer snapshot: %v", err)
	}
	// The tail lands after the snapshot and is never flushed again.
	b1 := stampedBatch(t, 11, 0, 3, "d", "e")
	if _, err := sendStamped(l, b1); err != nil {
		t.Fatal(err)
	}
	crash := copyLogDir(t, dir)
	l.Close()

	l2, err := Open(crash, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextOffset(); got != 5 {
		t.Fatalf("NextOffset after crash recovery = %d, want 5", got)
	}
	_, err = sendStamped(l2, b0)
	mustDup(t, err, 0, 2)
	_, err = sendStamped(l2, b1)
	mustDup(t, err, 3, 4)
	if base, err := sendStamped(l2, stampedBatch(t, 11, 0, 5, "f")); err != nil || base != 5 {
		t.Fatalf("continue after recovery: base=%d err=%v", base, err)
	}
}

// TestTornWriteResendAppendsAfterTruncation: a batch torn by a crash is
// truncated away on recovery — so when the producer retries it (it never
// got the ack), the retry must APPEND, not dedup: the stale snapshot
// written at shutdown covers offsets the recovered log no longer has and
// has to be discarded, or the table would claim a batch the log lost.
func TestTornWriteResendAppendsAfterTruncation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b0 := stampedBatch(t, 4, 0, 0, "a", "b", "c")
	b1 := stampedBatch(t, 4, 0, 3, "d", "e")
	if _, err := sendStamped(l, b0); err != nil {
		t.Fatal(err)
	}
	if _, err := sendStamped(l, b1); err != nil {
		t.Fatal(err)
	}
	segs := l.Segments()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear b1: chop half of the last batch off the segment file. The
	// snapshot Close wrote covers offset 5 — now a lie.
	path := segmentPath(dir, segs[0].BaseOffset)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b1len, err := record.PeekBatchLen(b1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-b1len/2], 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(dir, checkpointFile)) // the tail was never durable

	l2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.NextOffset(); got != 3 {
		t.Fatalf("NextOffset after torn recovery = %d, want 3", got)
	}
	// The producer retries b1 — the broker must take it as new data at
	// offset 3. Deduping here would acknowledge records the log lost.
	base, err := sendStamped(l2, b1)
	if err != nil || base != 3 {
		t.Fatalf("resend after truncation: base=%d err=%v", base, err)
	}
	// b0 survived intact and still dedups.
	_, err = sendStamped(l2, b0)
	mustDup(t, err, 0, 2)
	vals := []string{}
	for _, r := range readAll(t, l2, 0) {
		vals = append(vals, string(r.Value))
	}
	want := fmt.Sprint([]string{"a", "b", "c", "d", "e"})
	if fmt.Sprint(vals) != want {
		t.Fatalf("recovered values %v, want %v", vals, want)
	}
}

// TestTruncateRewindsProducerTable: an explicit suffix truncation (follower
// reconciliation) rewinds the table with the log — sequences above the cut
// are forgotten, so the leader's re-replicated batches append cleanly.
func TestTruncateRewindsProducerTable(t *testing.T) {
	l := openTestLog(t, Config{})
	b0 := stampedBatch(t, 6, 0, 0, "a", "b")
	b1 := stampedBatch(t, 6, 0, 2, "c", "d")
	if _, err := sendStamped(l, b0); err != nil {
		t.Fatal(err)
	}
	if _, err := sendStamped(l, b1); err != nil {
		t.Fatal(err)
	}
	if err := l.Truncate(2); err != nil {
		t.Fatal(err)
	}
	// b1 is gone from the log; its resend must append, not dedup.
	base, err := sendStamped(l, b1)
	if err != nil || base != 2 {
		t.Fatalf("resend after Truncate: base=%d err=%v", base, err)
	}
	_, err = sendStamped(l, b0)
	mustDup(t, err, 0, 1)
}
