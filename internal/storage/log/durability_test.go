package log

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage/record"
)

// --- helpers ---------------------------------------------------------------

// countingSyncer wraps the real fsync with an atomic counter so tests can
// assert each policy's observable sync behaviour.
type countingSyncer struct{ n int64 }

func (c *countingSyncer) sync(f *os.File) error {
	atomic.AddInt64(&c.n, 1)
	return f.Sync()
}

func (c *countingSyncer) count() int64 { return atomic.LoadInt64(&c.n) }

// copyLogDir clones a log directory (segments, checkpoint, start-offset)
// into a fresh temp dir for destructive surgery.
func copyLogDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// assertRecords reopens nothing — it scans the open log from offset 0 and
// asserts exactly the given values in order with strictly increasing,
// gap-free offsets (no loss, no duplicates).
func assertRecords(t *testing.T, l *Log, want []string) {
	t.Helper()
	recs := readAll(t, l, 0)
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if string(r.Value) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, r.Value, want[i])
		}
		if r.Offset != int64(i) {
			t.Fatalf("record %d has offset %d (duplicate or gap)", i, r.Offset)
		}
	}
}

// waitDurable appends via SyncWait semantics: resolves when next is durable.
func waitDurable(t *testing.T, l *Log, next int64) {
	t.Helper()
	ch := l.SyncWait(next)
	if ch == nil {
		return
	}
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("SyncWait(%d): %v", next, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("SyncWait(%d): timed out", next)
	}
}

// --- fsync-policy matrix ---------------------------------------------------

// TestSyncPolicyMatrix asserts, for each durability policy, the observable
// sync behaviour through an injected syncer.
func TestSyncPolicyMatrix(t *testing.T) {
	t.Run("none", func(t *testing.T) {
		cs := &countingSyncer{}
		l := openTestLog(t, Config{Durability: Durability{Policy: SyncNone, Syncer: cs.sync}})
		for i := 0; i < 5; i++ {
			if _, err := l.Append([]record.Record{rec("", fmt.Sprintf("v%d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(50 * time.Millisecond)
		if n := cs.count(); n != 0 {
			t.Fatalf("SyncNone performed %d syncs before close, want 0", n)
		}
		if ch := l.SyncWait(5); ch != nil {
			t.Fatal("SyncNone SyncWait returned a wait channel")
		}
	})

	t.Run("batch", func(t *testing.T) {
		cs := &countingSyncer{}
		l := openTestLog(t, Config{Durability: Durability{Policy: SyncBatch, Syncer: cs.sync}})
		open := cs.count() // Open syncs once to seal the recovered state
		for i := 0; i < 5; i++ {
			if _, err := l.Append([]record.Record{rec("", fmt.Sprintf("v%d", i))}); err != nil {
				t.Fatal(err)
			}
			if got := l.SyncedNext(); got != int64(i+1) {
				t.Fatalf("SyncedNext = %d after append %d, want %d (inline sync)", got, i, i+1)
			}
		}
		if n := cs.count() - open; n < 5 {
			t.Fatalf("SyncBatch performed %d syncs for 5 appends, want >= 5", n)
		}
	})

	t.Run("interval", func(t *testing.T) {
		cs := &countingSyncer{}
		l := openTestLog(t, Config{Durability: Durability{
			Policy: SyncInterval, Interval: 5 * time.Millisecond, Syncer: cs.sync,
		}})
		open := cs.count()
		for i := 0; i < 3; i++ {
			if _, err := l.Append([]record.Record{rec("", fmt.Sprintf("v%d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(2 * time.Second)
		for l.SyncedNext() < 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := l.SyncedNext(); got < 3 {
			t.Fatalf("background interval sync never covered the appends (SyncedNext=%d)", got)
		}
		if n := cs.count() - open; n < 1 {
			t.Fatalf("SyncInterval performed %d syncs, want >= 1", n)
		}
	})

	t.Run("group", func(t *testing.T) {
		cs := &countingSyncer{}
		l := openTestLog(t, Config{Durability: Durability{
			Policy: SyncGroup, GroupWindow: 5 * time.Millisecond, Syncer: cs.sync,
		}})
		open := cs.count()
		const producers, rounds = 8, 5
		var wg sync.WaitGroup
		errCh := make(chan error, producers*rounds)
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					base, err := l.Append([]record.Record{rec("", fmt.Sprintf("p%d-%d", p, i))})
					if err != nil {
						errCh <- err
						return
					}
					if ch := l.SyncWait(base + 1); ch != nil {
						if err := <-ch; err != nil {
							errCh <- err
							return
						}
					}
					if l.SyncedNext() <= base {
						errCh <- fmt.Errorf("ack released at %d before durable (frontier %d)", base, l.SyncedNext())
						return
					}
				}
			}(p)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
		appends := int64(producers * rounds)
		if n := cs.count() - open; n == 0 || n > appends/2 {
			t.Fatalf("group commit performed %d syncs for %d acked appends, want amortized (1..%d)", n, appends, appends/2)
		}
	})
}

// --- checkpointed recovery -------------------------------------------------

// TestCheckpointTrustedPrefixSkipsScan proves recovery honours the
// checkpoint in both directions: bytes below the checkpointed frontier are
// trusted without a CRC scan (corruption there goes unnoticed — exactly the
// "scan only the unsynced tail" contract), while without a checkpoint the
// full scan catches the same corruption and truncates at it.
func TestCheckpointTrustedPrefixSkipsScan(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Durability: Durability{Policy: SyncGroup, GroupWindow: time.Millisecond}}
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // byte end position of each batch
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]record.Record{rec("", fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Segments()[0].Size)
	}
	waitDurable(t, l, 3)
	// Checkpoints are periodic, off the ack path; force one at the frontier.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	cp, ok := ReadCheckpoint(dir)
	if !ok {
		t.Fatal("no checkpoint after Flush")
	}
	if cp.SyncedNext != 3 || cp.SyncedBytes != ends[2] {
		t.Fatalf("checkpoint = %+v, want next=3 bytes=%d", cp, ends[2])
	}
	if err := l.CrashClose(); err != nil {
		t.Fatal(err)
	}

	// Corrupt a CRC-covered payload byte of the middle batch (inside the
	// trusted prefix). Payload, not header: recovery still walks batch
	// headers in the trusted region to rebuild the offset index, so only
	// CRC-detectable body corruption distinguishes "scan" from "trust".
	seg := segmentPath(dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[ends[1]-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// With the checkpoint in place, recovery trusts the prefix: all three
	// offsets come back, corruption unnoticed — the scan was skipped.
	l, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextOffset(); got != 3 {
		t.Fatalf("checkpointed recovery NextOffset = %d, want 3 (trusted prefix not rescanned)", got)
	}
	if err := l.CrashClose(); err != nil {
		t.Fatal(err)
	}

	// Without the checkpoint the full CRC scan catches it and truncates
	// everything from the corrupted batch on.
	if err := os.Remove(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.NextOffset(); got != 1 {
		t.Fatalf("full-scan recovery NextOffset = %d, want 1 (truncated at corruption)", got)
	}
	assertRecords(t, l, []string{"v0"})
}

// TestCrashRecoveryUnsyncedTailTruncated models the real crash: group-commit
// acks some batches, more arrive unsynced, the process dies and the page
// cache is lost (file surgery truncates back to the synced frontier and
// leaves torn garbage). Recovery must keep every acked batch, truncate
// exactly the unsynced torn tail, and never duplicate offsets. The
// checkpoint is the one Open wrote — acks do not wait for a newer one — so
// the whole acked region is recovered by the CRC scan.
func TestCrashRecoveryUnsyncedTailTruncated(t *testing.T) {
	dir := t.TempDir()
	// Interval far out: the unacked tail below must stay unsynced.
	cfg := Config{Durability: Durability{Policy: SyncGroup, GroupWindow: 2 * time.Millisecond, Interval: time.Hour}}
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked := []string{"a0", "a1", "a2"}
	for _, v := range acked {
		if _, err := l.Append([]record.Record{rec("", v)}); err != nil {
			t.Fatal(err)
		}
	}
	waitDurable(t, l, int64(len(acked))) // acked: durable by contract
	syncedNext, syncedBytes := l.SyncedNext(), l.Segments()[0].Size
	if syncedNext != int64(len(acked)) {
		t.Fatalf("SyncedNext = %d after the acks, want %d", syncedNext, len(acked))
	}
	// Unacked appends the crash may lose.
	for i := 0; i < 2; i++ {
		if _, err := l.Append([]record.Record{rec("", fmt.Sprintf("u%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CrashClose(); err != nil {
		t.Fatal(err)
	}

	// The crash: unsynced page-cache bytes vanish, and the last in-flight
	// write tears.
	seg := segmentPath(dir, 0)
	if err := os.Truncate(seg, syncedBytes); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-garbage-torn-garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.NextOffset(); got != syncedNext {
		t.Fatalf("recovered NextOffset = %d, want %d (exactly the synced frontier)", got, syncedNext)
	}
	assertRecords(t, l, acked)
}

// TestCrashBetweenFsyncAndCheckpoint kills the checkpoint write (via the
// injection hook) after the fdatasync has landed: the stale checkpoint must
// degrade recovery to a CRC scan of the tail — keeping every synced batch —
// never lose acked data.
func TestCrashBetweenFsyncAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var dropCheckpoints atomic.Bool
	cfg := Config{Durability: Durability{
		Policy:      SyncGroup,
		GroupWindow: time.Millisecond,
		CheckpointHook: func() error {
			if dropCheckpoints.Load() {
				return errors.New("crash before checkpoint write")
			}
			return nil
		},
	}}
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]record.Record{rec("", "early")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil { // checkpoint now covers offset 1
		t.Fatal(err)
	}
	dropCheckpoints.Store(true)
	late := []string{"late0", "late1", "late2"}
	for _, v := range late {
		if _, err := l.Append([]record.Record{rec("", v)}); err != nil {
			t.Fatal(err)
		}
	}
	// The fdatasync lands (acks release) but the checkpoint write "crashes".
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	waitDurable(t, l, 4)
	if err := l.CrashClose(); err != nil {
		t.Fatal(err)
	}
	cp, ok := ReadCheckpoint(dir)
	if !ok || cp.SyncedNext != 1 {
		t.Fatalf("checkpoint = %+v, ok=%v; want stale next=1", cp, ok)
	}

	l, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.NextOffset(); got != 4 {
		t.Fatalf("recovered NextOffset = %d, want 4 (synced tail beyond stale checkpoint kept)", got)
	}
	assertRecords(t, l, append([]string{"early"}, late...))
}

// TestTruncateInvalidatesCheckpoint: follower reconciliation truncates the
// log; the checkpoint (whose byte positions describe the pre-truncation
// file) must not survive to poison the next recovery.
func TestTruncateInvalidatesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Durability: Durability{Policy: SyncGroup, GroupWindow: time.Millisecond}}
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]record.Record{rec("", fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	waitDurable(t, l, 4)
	if err := l.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if _, ok := ReadCheckpoint(dir); ok {
		t.Fatal("checkpoint survived a truncation")
	}
	if got := l.SyncedNext(); got > 2 {
		t.Fatalf("SyncedNext = %d after Truncate(2)", got)
	}
	if err := l.CrashClose(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.NextOffset(); got != 2 {
		t.Fatalf("NextOffset after truncate+reopen = %d, want 2", got)
	}
	assertRecords(t, l, []string{"v0", "v1"})
}

// --- torn writes -----------------------------------------------------------

// TestTornWriteEveryByteBoundary truncates the segment at every byte
// boundary of the last batch and corrupts every CRC-relevant byte of it,
// asserting recovery always truncates exactly the torn batch: earlier
// batches survive, offsets never duplicate, and the log reopens writable.
func TestTornWriteEveryByteBoundary(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	keep := []string{"k0", "k1"}
	for _, v := range keep {
		if _, err := l.Append([]record.Record{rec("", v)}); err != nil {
			t.Fatal(err)
		}
	}
	lastStart := l.Segments()[0].Size
	if _, err := l.Append([]record.Record{rec("", "torn")}); err != nil {
		t.Fatal(err)
	}
	size := l.Segments()[0].Size
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func(t *testing.T, dir string) {
		t.Helper()
		rl, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer rl.Close()
		if got := rl.NextOffset(); got != int64(len(keep)) {
			t.Fatalf("NextOffset = %d, want %d (torn batch truncated)", got, len(keep))
		}
		assertRecords(t, rl, keep)
		// The recovered log must append cleanly where the tear was cut.
		if base, err := rl.Append([]record.Record{rec("", "after")}); err != nil || base != int64(len(keep)) {
			t.Fatalf("append after recovery: base=%d err=%v", base, err)
		}
	}

	// Truncation at every byte boundary of the last batch (a partial
	// write of any length).
	for cut := lastStart; cut < size; cut++ {
		cdir := copyLogDir(t, dir)
		if err := os.Truncate(segmentPath(cdir, 0), cut); err != nil {
			t.Fatal(err)
		}
		reopen(t, cdir)
	}

	// Corruption at every byte position of the last batch from the length
	// field on. (The first 8 bytes are the base-offset prefix, which is
	// outside CRC coverage by design — leaders restamp it in place — so
	// its corruption is caught by the offset-regression check only when
	// offsets regress, not guaranteed for arbitrary flips.)
	for pos := lastStart + 8; pos < size; pos++ {
		cdir := copyLogDir(t, dir)
		seg := segmentPath(cdir, 0)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[pos] ^= 0xFF
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reopen(t, cdir)
	}
}

// TestRecoveryIdempotent reopens a recovered log repeatedly, asserting the
// recovery scan converges (no further truncation, no offset drift).
func TestRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Durability: Durability{Policy: SyncBatch}}
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := []string{"a", "b", "c"}
	for _, v := range vals {
		if _, err := l.Append([]record.Record{rec("", v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CrashClose(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.NextOffset(); got != 3 {
			t.Fatalf("reopen %d: NextOffset = %d, want 3", i, got)
		}
		assertRecords(t, l, vals)
		if err := l.CrashClose(); err != nil {
			t.Fatal(err)
		}
	}
}

// --- group commit off the checkpoint path ----------------------------------

// TestGroupCommitIsOneSyncAndAcksBeforeCheckpoint pins what is and is not on
// the ack path: every group commit is exactly one segment sync, the ack is
// released while the checkpoint write is still blocked, and N commits inside
// one checkpoint interval write the checkpoint and the producer snapshot at
// most once.
func TestGroupCommitIsOneSyncAndAcksBeforeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cs := &countingSyncer{}
	var checkpoints atomic.Int64
	hookEntered := make(chan struct{}, 16) // one slot per commit; never blocks the hook
	releaseHook := make(chan struct{})
	l, err := Open(dir, Config{Durability: Durability{
		Policy: SyncGroup, GroupWindow: time.Millisecond, Interval: time.Hour, Syncer: cs.sync,
		CheckpointHook: func() error {
			checkpoints.Add(1)
			hookEntered <- struct{}{}
			<-releaseHook
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	open := cs.count()
	snapshot := func() string {
		b, _ := os.ReadFile(filepath.Join(dir, producerSnapshotFile))
		return string(b)
	}
	// Open just wrote a checkpoint, so none is due for an interval; a roll
	// is what makes one due sooner. Stand in for it.
	l.mu.Lock()
	l.checkpointDue = true
	l.mu.Unlock()

	const commits = 6
	snapshots := map[string]bool{snapshot(): true}
	for i := 0; i < commits; i++ {
		if _, err := sendStamped(l, stampedBatch(t, 9, 0, int64(i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		waitDurable(t, l, int64(i+1)) // the ack: must not need the checkpoint
		if i == 0 {
			select {
			case <-hookEntered:
			case <-time.After(5 * time.Second):
				t.Fatal("first commit never reached the checkpoint write")
			}
			if _, ok := ReadCheckpoint(dir); !ok {
				t.Fatal("Open's checkpoint missing")
			}
			if cp, _ := ReadCheckpoint(dir); cp.SyncedNext != 0 {
				t.Fatalf("checkpoint = %+v while its hook is blocked, want Open's (next=0)", cp)
			}
			close(releaseHook)
		}
		// Wait out the commit's tail (checkpoint + snapshot writes follow the ack).
		l.syncMu.Lock()
		l.syncMu.Unlock()
		snapshots[snapshot()] = true
	}
	if n := cs.count() - open; n != commits {
		t.Fatalf("%d group commits performed %d segment syncs, want exactly %d", commits, n, commits)
	}
	if n := checkpoints.Load(); n != 1 {
		t.Fatalf("%d checkpoint writes for %d commits inside one interval, want 1", n, commits)
	}
	if n := len(snapshots) - 1; n != 1 {
		t.Fatalf("producer snapshot rewritten %d times for %d commits inside one interval, want 1", n, commits)
	}
	if cp, ok := ReadCheckpoint(dir); !ok || cp.SyncedNext != 1 {
		t.Fatalf("checkpoint = %+v ok=%v, want the first commit's frontier (next=1)", cp, ok)
	}
}

// TestCrashRecoveryStaleCheckpointAndSnapshot is the recovery half of taking
// the checkpoint off the ack path: the crash image holds a checkpoint and a
// producer snapshot that are one interval stale (they cover only the first
// batch), a synced acked region beyond them, and a torn unsynced tail.
// Recovery must keep every acked record and the whole dedup table — a
// retried acked sequence is still answered DupSequenceError — and drop
// exactly the tail.
func TestCrashRecoveryStaleCheckpointAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Durability: Durability{Policy: SyncGroup, GroupWindow: time.Millisecond, Interval: time.Hour}}
	l, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b0 := stampedBatch(t, 21, 0, 0, "a", "b")
	b1 := stampedBatch(t, 21, 0, 2, "c")
	b2 := stampedBatch(t, 21, 0, 3, "d", "e")
	lost := stampedBatch(t, 21, 0, 5, "f")
	if _, err := sendStamped(l, b0); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil { // checkpoint + snapshot cover b0 only
		t.Fatal(err)
	}
	for _, b := range [][]byte{b1, b2} {
		if _, err := sendStamped(l, b); err != nil {
			t.Fatal(err)
		}
		waitDurable(t, l, l.NextOffset()) // acked, inside the checkpoint interval
	}
	syncedBytes := l.Segments()[0].Size
	if _, err := sendStamped(l, lost); err != nil { // never acked, never synced
		t.Fatal(err)
	}
	if err := l.CrashClose(); err != nil {
		t.Fatal(err)
	}
	if cp, ok := ReadCheckpoint(dir); !ok || cp.SyncedNext != 2 {
		t.Fatalf("checkpoint = %+v ok=%v, want stale next=2", cp, ok)
	}
	if _, next, ok := readProducerSnapshotFile(dir); !ok || next != 2 {
		t.Fatalf("producer snapshot covers %d ok=%v, want stale next=2", next, ok)
	}
	seg := segmentPath(dir, 0)
	if err := os.Truncate(seg, syncedBytes); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-garbage-torn-garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	assertRecords(t, l, []string{"a", "b", "c", "d", "e"})
	_, err = sendStamped(l, b0)
	mustDup(t, err, 0, 1)
	_, err = sendStamped(l, b1)
	mustDup(t, err, 2, 2)
	_, err = sendStamped(l, b2)
	mustDup(t, err, 3, 4)
	// The unacked batch is gone from log and table alike: its retry appends.
	if base, err := sendStamped(l, lost); err != nil || base != 5 {
		t.Fatalf("resend of the lost tail: base=%d err=%v, want a fresh append at 5", base, err)
	}
}

// TestGroupSyncsWaiterlessLogOnInterval: under SyncGroup a dirty log nobody
// waits on (a follower replica, acks=0 traffic) is synced once per Interval,
// not once per append, and a SyncWait arriving late starts the commit window
// at once instead of waiting the Interval out.
func TestGroupSyncsWaiterlessLogOnInterval(t *testing.T) {
	t.Run("one sync per interval", func(t *testing.T) {
		cs := &countingSyncer{}
		l := openTestLog(t, Config{Durability: Durability{
			Policy: SyncGroup, GroupWindow: time.Millisecond, Interval: 150 * time.Millisecond, Syncer: cs.sync,
		}})
		open := cs.count()
		const appends = 20
		for i := 0; i < appends; i++ {
			if _, err := l.Append([]record.Record{rec("", fmt.Sprintf("v%d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(20 * time.Millisecond) // ten commit windows; no waiter, so none opens
		if n := cs.count() - open; n != 0 {
			t.Fatalf("%d syncs for appends nobody waits on, before the interval elapsed", n)
		}
		deadline := time.Now().Add(5 * time.Second)
		for l.SyncedNext() < appends && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := l.SyncedNext(); got != appends {
			t.Fatalf("interval cadence never synced the waiter-less log (SyncedNext=%d)", got)
		}
		if n := cs.count() - open; n != 1 {
			t.Fatalf("%d syncs for %d waiter-less appends inside one interval, want 1", n, appends)
		}
	})

	t.Run("late waiter opens the window", func(t *testing.T) {
		cs := &countingSyncer{}
		const interval = 30 * time.Second
		l := openTestLog(t, Config{Durability: Durability{
			Policy: SyncGroup, GroupWindow: 2 * time.Millisecond, Interval: interval, Syncer: cs.sync,
		}})
		open := cs.count()
		if _, err := l.Append([]record.Record{rec("", "v")}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
		if n := cs.count() - open; n != 0 {
			t.Fatalf("%d syncs before anybody waited", n)
		}
		start := time.Now()
		waitDurable(t, l, 1)
		if d := time.Since(start); d > interval/10 {
			t.Fatalf("late SyncWait answered after %v: it waited out the interval, not the commit window", d)
		}
	})
}

// --- the roll's sync, moved to the commit ------------------------------------

// nameFailingSyncer counts syncs and fails those on the file named by fail
// (a segment path; "" fails none).
type nameFailingSyncer struct {
	countingSyncer
	fail atomic.Value // string
}

func (s *nameFailingSyncer) sync(f *os.File) error {
	if name, _ := s.fail.Load().(string); name != "" && f.Name() == name {
		atomic.AddInt64(&s.n, 1)
		return errors.New("injected fdatasync failure")
	}
	return s.countingSyncer.sync(f)
}

// appendThroughRoll appends ~300-byte records until the log has rolled once
// more and the new active segment holds a record, returning the values.
func appendThroughRoll(t *testing.T, l *Log, tag string) []string {
	t.Helper()
	var vals []string
	for segs := l.SegmentCount(); l.SegmentCount() == segs; {
		v := fmt.Sprintf("%s-%d-%0300d", tag, len(vals), 0)
		if _, err := l.Append([]record.Record{rec("", v)}); err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
	}
	return vals
}

// idleCommitter configures a policy whose committer never fires on its own
// within a test, so every commit is an explicit Flush or a parked SyncWait.
func idleCommitter(policy SyncPolicy, syncer func(*os.File) error) Config {
	return Config{SegmentBytes: 1024, RetentionMs: -1, Durability: Durability{
		Policy: policy, Interval: time.Hour, GroupWindow: time.Millisecond, Syncer: syncer,
	}}
}

// TestRollSyncCounts counts syncs across segment rolls: none under SyncNone
// until Flush visits every segment, and under interval/group exactly one per
// sealed segment on top of the commit's own, performed by the commit and not
// by the roll.
func TestRollSyncCounts(t *testing.T) {
	const rolls = 4
	t.Run("none", func(t *testing.T) {
		cs := &countingSyncer{}
		l := openTestLog(t, idleCommitter(SyncNone, cs.sync))
		for i := 0; i < rolls; i++ {
			appendThroughRoll(t, l, "n")
		}
		if n := cs.count(); n != 0 {
			t.Fatalf("SyncNone performed %d syncs across %d rolls, want 0", n, rolls)
		}
		if got := l.SyncedNext(); got != 0 {
			t.Fatalf("SyncedNext = %d with nothing synced", got)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := cs.count(); n != rolls+1 {
			t.Fatalf("Flush performed %d syncs over %d unsynced segments, want one each", n, rolls+1)
		}
		if got, want := l.SyncedNext(), l.NextOffset(); got != want {
			t.Fatalf("SyncedNext = %d after Flush, want %d", got, want)
		}
	})
	for _, policy := range []SyncPolicy{SyncInterval, SyncGroup} {
		t.Run(policy.String(), func(t *testing.T) {
			cs := &countingSyncer{}
			l := openTestLog(t, idleCommitter(policy, cs.sync))
			for i := 0; i < rolls; i++ {
				before := cs.count()
				appendThroughRoll(t, l, "r")
				if n := cs.count() - before; n != 0 {
					t.Fatalf("roll %d synced %d times inside the append", i, n)
				}
				if err := l.Flush(); err != nil {
					t.Fatal(err)
				}
				if n := cs.count() - before; n != 2 {
					t.Fatalf("commit after roll %d performed %d syncs, want 2 (sealed + active)", i, n)
				}
				if got, want := l.SyncedNext(), l.NextOffset(); got != want {
					t.Fatalf("SyncedNext = %d after commit, want %d", got, want)
				}
				// No roll since: the commit is one sync again.
				if _, err := l.Append([]record.Record{rec("", "x")}); err != nil {
					t.Fatal(err)
				}
				before = cs.count()
				if err := l.Flush(); err != nil {
					t.Fatal(err)
				}
				if n := cs.count() - before; n != 1 {
					t.Fatalf("commit without a roll performed %d syncs, want 1", n)
				}
			}
			// Two rolls between commits: both sealed segments, then the active.
			before := cs.count()
			appendThroughRoll(t, l, "a")
			appendThroughRoll(t, l, "b")
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if n := cs.count() - before; n != 3 {
				t.Fatalf("commit after two rolls performed %d syncs, want 3", n)
			}
		})
	}
}

// TestCrashAfterRollBeforeCommit crashes with a sealed segment whose tail no
// sync has covered and a younger active segment. Killed as a process, nothing
// is lost. Killed with the page cache — the sealed tail tears, or is cut off
// clean, while the younger file survives — recovery keeps every offset below
// the frontier, finds the damage by CRC-scanning the sealed segment beyond the
// checkpoint, and ends the log there instead of resuming past a hole.
func TestCrashAfterRollBeforeCommit(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncGroup} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := idleCommitter(policy, nil)
			l, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			synced := []string{"s0", "s1"}
			for _, v := range synced {
				if _, err := l.Append([]record.Record{rec("", v)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Flush(); err != nil { // frontier 2, checkpointed inside segment 0
				t.Fatal(err)
			}
			syncedBytes := l.Segments()[0].Size
			unsynced := appendThroughRoll(t, l, "u") // tail of segment 0, head of segment 1
			segs := l.Segments()
			if len(segs) != 2 || l.SyncedNext() != 2 {
				t.Fatalf("setup: %d segments, frontier %d; want 2 and 2", len(segs), l.SyncedNext())
			}
			if err := l.CrashClose(); err != nil {
				t.Fatal(err)
			}
			if cp, ok := ReadCheckpoint(dir); !ok || cp.SegmentBase != 0 || cp.SyncedBytes != syncedBytes {
				t.Fatalf("checkpoint = %+v ok=%v, want segment 0 at %d bytes", cp, ok, syncedBytes)
			}

			reopen := func(t *testing.T, dir string, want []string) {
				t.Helper()
				rl, err := Open(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer rl.Close()
				assertRecords(t, rl, want)
				if got := rl.NextOffset(); got != int64(len(want)) {
					t.Fatalf("NextOffset = %d, want %d", got, len(want))
				}
				if got := rl.SyncedNext(); got != int64(len(want)) {
					t.Fatalf("SyncedNext = %d after recovery, want %d", got, len(want))
				}
				if base, err := rl.Append([]record.Record{rec("", "after")}); err != nil || base != int64(len(want)) {
					t.Fatalf("append after recovery: base=%d err=%v", base, err)
				}
			}
			all := append(append([]string{}, synced...), unsynced...)

			t.Run("process kill", func(t *testing.T) {
				reopen(t, copyLogDir(t, dir), all)
			})
			t.Run("sealed tail torn", func(t *testing.T) {
				cdir := copyLogDir(t, dir)
				seg := segmentPath(cdir, 0)
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-1] ^= 0xFF // last unsynced batch of the sealed segment
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
				sealedRecs := int(segs[0].NextOffset)
				reopen(t, cdir, all[:sealedRecs-1])
				if _, err := os.Stat(segmentPath(cdir, segs[1].BaseOffset)); !os.IsNotExist(err) {
					t.Fatalf("segment beyond the torn one survived recovery (stat err %v)", err)
				}
			})
			t.Run("sealed tail cut clean", func(t *testing.T) {
				cdir := copyLogDir(t, dir)
				if err := os.Truncate(segmentPath(cdir, 0), syncedBytes); err != nil {
					t.Fatal(err)
				}
				reopen(t, cdir, synced)
			})
		})
	}
}

// TestSealedSegmentSyncFailure fails the fdatasync of a sealed segment: the
// commit releases no waiter and moves no frontier past the data behind it,
// never checkpoints into the younger segment, and a crash in that state
// recovers like any other unsynced tail. Once the disk heals, the next commit
// syncs the sealed segment first and everything proceeds.
func TestSealedSegmentSyncFailure(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncGroup} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			fs := &nameFailingSyncer{}
			cfg := idleCommitter(policy, fs.sync)
			l, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]record.Record{rec("", "s0")}); err != nil {
				t.Fatal(err)
			}
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			syncedBytes := l.Segments()[0].Size
			unsynced := appendThroughRoll(t, l, "u")
			fs.fail.Store(segmentPath(dir, 0))
			end := l.NextOffset()

			if policy == SyncGroup {
				// A parked ack is answered with the failure, not released.
				select {
				case err := <-l.SyncWait(end):
					if err == nil {
						t.Fatal("SyncWait released behind a failed sealed-segment sync")
					}
				case <-time.After(5 * time.Second):
					t.Fatal("SyncWait neither released nor failed")
				}
			}
			for i := 0; i < 2; i++ {
				if err := l.Flush(); err == nil {
					t.Fatal("commit succeeded although the sealed segment's sync failed")
				}
				if got := l.SyncedNext(); got != 1 {
					t.Fatalf("frontier moved to %d behind a failed sync, want 1", got)
				}
				if cp, ok := ReadCheckpoint(dir); !ok || cp.SegmentBase != 0 || cp.SyncedNext != 1 {
					t.Fatalf("checkpoint = %+v ok=%v, want segment 0 next 1: it must not name a segment above an unsynced one", cp, ok)
				}
			}

			// Crash now, losing what was never synced of the sealed segment.
			crash := copyLogDir(t, dir)
			if err := os.Truncate(segmentPath(crash, 0), syncedBytes); err != nil {
				t.Fatal(err)
			}
			rl, err := Open(crash, idleCommitter(policy, nil))
			if err != nil {
				t.Fatal(err)
			}
			assertRecords(t, rl, []string{"s0"})
			rl.Close()

			// The disk heals: sealed first, then active, then the frontier.
			fs.fail.Store("")
			before := fs.count()
			if ch := l.SyncWait(end); ch != nil {
				if err := <-ch; err != nil {
					t.Fatal(err)
				}
			} else if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if n := fs.count() - before; n != 3 {
				t.Fatalf("%d syncs after the disk healed, want 3 (sealed + active, then the forced commit)", n)
			}
			if got := l.SyncedNext(); got != end {
				t.Fatalf("SyncedNext = %d, want %d", got, end)
			}
			if cp, ok := ReadCheckpoint(dir); !ok || cp.SegmentBase != l.Segments()[1].BaseOffset || cp.SyncedNext != end {
				t.Fatalf("checkpoint = %+v ok=%v, want the active segment at %d", cp, ok, end)
			}
			if err := l.CrashClose(); err != nil {
				t.Fatal(err)
			}
			rl, err = Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rl.Close()
			assertRecords(t, rl, append([]string{"s0"}, unsynced...))
		})
	}
}

// TestPendingSealedSegmentRemoved: retention or a truncation deleting a sealed
// segment that still awaits its sync drops it from what the next commit
// syncs; the commit does not fail on the closed file.
func TestPendingSealedSegmentRemoved(t *testing.T) {
	t.Run("retention", func(t *testing.T) {
		cs := &countingSyncer{}
		cfg := idleCommitter(SyncGroup, cs.sync)
		cfg.RetentionBytes = 512
		l := openTestLog(t, cfg)
		appendThroughRoll(t, l, "a")
		appendThroughRoll(t, l, "b") // two sealed unsynced segments
		if n, err := l.EnforceRetention(time.Now()); err != nil || n != 2 {
			t.Fatalf("EnforceRetention = %d, %v; want both sealed segments deleted", n, err)
		}
		before := cs.count()
		waitDurable(t, l, l.NextOffset())
		if n := cs.count() - before; n != 1 {
			t.Fatalf("commit performed %d syncs, want 1 (the deleted segments are owed none)", n)
		}
	})
	t.Run("truncate", func(t *testing.T) {
		cs := &countingSyncer{}
		l := openTestLog(t, idleCommitter(SyncInterval, cs.sync))
		if _, err := l.Append([]record.Record{rec("", "keep")}); err != nil {
			t.Fatal(err)
		}
		appendThroughRoll(t, l, "a")
		appendThroughRoll(t, l, "b")
		if err := l.Truncate(1); err != nil { // back into segment 0, now active again
			t.Fatal(err)
		}
		before := cs.count()
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := cs.count() - before; n != 1 {
			t.Fatalf("commit performed %d syncs after the truncation, want 1", n)
		}
		if got := l.SyncedNext(); got != 1 {
			t.Fatalf("SyncedNext = %d, want 1", got)
		}
		assertRecords(t, l, []string{"keep"})
	})
}

// TestCommitConcurrentWithRollsAndRetention runs group commits against
// appenders that roll every few records and a retention pass that keeps
// deleting sealed segments, some before their sync: no ack fails, none is
// released ahead of the frontier, and the frontier reaches the log end.
func TestCommitConcurrentWithRollsAndRetention(t *testing.T) {
	// A slow disk: room for retention to act between a commit capturing a
	// sealed segment's file and syncing it.
	cfg := idleCommitter(SyncGroup, func(f *os.File) error {
		time.Sleep(200 * time.Microsecond)
		return f.Sync()
	})
	cfg.RetentionBytes = 1 // every sealed segment is deletable at once
	l := openTestLog(t, cfg)
	const producers, rounds = 4, 60
	stop := make(chan struct{})
	var retention sync.WaitGroup
	retention.Add(1)
	go func() {
		defer retention.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := l.EnforceRetention(time.Now()); err != nil {
				t.Errorf("EnforceRetention: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				base, err := l.Append([]record.Record{rec("", fmt.Sprintf("p%d-%d-%0200d", p, i, 0))})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if ch := l.SyncWait(base + 1); ch != nil {
					if err := <-ch; err != nil {
						t.Errorf("SyncWait(%d): %v", base+1, err)
						return
					}
				}
				if got := l.SyncedNext(); got <= base {
					t.Errorf("ack for offset %d released at frontier %d", base, got)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	retention.Wait()
	if got, want := l.SyncedNext(), int64(producers*rounds); got != want {
		t.Fatalf("SyncedNext = %d, want %d", got, want)
	}
}

// TestBatchPolicySyncsSealedSegmentAfterFailedSync: under SyncBatch a roll
// syncs nothing either. Normally the sealed file is clean; when the inline
// sync of its last append failed, the next append's sync visits it before the
// new active segment, and only then moves the frontier.
func TestBatchPolicySyncsSealedSegmentAfterFailedSync(t *testing.T) {
	dir := t.TempDir()
	fs := &nameFailingSyncer{}
	l, err := Open(dir, idleCommitter(SyncBatch, fs.sync))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := func(tag string) []record.Record { return []record.Record{rec("", fmt.Sprintf("%s-%0300d", tag, 0))} }
	if _, err := l.Append(big("a")); err != nil {
		t.Fatal(err)
	}
	fs.fail.Store(segmentPath(dir, 0))
	if _, err := l.Append(big("b")); err == nil {
		t.Fatal("append succeeded although its inline sync failed")
	}
	if got := l.SyncedNext(); got != 1 {
		t.Fatalf("frontier = %d behind a failed sync, want 1", got)
	}
	fs.fail.Store("")
	before := fs.count()
	if _, err := l.Append(big("c")); err != nil { // rolls: 3 × ~370 B > 1 KiB
		t.Fatal(err)
	}
	if n := l.SegmentCount(); n != 2 {
		t.Fatalf("%d segments, want 2", n)
	}
	if n := fs.count() - before; n != 2 {
		t.Fatalf("append after the roll performed %d syncs, want 2 (sealed, then active)", n)
	}
	if got := l.SyncedNext(); got != 3 {
		t.Fatalf("frontier = %d, want 3", got)
	}
	for l.SegmentCount() == 2 { // on through the next roll: the sealed file is clean
		before = fs.count()
		if _, err := l.Append(big("d")); err != nil {
			t.Fatal(err)
		}
		if n := fs.count() - before; n != 1 {
			t.Fatalf("append with nothing owed performed %d syncs, want 1", n)
		}
	}
}
