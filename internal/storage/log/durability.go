package log

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// SyncPolicy selects when appended batches are made durable (fsynced). The
// broker maps producer acks onto the configured policy: under SyncGroup,
// produces with acks>=1 are not acknowledged until their offsets are covered
// by a group fdatasync.
type SyncPolicy int8

const (
	// SyncNone leaves flushing to the OS page cache: no append and no
	// segment roll syncs anything, only Flush and a clean Close do. Acks
	// never wait for durability, no checkpoint is kept, and recovery
	// CRC-scans every segment. This is the zero value and the paper's
	// default (§4.1).
	SyncNone SyncPolicy = iota
	// SyncInterval fsyncs from a background goroutine every Interval.
	// Acks do not wait; a crash loses at most one interval of appends.
	SyncInterval
	// SyncBatch fsyncs inline after every appended batch — maximum
	// durability, one fdatasync per batch.
	SyncBatch
	// SyncGroup batches many in-flight appends behind one fdatasync: the
	// first SyncWait parked behind unsynced appends opens a commit window
	// (GroupWindow long, cut short when GroupBytes accumulate); everything
	// appended inside it is covered by a single fdatasync, and the parked
	// producers' acks are released the moment that sync lands. Appends
	// nobody waits on (follower replicas, acks=0 traffic) open no window:
	// they are synced on the Interval cadence, like SyncInterval.
	SyncGroup
)

// String names the policy for tables and logs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncInterval:
		return "interval"
	case SyncBatch:
		return "batch"
	case SyncGroup:
		return "group"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int8(p))
	}
}

// Durability defaults used when fields are zero.
const (
	DefaultSyncInterval = 50 * time.Millisecond
	DefaultGroupWindow  = 2 * time.Millisecond
	DefaultGroupBytes   = 4 << 20 // 4 MiB
)

// Durability is the log's WAL discipline: when appends are fsynced, and how
// recovery uses the persisted checkpoint to avoid rescanning synced data.
type Durability struct {
	// Policy selects the sync discipline; see SyncPolicy.
	Policy SyncPolicy
	// Interval is the background sync period for SyncInterval, and under
	// SyncGroup the longest a dirty log with no parked SyncWait stays
	// unsynced (default DefaultSyncInterval).
	Interval time.Duration
	// GroupWindow is how long a group commit waits, from the first parked
	// SyncWait, for more appends to pile in behind the pending fdatasync
	// (default DefaultGroupWindow).
	GroupWindow time.Duration
	// GroupBytes cuts a commit window short once this many unsynced bytes
	// accumulate (default DefaultGroupBytes).
	GroupBytes int64
	// Syncer overrides how a segment file is synced (default fdatasync on
	// Linux, Sync elsewhere). Tests inject counting or failing syncers to
	// assert the observable sync behaviour of each policy; benchmarks
	// inject a modeled disk barrier.
	Syncer func(*os.File) error
	// CheckpointHook, when set, runs before each checkpoint file write; a
	// non-nil error skips the write. Crash tests use it to simulate dying
	// between the fdatasync and the checkpoint update, and to count
	// checkpoint writes.
	CheckpointHook func() error
}

func (d Durability) withDefaults() Durability {
	if d.Interval == 0 {
		d.Interval = DefaultSyncInterval
	}
	if d.GroupWindow == 0 {
		d.GroupWindow = DefaultGroupWindow
	}
	if d.GroupBytes == 0 {
		d.GroupBytes = DefaultGroupBytes
	}
	return d
}

// errSyncTruncated resolves sync waiters whose awaited offsets were removed
// by a truncation (leader change reconciliation) before becoming durable.
var errSyncTruncated = errors.New("log: truncated below awaited offset")

// syncWaiter parks a producer ack behind the durability frontier: ch
// receives nil once offsets below next are fsynced.
type syncWaiter struct {
	next int64
	ch   chan error
}

// syncFile syncs one segment file under the configured syncer, feeding the
// fsync count and latency series when metrics are wired.
func (l *Log) syncFile(f *os.File) error {
	var start time.Time
	if l.met != nil {
		start = time.Now()
	}
	var err error
	if s := l.cfg.Durability.Syncer; s != nil {
		err = s(f)
	} else {
		err = fdatasync(f)
	}
	if l.met != nil {
		l.met.fsyncs.Inc()
		l.met.fsyncNs.ObserveSince(start)
	}
	return err
}

// unsyncedFilesLocked returns the files of the segments holding offsets at or
// above the durability frontier, the active one first: what a sync has to
// visit before the frontier may reach the log end. Beyond the active segment
// these are the segments sealed since the last sync (or since one failed).
func (l *Log) unsyncedFilesLocked() []*os.File {
	files := []*os.File{l.active().file}
	for i := len(l.segments) - 2; i >= 0 && l.segments[i].nextOffset > l.syncedNext; i-- {
		files = append(files, l.segments[i].file)
	}
	return files
}

// syncFiles syncs what unsyncedFilesLocked returned, oldest segment first,
// stopping at the first failure.
func (l *Log) syncFiles(files []*os.File) error {
	for i := len(files) - 1; i >= 0; i-- {
		if err := l.syncFile(files[i]); err != nil {
			return err
		}
	}
	return nil
}

// SyncedNext returns the durability frontier: every offset below it has been
// fsynced (or was recovered from disk at open, which proves it survived).
func (l *Log) SyncedNext() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.syncedNext
}

// SyncWait returns a channel that receives nil once every offset below next
// is durable under the log's sync policy, or an error if the log closes or
// truncates first. It returns nil when no wait is needed — the offsets are
// already durable, or the policy acknowledges without waiting (everything
// except SyncGroup; SyncBatch syncs inline before the append returns).
func (l *Log) SyncWait(next int64) <-chan error {
	if l.cfg.Durability.Policy != SyncGroup {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		ch := make(chan error, 1)
		ch <- ErrClosed
		return ch
	}
	if next <= l.syncedNext {
		return nil
	}
	ch := make(chan error, 1)
	l.syncWaiters = append(l.syncWaiters, syncWaiter{next: next, ch: ch})
	signal(l.syncKick) // somebody waits now: open the commit window
	return ch
}

// signal wakes the group committer through one of its one-slot channels; a
// signal already pending serves this sender too.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// noteDirtyLocked records n freshly appended unsynced bytes and, under
// SyncGroup, tells the committer: the clean→dirty transition starts the
// Interval cadence (nobody waits yet — a SyncWait shortens it to the commit
// window), and GroupBytes of accumulated bytes make the sync urgent.
func (l *Log) noteDirtyLocked(n int64) {
	wasDirty := l.dirty
	l.dirty = true
	l.unsyncedBytes += n
	if !wasDirty {
		// Start the durability-lag clock health checks read (how long the
		// oldest unsynced append has waited).
		l.dirtySinceNano.Store(time.Now().UnixNano())
		signal(l.syncDirty)
	}
	if l.unsyncedBytes >= l.cfg.Durability.GroupBytes {
		signal(l.syncUrgent)
	}
}

// advanceSyncedLocked raises the durability frontier and resolves every
// waiter it now covers.
func (l *Log) advanceSyncedLocked(next int64) {
	if next > l.syncedNext {
		l.syncedNext = next
	}
	if len(l.syncWaiters) == 0 {
		return
	}
	kept := l.syncWaiters[:0]
	for _, w := range l.syncWaiters {
		if w.next <= l.syncedNext {
			w.ch <- nil
		} else {
			kept = append(kept, w)
		}
	}
	l.syncWaiters = kept
}

// failSyncWaitersLocked resolves every pending waiter with err.
func (l *Log) failSyncWaitersLocked(err error) {
	for _, w := range l.syncWaiters {
		w.ch <- err
	}
	l.syncWaiters = nil
}

// startCommitter launches the background sync goroutine the policy needs.
func (l *Log) startCommitter() {
	switch l.cfg.Durability.Policy {
	case SyncGroup:
		l.syncWG.Add(1)
		go l.groupLoop()
	case SyncInterval:
		l.syncWG.Add(1)
		go l.intervalLoop()
	}
}

// stopCommitter stops the background sync goroutine and waits for it.
func (l *Log) stopCommitter() {
	l.stopOnce.Do(func() { close(l.stopSync) })
	l.syncWG.Wait()
}

// groupLoop is the SyncGroup committer. One timer holds the time of the
// pending sync: the first unsynced append sets it Interval away, a parked
// SyncWait pulls it in to GroupWindow from now, and GroupBytes of unsynced
// data fire it at once. One fdatasync then covers every append that landed
// before it. A signal left over from before a sync only arms a timer whose
// syncNow finds the log clean.
func (l *Log) groupLoop() {
	defer l.syncWG.Done()
	d := l.cfg.Durability
	t := time.NewTimer(d.Interval)
	t.Stop()
	defer t.Stop()
	var due time.Time // when the pending sync fires; zero when none is pending
	arm := func(wait time.Duration) {
		if at := time.Now().Add(wait); due.IsZero() || at.Before(due) {
			due = at
			t.Reset(wait)
		}
	}
	for {
		select {
		case <-l.stopSync:
			return
		case <-l.syncDirty:
			arm(d.Interval)
			continue
		case <-l.syncKick:
			arm(d.GroupWindow)
			continue
		case <-l.syncUrgent:
			t.Stop()
		case <-t.C:
		}
		due = time.Time{}
		l.syncNow()
	}
}

// intervalLoop is the SyncInterval committer.
func (l *Log) intervalLoop() {
	defer l.syncWG.Done()
	t := time.NewTicker(l.cfg.Durability.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.syncNow()
		}
	}
}

// checkpointInterval is how often a committer refreshes the recovery
// accelerators (checkpoint file and producer snapshot). Recovery after a
// crash CRC-scans and header-walks at most this much appended data beyond
// them, plus whatever was never synced.
const checkpointInterval = time.Second

// syncNow is the committers' group commit: when the log is dirty, one file
// sync — the fdatasync of the active segment, which covers every batch since
// the last sync — stands between taking the frontier and releasing the acks
// parked behind it, plus one per segment sealed since the last commit (a roll
// leaves the sealed file's sync to here). The syncs run outside l.mu: appends
// and rolls proceed concurrently, and anything they add is simply not covered
// until the next sync.
func (l *Log) syncNow() error { return l.commit(false) }

// Flush fsyncs every segment holding unsynced appends, advances the
// durability frontier and — under an explicit sync policy — writes the
// checkpoint and producer snapshot now instead of on their interval.
func (l *Log) Flush() error { return l.commit(true) }

// commit syncs the segments that hold offsets at or above the durability
// frontier — the sealed ones a roll left behind first, the active one last —
// and only then releases the sync waiters it covers: no frontier moves and no
// checkpoint names a segment while an older one is unsynced. The checkpoint
// and the producer snapshot are recovery accelerators, not part of the ack:
// they are written after the waiters are released, and only when forced,
// after a segment roll, or once per checkpointInterval — so the producer
// table is encoded only when it is about to be written. A stale checkpoint
// or snapshot costs recovery a longer scanned tail, never data.
func (l *Log) commit(force bool) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if !l.dirty && !force {
		l.mu.Unlock()
		return nil
	}
	a := l.active()
	files := l.unsyncedFilesLocked()
	cp := checkpoint{base: a.baseOffset, pos: a.size, next: a.nextOffset}
	gen := l.truncGen
	batched := l.unsyncedBytes
	checkpointing := l.cfg.Durability.Policy != SyncNone && (force || l.checkpointDue ||
		time.Since(time.Unix(0, l.checkpointNano.Load())) >= checkpointInterval)
	var psnap []byte
	if checkpointing {
		psnap = l.snapshotProducersLocked()
		l.checkpointDue = false
	}
	l.dirty = false
	l.dirtySinceNano.Store(0)
	l.unsyncedBytes = 0
	l.mu.Unlock()
	if l.met != nil && batched > 0 {
		// One commit covers this many appended bytes: the group-commit
		// batch size distribution.
		l.met.groupBytes.Observe(batched)
	}

	err := l.syncFiles(files)
	l.mu.Lock()
	if stale := l.truncGen != gen; stale || err != nil {
		// A failed sync, or segment surgery racing it (a truncate may have
		// closed a file under us): nothing captured above is a frontier. The
		// data is still owed a sync — retry on the Interval cadence — and
		// only a real failure is surfaced to the parked acks.
		l.dirty = true
		l.dirtySinceNano.CompareAndSwap(0, time.Now().UnixNano())
		if !stale {
			l.failSyncWaitersLocked(err)
		}
		signal(l.syncDirty)
		l.mu.Unlock()
		return err
	}
	l.advanceSyncedLocked(cp.next)
	l.mu.Unlock()
	if checkpointing {
		l.persistCheckpoint(cp, gen)
		// The producer snapshot describes the same synced prefix, so
		// recovery can seed the dedup table and rescan only the tail
		// beyond it.
		l.persistProducerSnapshot(psnap, gen)
	}
	return nil
}

// CheckpointAge reports how long ago the on-disk checkpoint was written;
// ok is false when there is none (SyncNone, or a truncation removed it and
// the next periodic write has not happened yet).
func (l *Log) CheckpointAge(now time.Time) (age time.Duration, ok bool) {
	n := l.checkpointNano.Load()
	return ageSince(n, now), n != 0
}

// DurabilityLag reports how long the oldest unsynced append has been waiting
// for an fsync: 0 when everything appended is durable. Health checks alarm
// on this exceeding the configured sync cadence by a wide margin.
func (l *Log) DurabilityLag(now time.Time) time.Duration {
	return ageSince(l.dirtySinceNano.Load(), now)
}

// ageSince is now minus a recorded instant, 0 when none was recorded (or the
// caller's clock runs behind the one that recorded it).
func ageSince(nano int64, now time.Time) time.Duration {
	if d := now.Sub(time.Unix(0, nano)); nano != 0 && d > 0 {
		return d
	}
	return 0
}

// Checkpoint file: the persisted durability frontier. Format is a single
// line "liquidcp v1 <segmentBase> <syncedBytes> <nextOffset> <crc32>"; the
// CRC self-guards the checkpoint against its own torn write (an invalid
// checkpoint just degrades recovery to a full scan, never to data loss).
const checkpointFile = "checkpoint"

type checkpoint struct {
	base int64 // active segment base offset at sync time
	pos  int64 // bytes of that segment covered by the sync
	next int64 // log end offset covered by the sync
}

func checkpointCRC(cp checkpoint) uint32 {
	return crc32.ChecksumIEEE([]byte(fmt.Sprintf("%d %d %d", cp.base, cp.pos, cp.next)))
}

func writeCheckpointFile(dir string, cp checkpoint) error {
	payload := fmt.Sprintf("liquidcp v1 %d %d %d %d\n", cp.base, cp.pos, cp.next, checkpointCRC(cp))
	tmp := filepath.Join(dir, checkpointFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(payload); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, checkpointFile))
}

func readCheckpointFile(dir string) (checkpoint, bool) {
	b, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		return checkpoint{}, false
	}
	var cp checkpoint
	var crc uint32
	if _, err := fmt.Sscanf(string(b), "liquidcp v1 %d %d %d %d", &cp.base, &cp.pos, &cp.next, &crc); err != nil {
		return checkpoint{}, false
	}
	if crc != checkpointCRC(cp) || cp.base < 0 || cp.pos < 0 || cp.next < cp.base {
		return checkpoint{}, false
	}
	return cp, true
}

// persistCheckpoint writes the checkpoint file unless a truncation (or
// close) has invalidated the snapshot since it was taken — a stale
// checkpoint would let recovery trust bytes a truncate has since rewritten.
// Never call while holding l.mu (cpMu is acquired before l.mu here).
func (l *Log) persistCheckpoint(cp checkpoint, gen uint64) error {
	if hook := l.cfg.Durability.CheckpointHook; hook != nil {
		if err := hook(); err != nil {
			return err
		}
	}
	l.cpMu.Lock()
	defer l.cpMu.Unlock()
	l.mu.RLock()
	stale := l.truncGen != gen
	l.mu.RUnlock()
	if stale {
		return nil
	}
	if err := writeCheckpointFile(l.dir, cp); err != nil {
		return err
	}
	l.checkpointNano.Store(time.Now().UnixNano())
	return nil
}

// CheckpointInfo is the persisted durability frontier of a log directory.
type CheckpointInfo struct {
	SegmentBase int64 // active segment base at the recorded sync
	SyncedBytes int64 // bytes of that segment covered
	SyncedNext  int64 // log end offset covered
}

// ReadCheckpoint reads dir's durability checkpoint, reporting ok=false when
// absent or invalid (recovery then falls back to a full CRC scan).
func ReadCheckpoint(dir string) (CheckpointInfo, bool) {
	cp, ok := readCheckpointFile(dir)
	if !ok {
		return CheckpointInfo{}, false
	}
	return CheckpointInfo{SegmentBase: cp.base, SyncedBytes: cp.pos, SyncedNext: cp.next}, true
}

// CrashClose closes the log's file descriptors without flushing anything —
// the shutdown a power loss or SIGKILL produces, for recovery tests. Buffers
// the OS holds are NOT discarded (Go cannot drop the page cache), so tests
// pair this with file surgery that truncates back to the synced frontier.
// The instance is unusable afterwards.
func (l *Log) CrashClose() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.stopCommitter()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failSyncWaitersLocked(ErrClosed)
	var first error
	for _, s := range l.segments {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
