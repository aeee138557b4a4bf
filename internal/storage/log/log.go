package log

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage/record"
)

// Config controls a partition log. The zero value selects defaults suitable
// for tests; production-style deployments override segment and retention
// settings per topic (paper §4.1 "log retention").
type Config struct {
	// SegmentBytes is the roll size for segment files.
	SegmentBytes int64
	// IndexIntervalBytes is the spacing of sparse index entries.
	IndexIntervalBytes int64
	// RetentionMs bounds data age; segments whose newest record is older
	// are deleted. -1 disables time retention.
	RetentionMs int64
	// RetentionBytes bounds total log size; oldest segments are deleted
	// while the log exceeds it. -1 disables size retention.
	RetentionBytes int64
	// MaxBatchBytes bounds the batches the record-level Append encodes (a
	// single record larger than the limit still becomes one oversized
	// batch). It bounds nothing else: AppendSealed and AppendBatch store
	// the batch they are handed whatever its size, and Append's only
	// non-test callers are experiments E2 and E4 in internal/bench.
	MaxBatchBytes int64
	// Compacted marks the log for key-based compaction instead of
	// deletion-based retention.
	Compacted bool
	// Tiered marks the log as the hot tier of a tiered partition: the
	// retention settings above become the HOT horizon (local bytes/age),
	// and EnforceRetention refuses to delete a segment until the tier
	// engine has raised the offload guard past it (SetOffloadedTo) — local
	// deletion must never outrun the offloader, or records acked below the
	// high watermark could vanish from both tiers.
	Tiered bool
	// Durability is the WAL sync discipline: when appends are fsynced,
	// whether acks wait for group commit, and checkpointed recovery. The
	// zero value (SyncNone) keeps the legacy OS-buffered behaviour.
	Durability Durability
	// Metrics, when set, receives WAL durability metrics (fsync count and
	// latency, group-commit batch size distribution). The counters are
	// process-wide: every log sharing the registry feeds the same series.
	Metrics *metrics.Registry
}

// Defaults used when Config fields are zero.
const (
	DefaultSegmentBytes       = 32 << 20 // 32 MiB
	DefaultIndexIntervalBytes = 4096
	DefaultRetentionMs        = 7 * 24 * 3600 * 1000 // one week
	DefaultRetentionBytes     = int64(-1)
	DefaultMaxBatchBytes      = 32 << 10 // 32 KiB
)

func (c Config) withDefaults() Config {
	if c.SegmentBytes == 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	if c.IndexIntervalBytes == 0 {
		c.IndexIntervalBytes = DefaultIndexIntervalBytes
	}
	if c.RetentionMs == 0 {
		c.RetentionMs = DefaultRetentionMs
	}
	if c.RetentionBytes == 0 {
		c.RetentionBytes = DefaultRetentionBytes
	}
	if c.MaxBatchBytes == 0 {
		c.MaxBatchBytes = DefaultMaxBatchBytes
	}
	c.Durability = c.Durability.withDefaults()
	// Append's batches stay well below the segment size, so a log fed
	// records rolls at about SegmentBytes.
	if quarter := c.SegmentBytes / 4; c.MaxBatchBytes > quarter {
		c.MaxBatchBytes = quarter
		if c.MaxBatchBytes < 1024 {
			c.MaxBatchBytes = 1024
		}
	}
	return c
}

// Log is a single partition's commit log: an ordered list of segments, the
// last of which is active for appends. All methods are safe for concurrent
// use.
type Log struct {
	dir string
	cfg Config

	mu          sync.RWMutex
	segments    []*segment // ascending base offset; last is active
	startOffset int64      // first locally retained offset
	offloadedTo int64      // tiered logs: offsets below this are durably tiered
	closed      bool

	// producers is the idempotent-produce dedup table, maintained from the
	// producer stamps on appended batches (guarded by mu).
	producers *producerState

	// Durability state (guarded by mu unless noted).
	syncedNext    int64         // offsets below this are durable
	dirty         bool          // appends landed that no sync has covered
	unsyncedBytes int64         // bytes appended since the last sync
	syncWaiters   []syncWaiter  // acks parked behind the frontier (SyncGroup)
	truncGen      uint64        // bumped by segment surgery; stales checkpoints
	checkpointDue bool          // a segment rolled: the next sync checkpoints
	syncDirty     chan struct{} // group committer: the log turned dirty
	syncKick      chan struct{} // group committer: a SyncWait parked
	syncUrgent    chan struct{} // group committer: GroupBytes are unsynced
	stopSync      chan struct{}
	stopOnce      sync.Once
	syncWG        sync.WaitGroup
	syncMu        sync.Mutex // serialises commits, and retention against them
	cpMu          sync.Mutex // serialises checkpoint file writes/removal

	// met holds pre-resolved durability metrics (nil when Config.Metrics is
	// unset). checkpointNano is when the on-disk checkpoint was written (0:
	// there is none) and dirtySinceNano when the oldest unsynced append
	// landed (0: clean); atomics, so health checks never take l.mu.
	met            *logMetrics
	checkpointNano atomic.Int64
	dirtySinceNano atomic.Int64
}

// logMetrics pre-resolves the WAL durability series so hot paths skip the
// registry map lookups.
type logMetrics struct {
	fsyncs     *metrics.Counter
	fsyncNs    *metrics.Histogram
	groupBytes *metrics.Histogram
}

// Open opens or creates the log in dir. When a valid durability checkpoint
// exists, recovery trusts the synced prefix it describes (segments sealed
// before the checkpointed one were synced before it was written; the
// checkpointed segment is synced up to the recorded byte position) and
// CRC-scans only the tail beyond it — the rest of that segment and every
// later one — truncating torn writes. Without a checkpoint — or on compacted
// logs, whose segment bytes are rewritten in place — every batch is
// CRC-verified. The log ends where a segment lost its tail: the segments
// after it are removed, since nothing synced can lie beyond unsynced bytes
// and a log must not resume past a hole.
func Open(dir string, cfg Config) (*Log, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("log: mkdir: %w", err)
	}
	l := &Log{
		dir:        dir,
		cfg:        cfg,
		producers:  newProducerState(),
		syncDirty:  make(chan struct{}, 1),
		syncKick:   make(chan struct{}, 1),
		syncUrgent: make(chan struct{}, 1),
		stopSync:   make(chan struct{}),
	}
	if cfg.Metrics != nil {
		l.met = &logMetrics{
			fsyncs:     cfg.Metrics.Counter("log.fsync.count"),
			fsyncNs:    cfg.Metrics.Histogram("log.fsync.ns"),
			groupBytes: cfg.Metrics.Histogram("log.groupcommit.batch.bytes"),
		}
	}

	cp, cpOK := readCheckpointFile(dir)
	if cfg.Compacted {
		cpOK = false
	}
	bases, err := listSegmentBases(dir)
	if err != nil {
		return nil, err
	}
	torn := false
	for i, base := range bases {
		if n := len(l.segments); n > 0 && (torn || !cfg.Compacted && base != l.segments[n-1].nextOffset) {
			// The previous segment lost its tail — torn, or cut clean so that
			// this one no longer continues it (only compaction leaves offset
			// gaps between segments).
			for _, later := range bases[i:] {
				if err := os.Remove(segmentPath(dir, later)); err != nil {
					return nil, fmt.Errorf("log: drop segment beyond a lost tail: %w", err)
				}
			}
			break
		}
		trusted := int64(0)
		if cpOK {
			switch {
			case base < cp.base:
				trusted = math.MaxInt64 // sealed and synced before the checkpoint
			case base == cp.base:
				trusted = cp.pos
			}
		}
		var s *segment
		if s, torn, err = openSegment(dir, base, cfg.IndexIntervalBytes, trusted); err != nil {
			return nil, err
		}
		l.segments = append(l.segments, s)
	}
	if len(l.segments) == 0 {
		s, err := createSegment(dir, 0)
		if err != nil {
			return nil, err
		}
		l.segments = []*segment{s}
	}
	l.startOffset = l.segments[0].baseOffset
	// Look for a persisted start offset (advanced by retention past
	// segment bases when compaction ran).
	if so, err := readStartOffset(dir); err == nil && so > l.startOffset {
		l.startOffset = so
	}
	if cfg.Durability.Policy != SyncNone {
		// Make the recovered state durable before serving: the tail beyond
		// the old checkpoint survived the crash, but nothing proves it was
		// ever synced — syncing every segment the checkpoint did not vouch
		// for, plus a fresh checkpoint, re-establishes the invariant that
		// everything on disk is the frontier.
		for _, s := range l.segments {
			if cpOK && s.baseOffset < cp.base {
				continue
			}
			if err := l.syncFile(s.file); err != nil {
				return nil, fmt.Errorf("log: sync recovered state: %w", err)
			}
		}
		a := l.active()
		if err := writeCheckpointFile(dir, checkpoint{base: a.baseOffset, pos: a.size, next: a.nextOffset}); err != nil {
			return nil, fmt.Errorf("log: write checkpoint: %w", err)
		}
		l.checkpointNano.Store(time.Now().UnixNano())
	}
	l.syncedNext = l.active().nextOffset
	// Rebuild the producer table. A valid snapshot (written alongside the
	// checkpoint) seeds the state it covered; batch headers beyond its
	// coverage — the recovered unsynced tail — are rescanned. Without a
	// usable snapshot, or on compacted logs whose bytes are rewritten in
	// place, the whole local log is header-walked.
	rebuildFrom := l.startOffset
	if ps, psNext, ok := readProducerSnapshotFile(dir); ok && !cfg.Compacted && psNext <= l.active().nextOffset {
		l.producers = ps
		rebuildFrom = psNext
	}
	l.rebuildProducersLocked(rebuildFrom)
	l.startCommitter()
	return l, nil
}

// listSegmentBases returns sorted segment base offsets found in dir.
func listSegmentBases(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("log: readdir: %w", err)
	}
	var bases []int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		base, err := strconv.ParseInt(strings.TrimSuffix(name, segmentSuffix), 10, 64)
		if err != nil {
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

const startOffsetFile = "start-offset"

func readStartOffset(dir string) (int64, error) {
	b, err := os.ReadFile(filepath.Join(dir, startOffsetFile))
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
}

func writeStartOffset(dir string, v int64) error {
	return os.WriteFile(filepath.Join(dir, startOffsetFile), []byte(strconv.FormatInt(v, 10)), 0o644)
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Config returns the effective configuration.
func (l *Log) Config() Config { return l.cfg }

// NextOffset returns the offset the next appended record will receive (the
// log end offset).
func (l *Log) NextOffset() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.active().nextOffset
}

// StartOffset returns the first locally retained offset (the local log
// start; on a tiered log, older offsets may still be served from the cold
// tier).
func (l *Log) StartOffset() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.startOffset
}

// SetOffloadedTo raises the offload guard: offsets below the given offset
// are durably tiered (segment uploaded and manifest committed), so hot
// retention may delete their local copies. The guard is monotonic; lower
// values are ignored. Leaders raise it after each manifest commit;
// followers adopt the leader's local log start from fetch responses (the
// leader only advances it past offloaded data).
func (l *Log) SetOffloadedTo(offset int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if offset > l.offloadedTo {
		l.offloadedTo = offset
	}
}

// OffloadedTo returns the current offload guard.
func (l *Log) OffloadedTo() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.offloadedTo
}

// Size returns the total byte size of all segments.
func (l *Log) Size() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var n int64
	for _, s := range l.segments {
		n += s.size
	}
	return n
}

// SegmentCount returns the number of segment files.
func (l *Log) SegmentCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.segments)
}

func (l *Log) active() *segment { return l.segments[len(l.segments)-1] }

// encBufPool recycles batch-encode buffers on the append hot path. Encoded
// batches live only until the segment write returns, so one pooled buffer
// per in-flight append removes the per-batch allocation entirely.
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// maxPooledEncBuf caps the capacity returned to encBufPool, so one
// oversized batch (a single record beyond MaxBatchBytes) cannot pin a huge
// buffer in the pool for the process lifetime.
const maxPooledEncBuf = 1 << 20

func putEncBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledEncBuf {
		encBufPool.Put(bp)
	}
}

// Append assigns consecutive offsets to records, stamps zero timestamps
// with now (log-append time), encodes them (through a pooled buffer) as
// batches of at most MaxBatchBytes, and appends them. It returns the base
// offset assigned to the first record. Brokers append sealed batches
// (AppendSealed, AppendBatch); Append serves tests and experiments E2 and E4
// in internal/bench.
func (l *Log) Append(records []record.Record) (int64, error) {
	if len(records) == 0 {
		return 0, fmt.Errorf("log: empty append")
	}
	now := time.Now().UnixMilli()
	for i := range records {
		if records[i].Timestamp == 0 {
			records[i].Timestamp = now
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	bp := encBufPool.Get().(*[]byte)
	defer putEncBuf(bp)
	base := l.active().nextOffset
	next := base
	for start := 0; start < len(records); {
		end := start + 1
		size := estimateRecordSize(&records[start])
		for end < len(records) {
			n := estimateRecordSize(&records[end])
			if size+n > l.cfg.MaxBatchBytes {
				break
			}
			size += n
			end++
		}
		batch := record.EncodeBatchInto((*bp)[:0], next, records[start:end])
		*bp = batch[:0] // retain grown capacity for the next iteration
		info, err := record.PeekBatchInfo(batch)
		if err != nil {
			return 0, err
		}
		if err := l.appendLocked(batch, info); err != nil {
			return 0, err
		}
		next += int64(end - start)
		start = end
	}
	return base, nil
}

// AppendSealed appends an already-encoded batch as the partition leader:
// the batch's base offset is restamped in place to the current log end
// offset (record offsets inside are deltas and shift with it) and the bytes
// are stored verbatim, whatever their size and codec — never inflated, split
// or re-encoded here, which is what lets the broker serve the producer's
// exact bytes to followers, consumers and the archiver, and keeps one
// producer batch one entry of the dedup table. Segment roll, not batch size,
// bounds segment size: a batch larger than SegmentBytes gets a segment to
// itself. The caller is expected to have validated the batch
// (record.ValidateBatch); offsets and timestamps inside are the producer's.
// It returns the assigned base offset.
func (l *Log) AppendSealed(batch []byte) (int64, error) {
	info, err := record.PeekBatchInfo(batch)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if info.Idempotent() {
		// Leader-side dedup: a retried batch is answered with its original
		// offsets (as a *DupSequenceError, which the broker treats as
		// success), an unexpected sequence or a fenced epoch is rejected.
		dup, err := l.producers.check(info)
		if err != nil {
			return 0, err
		}
		if dup != nil {
			return 0, dup
		}
	}
	base := l.active().nextOffset
	if err := record.RestampBase(batch, base); err != nil {
		return 0, err
	}
	info.LastOffset += base - info.BaseOffset
	info.BaseOffset = base
	if err := l.appendLocked(batch, info); err != nil {
		return 0, err
	}
	return base, nil
}

// estimateRecordSize approximates a record's encoded footprint.
func estimateRecordSize(r *record.Record) int64 {
	n := int64(len(r.Key) + len(r.Value) + 64)
	for i := range r.Headers {
		n += int64(len(r.Headers[i].Key) + len(r.Headers[i].Value) + 8)
	}
	return n
}

// AppendBatch appends an already-encoded batch, preserving its offsets.
// The batch base offset must be at or beyond the current log end offset;
// gaps are allowed (they arise when replicating a compacted log). This is
// the path replica fetchers use.
func (l *Log) AppendBatch(batch []byte) error {
	info, err := record.PeekBatchInfo(batch)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if info.BaseOffset < l.active().nextOffset {
		return fmt.Errorf("%w: batch base %d below log end %d", ErrNonMonotonic, info.BaseOffset, l.active().nextOffset)
	}
	return l.appendLocked(batch, info)
}

// appendLocked rolls the active segment if needed and writes the batch (info
// is its parsed header), then applies the durability policy: SyncBatch syncs
// inline, SyncGroup tells the group committer the log is dirty, the rest
// leave the bytes for the background sync (or the OS). A roll never syncs:
// the sealed segment holds offsets at or above the durability frontier
// exactly when a sync still owes it bytes, and that is how the next sync
// finds it (unsyncedFilesLocked) — a commit visits every such segment, oldest
// first, outside l.mu, before the frontier moves or a checkpoint is written,
// so checkpointed recovery may still trust whole segments below the
// checkpointed one. Under SyncNone nobody owes anything and the OS flushes
// sealed segments like the active one. A roll makes the next sync move the
// checkpoint into the new segment, so a stale checkpoint never costs
// recovery more than one segment's scan.
func (l *Log) appendLocked(batch []byte, info record.BatchInfo) error {
	a := l.active()
	if a.size > 0 && a.size+int64(len(batch)) > l.cfg.SegmentBytes {
		ns, err := createSegment(l.dir, a.nextOffset)
		if err != nil {
			return err
		}
		l.segments = append(l.segments, ns)
		l.checkpointDue = true
		a = ns
	}
	if err := a.append(batch, info, l.cfg.IndexIntervalBytes); err != nil {
		return err
	}
	// Every successful append feeds the producer table, whatever the path —
	// leader produce, follower replication — so replicas converge on the
	// same dedup state as the leader without any extra replication traffic.
	l.producers.note(info)
	l.noteDirtyLocked(int64(len(batch)))
	if l.cfg.Durability.Policy == SyncBatch {
		if err := l.syncFiles(l.unsyncedFilesLocked()); err != nil {
			return err
		}
		l.dirty = false
		l.dirtySinceNano.Store(0)
		l.unsyncedBytes = 0
		l.advanceSyncedLocked(a.nextOffset)
	}
	return nil
}

// OffsetForTimestamp returns the offset of the first record whose timestamp
// is at or after ts, or the log end offset if no such record exists.
func (l *Log) OffsetForTimestamp(ts int64) (int64, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return 0, ErrClosed
	}
	for _, s := range l.segments {
		if s.maxTS < ts || s.size == 0 {
			continue
		}
		// Look in this segment for the first qualifying record.
		data := make([]byte, s.size)
		if _, err := s.file.ReadAt(data, 0); err != nil {
			return 0, err
		}
		found, err := record.OffsetForTimestamp(data, ts)
		if err != nil {
			return 0, err
		}
		if found >= 0 {
			if found < l.startOffset {
				return l.startOffset, nil
			}
			return found, nil
		}
	}
	return l.active().nextOffset, nil
}

// Truncate removes all records at offsets >= offset. Used by followers to
// reconcile divergent suffixes after leader changes. The persisted
// checkpoint is invalidated (removed) — its byte positions describe the
// pre-truncation file — and any acks parked beyond the cut are failed.
func (l *Log) Truncate(offset int64) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if offset >= l.active().nextOffset {
		l.mu.Unlock()
		return nil
	}
	err := l.truncateLocked(offset)
	l.truncGen++
	// The truncated suffix may hold the producer table's newest entries;
	// rebuild the table from the surviving log so a duplicate arriving
	// after the cut is still judged against what the log actually holds.
	l.producers.reset()
	l.rebuildProducersLocked(l.startOffset)
	if l.syncedNext > l.active().nextOffset {
		l.syncedNext = l.active().nextOffset
	}
	kept := l.syncWaiters[:0]
	for _, w := range l.syncWaiters {
		if w.next > l.active().nextOffset {
			w.ch <- errSyncTruncated
		} else {
			kept = append(kept, w)
		}
	}
	l.syncWaiters = kept
	l.mu.Unlock()
	// Remove the now-stale checkpoint outside l.mu (cpMu orders before
	// l.mu everywhere else). A concurrent syncNow either saw the gen bump
	// and skipped its write, or wrote first and is deleted here — with no
	// checkpoint on record, the next sync rewrites it.
	l.cpMu.Lock()
	os.Remove(filepath.Join(l.dir, checkpointFile))
	os.Remove(filepath.Join(l.dir, producerSnapshotFile))
	l.checkpointNano.Store(0)
	l.cpMu.Unlock()
	return err
}

// truncateLocked performs the segment surgery of Truncate.
func (l *Log) truncateLocked(offset int64) error {
	// Drop whole segments whose base is at or beyond the cut.
	for len(l.segments) > 1 && l.segments[len(l.segments)-1].baseOffset >= offset {
		last := l.segments[len(l.segments)-1]
		if err := last.remove(); err != nil {
			return err
		}
		l.segments = l.segments[:len(l.segments)-1]
	}
	return l.active().truncateTo(offset, l.cfg.IndexIntervalBytes)
}

// EnforceRetention applies time and size retention, deleting whole inactive
// segments. It returns the number of segments deleted. now is injectable
// for tests.
func (l *Log) EnforceRetention(now time.Time) (int, error) {
	// Not while a commit is syncing: it may hold the file of a sealed
	// segment this pass deletes, and that must cost the commit nothing.
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.cfg.Compacted {
		return 0, nil // compacted logs retain by key, not by age/size
	}
	deleted := 0
	nowMs := now.UnixMilli()
	for len(l.segments) > 1 {
		oldest := l.segments[0]
		expired := l.cfg.RetentionMs > 0 && oldest.maxTS > 0 &&
			nowMs-oldest.maxTS > l.cfg.RetentionMs
		var total int64
		for _, s := range l.segments {
			total += s.size
		}
		oversize := l.cfg.RetentionBytes > 0 && total > l.cfg.RetentionBytes
		if !expired && !oversize {
			break
		}
		// Tiered logs: never delete a record the offloader has not
		// committed to the tier manifest, regardless of how far the hot
		// horizon is exceeded. Segments are ordered, so the first
		// un-offloaded one stops the pass.
		if l.cfg.Tiered && oldest.nextOffset > l.offloadedTo {
			break
		}
		if err := oldest.remove(); err != nil {
			return deleted, err
		}
		l.segments = l.segments[1:]
		l.startOffset = l.segments[0].baseOffset
		deleted++
	}
	if deleted > 0 {
		if err := writeStartOffset(l.dir, l.startOffset); err != nil {
			return deleted, err
		}
	}
	return deleted, nil
}

// Close flushes and closes all segments, stopping the background committer
// first and persisting a final checkpoint so the next Open skips the scan.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.stopCommitter()
	l.mu.Lock()
	var first error
	for _, s := range l.segments {
		if err := l.syncFile(s.file); err != nil && first == nil {
			first = err
		}
	}
	a := l.active()
	var cp *checkpoint
	var psnap []byte
	if first == nil && l.cfg.Durability.Policy != SyncNone {
		cp = &checkpoint{base: a.baseOffset, pos: a.size, next: a.nextOffset}
		psnap = l.snapshotProducersLocked()
	}
	l.advanceSyncedLocked(a.nextOffset)
	l.failSyncWaitersLocked(ErrClosed)
	for _, s := range l.segments {
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	l.mu.Unlock()
	if cp != nil {
		l.cpMu.Lock()
		writeCheckpointFile(l.dir, *cp)
		writeProducerSnapshotFile(l.dir, psnap)
		l.cpMu.Unlock()
	}
	return first
}

// SegmentInfo describes one segment for introspection and compaction.
type SegmentInfo struct {
	BaseOffset int64
	NextOffset int64
	Size       int64
	MaxTS      int64
	Active     bool
}

// Segments returns a snapshot of segment metadata.
func (l *Log) Segments() []SegmentInfo {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]SegmentInfo, len(l.segments))
	for i, s := range l.segments {
		out[i] = SegmentInfo{
			BaseOffset: s.baseOffset,
			NextOffset: s.nextOffset,
			Size:       s.size,
			MaxTS:      s.maxTS,
			Active:     i == len(l.segments)-1,
		}
	}
	return out
}

// ReadSegment returns the raw bytes of the segment with the given base
// offset. Compaction uses it to rewrite inactive segments.
func (l *Log) ReadSegment(baseOffset int64) ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, s := range l.segments {
		if s.baseOffset == baseOffset {
			data := make([]byte, s.size)
			if s.size == 0 {
				return data, nil
			}
			if _, err := s.file.ReadAt(data, 0); err != nil {
				return nil, err
			}
			return data, nil
		}
	}
	return nil, fmt.Errorf("log: no segment with base %d", baseOffset)
}

// ReplaceSegments atomically swaps the inactive segments whose base offsets
// are listed in oldBases for new segments built from the batches in
// newSegments (a list of encoded batch sequences, one per new segment, with
// ascending preserved offsets). The active segment is never replaced. This
// is the commit step of log compaction (paper §4.1).
func (l *Log) ReplaceSegments(oldBases []int64, newSegments [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(oldBases) == 0 {
		return nil
	}
	oldSet := make(map[int64]bool, len(oldBases))
	for _, b := range oldBases {
		oldSet[b] = true
	}
	if oldSet[l.active().baseOffset] {
		return fmt.Errorf("log: cannot replace active segment")
	}
	// Build replacement segment files under temporary names first.
	var newSegs []*segment
	cleanup := func() {
		for _, s := range newSegs {
			s.remove()
		}
	}
	for _, data := range newSegments {
		if len(data) == 0 {
			continue
		}
		base, err := record.PeekBaseOffset(data)
		if err != nil {
			cleanup()
			return err
		}
		tmp := filepath.Join(l.dir, fmt.Sprintf("%020d.cleaned", base))
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			cleanup()
			return err
		}
		f, err := os.OpenFile(tmp, os.O_RDWR, 0o644)
		if err != nil {
			cleanup()
			return err
		}
		s := &segment{baseOffset: base, path: tmp, file: f}
		if _, err := s.recover(l.cfg.IndexIntervalBytes, 0); err != nil {
			cleanup()
			return err
		}
		newSegs = append(newSegs, s)
	}
	// Fsync the replacement files before destroying the old segments: the
	// renames below commit them under canonical names, and a crash must not
	// be able to commit torn bytes after the originals are gone.
	for _, s := range newSegs {
		if err := s.file.Sync(); err != nil {
			cleanup()
			return err
		}
	}
	// Remove the old segments and splice in the new ones.
	var kept []*segment
	for _, s := range l.segments {
		if oldSet[s.baseOffset] {
			if err := s.remove(); err != nil {
				return err
			}
			continue
		}
		kept = append(kept, s)
	}
	// Rename cleaned files to their canonical names.
	for _, s := range newSegs {
		canonical := segmentPath(l.dir, s.baseOffset)
		if err := os.Rename(s.path, canonical); err != nil {
			return err
		}
		s.path = canonical
	}
	l.segments = append(newSegs, kept...)
	sort.Slice(l.segments, func(i, j int) bool {
		return l.segments[i].baseOffset < l.segments[j].baseOffset
	})
	// Compaction rewrote segment bytes in place; any checkpoint taken
	// before this swap must not be persisted (compacted logs also ignore
	// checkpoints at Open, this is belt-and-braces).
	l.truncGen++
	return nil
}
