package log

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/storage/record"
)

// Producer-state table: the broker-side half of idempotent produce. Every
// batch stamped with a (producerID, epoch, baseSequence) is recorded here as
// it is appended — by the leader, by a follower replicating the leader's
// bytes, or by the recovery scan re-reading batch headers after a restart —
// so the table is always derivable from the log itself. The leader consults
// it before appending: a retried batch (same producer, same sequence range)
// is answered with the offsets of the original append instead of being
// appended again, an unexpected sequence is rejected, and a batch from a
// producer epoch older than the newest one seen is fenced.
//
// The table is bounded: per producer it keeps the current epoch and the last
// maxProducerBatches appended batches. That window is what makes retry dedup
// exact — a producer retries the batch it just sent, not one from an hour
// ago — while keeping the table O(producers), not O(log).

// maxProducerBatches is the per-producer dedup window: how many recently
// appended batches the leader can still recognise as duplicates.
const maxProducerBatches = 5

// Errors returned by AppendSealed for idempotent batches. The broker maps
// them to the corresponding wire codes.
var (
	// ErrOutOfOrderSequence rejects a batch whose base sequence is neither
	// the next expected one nor a recent duplicate.
	ErrOutOfOrderSequence = errors.New("log: out-of-order producer sequence")
	// ErrFencedEpoch rejects a batch from a producer epoch older than the
	// newest epoch seen for that producer id.
	ErrFencedEpoch = errors.New("log: producer epoch fenced")
)

// DupSequenceError reports that a batch was already appended; it carries the
// offsets assigned by the original append so the broker can ack the retry
// with them. It is success-shaped, not failure-shaped.
type DupSequenceError struct {
	BaseOffset int64
	LastOffset int64
}

func (e *DupSequenceError) Error() string {
	return fmt.Sprintf("log: duplicate producer sequence (original offsets %d..%d)", e.BaseOffset, e.LastOffset)
}

// producerBatch is one appended batch in a producer's recent window.
type producerBatch struct {
	baseSeq    int64
	lastSeq    int64
	baseOffset int64
	lastOffset int64
}

// producerEntry is the per-producer state: current epoch plus the recent
// batch window, oldest first.
type producerEntry struct {
	epoch  int32
	recent []producerBatch
}

// producerState is a partition's producer table. Guarded by the owning Log's
// mu.
type producerState struct {
	byID map[int64]*producerEntry
}

func newProducerState() *producerState {
	return &producerState{byID: make(map[int64]*producerEntry)}
}

// check classifies an incoming idempotent batch before append. It returns:
//   - (nil, nil): a new batch — append it;
//   - (*DupSequenceError, nil): a retry of an already-appended batch;
//   - (nil, ErrFencedEpoch / ErrOutOfOrderSequence): reject.
//
// An unknown producer id is always accepted: the table is a bounded cache
// rebuilt from the log, so "never seen" must mean "start tracking", not
// "reject" — otherwise a leader whose window aged out would wedge a healthy
// producer.
func (p *producerState) check(info record.BatchInfo) (*DupSequenceError, error) {
	e, ok := p.byID[info.ProducerID]
	if !ok {
		return nil, nil
	}
	switch {
	case info.ProducerEpoch < e.epoch:
		return nil, fmt.Errorf("%w: batch epoch %d, current %d", ErrFencedEpoch, info.ProducerEpoch, e.epoch)
	case info.ProducerEpoch > e.epoch:
		return nil, nil // fresh instance: note() will reset the window
	}
	if len(e.recent) == 0 {
		return nil, nil
	}
	last := e.recent[len(e.recent)-1]
	if info.BaseSequence == last.lastSeq+1 {
		return nil, nil // the expected next batch
	}
	for _, b := range e.recent {
		if b.baseSeq != info.BaseSequence {
			continue
		}
		// Sealed batches are stored whole, so a retry matches one entry or
		// none of what was appended.
		if b.lastSeq == info.LastSequence() {
			return &DupSequenceError{BaseOffset: b.baseOffset, LastOffset: b.lastOffset}, nil
		}
		return nil, fmt.Errorf("%w: sequence %d resent with %d records, appended with %d",
			ErrOutOfOrderSequence, info.BaseSequence, info.LastSequence()-info.BaseSequence+1, b.lastSeq-b.baseSeq+1)
	}
	return nil, fmt.Errorf("%w: batch sequence %d, expected %d", ErrOutOfOrderSequence, info.BaseSequence, last.lastSeq+1)
}

// note records an appended idempotent batch. Called for every append that
// carries producer stamps — leader, follower, and recovery scan — so every
// replica converges on the same table.
func (p *producerState) note(info record.BatchInfo) {
	if !info.Idempotent() {
		return
	}
	e, ok := p.byID[info.ProducerID]
	if !ok {
		e = &producerEntry{epoch: info.ProducerEpoch}
		p.byID[info.ProducerID] = e
	} else if info.ProducerEpoch > e.epoch {
		e.epoch = info.ProducerEpoch
		e.recent = e.recent[:0]
	}
	e.recent = append(e.recent, producerBatch{
		baseSeq:    info.BaseSequence,
		lastSeq:    info.LastSequence(),
		baseOffset: info.BaseOffset,
		lastOffset: info.LastOffset,
	})
	if len(e.recent) > maxProducerBatches {
		copy(e.recent, e.recent[len(e.recent)-maxProducerBatches:])
		e.recent = e.recent[:maxProducerBatches]
	}
}

// reset clears the table.
func (p *producerState) reset() {
	p.byID = make(map[int64]*producerEntry)
}

// ------------------------------------------------------------- snapshot
//
// The table is snapshotted alongside the durability checkpoint (PR 7): a
// small binary file recording the log-end offset it covers plus every
// producer entry. On Open, a valid snapshot seeds the table and only batch
// headers beyond its coverage are rescanned; without one the whole local log
// is header-walked. Like the checkpoint, the snapshot is advisory — it is
// rewritten via tmp+sync+rename and discarded wholesale on any mismatch.

const producerSnapshotFile = "producer-state"

const producerSnapshotMagic = "liquidps"

// encodeProducerSnapshot serialises the table; next is the log-end offset
// the table covers.
func encodeProducerSnapshot(p *producerState, next int64) []byte {
	size := len(producerSnapshotMagic) + 2 + 8 + 4
	for _, e := range p.byID {
		size += 8 + 4 + 2 + len(e.recent)*32
	}
	size += 4 // crc
	buf := make([]byte, 0, size)
	buf = append(buf, producerSnapshotMagic...)
	buf = binary.BigEndian.AppendUint16(buf, 1) // version
	buf = binary.BigEndian.AppendUint64(buf, uint64(next))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.byID)))
	for id, e := range p.byID {
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.epoch))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.recent)))
		for _, b := range e.recent {
			buf = binary.BigEndian.AppendUint64(buf, uint64(b.baseSeq))
			buf = binary.BigEndian.AppendUint64(buf, uint64(b.lastSeq))
			buf = binary.BigEndian.AppendUint64(buf, uint64(b.baseOffset))
			buf = binary.BigEndian.AppendUint64(buf, uint64(b.lastOffset))
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeProducerSnapshot parses a snapshot, returning the table and the
// log-end offset it covers.
func decodeProducerSnapshot(buf []byte) (*producerState, int64, error) {
	bad := errors.New("log: bad producer snapshot")
	if len(buf) < len(producerSnapshotMagic)+2+8+4+4 {
		return nil, 0, bad
	}
	body, sum := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, 0, bad
	}
	if string(body[:len(producerSnapshotMagic)]) != producerSnapshotMagic {
		return nil, 0, bad
	}
	pos := len(producerSnapshotMagic)
	if binary.BigEndian.Uint16(body[pos:]) != 1 {
		return nil, 0, bad
	}
	pos += 2
	next := int64(binary.BigEndian.Uint64(body[pos:]))
	pos += 8
	count := int(binary.BigEndian.Uint32(body[pos:]))
	pos += 4
	p := newProducerState()
	for i := 0; i < count; i++ {
		if pos+14 > len(body) {
			return nil, 0, bad
		}
		id := int64(binary.BigEndian.Uint64(body[pos:]))
		epoch := int32(binary.BigEndian.Uint32(body[pos+8:]))
		n := int(binary.BigEndian.Uint16(body[pos+12:]))
		pos += 14
		if n > maxProducerBatches || pos+n*32 > len(body) {
			return nil, 0, bad
		}
		e := &producerEntry{epoch: epoch, recent: make([]producerBatch, n)}
		for j := 0; j < n; j++ {
			e.recent[j] = producerBatch{
				baseSeq:    int64(binary.BigEndian.Uint64(body[pos:])),
				lastSeq:    int64(binary.BigEndian.Uint64(body[pos+8:])),
				baseOffset: int64(binary.BigEndian.Uint64(body[pos+16:])),
				lastOffset: int64(binary.BigEndian.Uint64(body[pos+24:])),
			}
			pos += 32
		}
		p.byID[id] = e
	}
	if pos != len(body) {
		return nil, 0, bad
	}
	return p, next, nil
}

// writeProducerSnapshotFile persists the snapshot via tmp+sync+rename, the
// same crash-safe discipline as the checkpoint file.
func writeProducerSnapshotFile(dir string, data []byte) error {
	tmp := filepath.Join(dir, producerSnapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, producerSnapshotFile))
}

// readProducerSnapshotFile loads and validates the snapshot, reporting ok
// only when it parses and checksums cleanly.
func readProducerSnapshotFile(dir string) (*producerState, int64, bool) {
	buf, err := os.ReadFile(filepath.Join(dir, producerSnapshotFile))
	if err != nil {
		return nil, 0, false
	}
	p, next, err := decodeProducerSnapshot(buf)
	if err != nil {
		return nil, 0, false
	}
	return p, next, true
}

// ProducerCount reports how many producer ids the idempotence dedup table
// currently tracks — the per-partition state a /status report surfaces.
func (l *Log) ProducerCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.producers.byID)
}

// rebuildProducersLocked reconstructs the table's view of batches at offsets
// >= from by header-walking the segment files. Recovery already truncated
// any torn tail, so every batch encountered has a sane header; headers that
// still fail to parse end the walk (they are beyond the recovered region).
func (l *Log) rebuildProducersLocked(from int64) {
	for _, s := range l.segments {
		if s.nextOffset <= from || s.size == 0 {
			continue
		}
		data := make([]byte, s.size)
		if _, err := s.file.ReadAt(data, 0); err != nil {
			return
		}
		for len(data) > 0 {
			info, err := record.PeekBatchInfo(data)
			if err != nil || info.Length > len(data) {
				return
			}
			if info.LastOffset >= from {
				l.producers.note(info)
			}
			data = data[info.Length:]
		}
	}
}

// persistProducerSnapshot writes the snapshot taken under l.mu, honouring
// the same truncation-generation staleness rule as checkpoints: if segment
// surgery happened after the snapshot was taken, it no longer describes the
// log and is skipped (the next sync writes a fresh one).
func (l *Log) persistProducerSnapshot(data []byte, gen uint64) {
	l.cpMu.Lock()
	defer l.cpMu.Unlock()
	l.mu.RLock()
	stale := l.truncGen != gen
	l.mu.RUnlock()
	if stale {
		return
	}
	writeProducerSnapshotFile(l.dir, data)
}

// snapshotProducersLocked captures the serialised table; callers pass it to
// persistProducerSnapshot outside l.mu.
func (l *Log) snapshotProducersLocked() []byte {
	return encodeProducerSnapshot(l.producers, l.active().nextOffset)
}
