// Package broker implements a messaging-layer broker: partition replicas
// with leader/follower roles, the produce path with configurable
// durability (acks 0/1/all), long-poll fetches, follower replication with
// in-sync-replica tracking and high-watermark advancement, group
// coordination and the offset manager. It is the Kafka-equivalent node of
// the paper's messaging layer (§3.1, §4.1, §4.3).
package broker

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/storage/log"
	"repro/internal/tier"
	"repro/internal/wire"
)

// tp identifies a topic partition.
type tp struct {
	topic     string
	partition int32
}

func (t tp) String() string { return fmt.Sprintf("%s-%d", t.topic, t.partition) }

// ackWaiter blocks an acks=all produce until the high watermark covers its
// batch (or a timeout/leadership change fails it).
type ackWaiter struct {
	minHW int64 // request completes when hw >= minHW
	ch    chan wire.ErrorCode
}

// followerState is the leader's view of one follower.
type followerState struct {
	leo          int64 // follower's log end offset; -1 until first fetch
	lastCaughtUp time.Time
}

// replica is one partition replica hosted by this broker. It wraps the
// partition's commit log with leadership state.
type replica struct {
	tp       tp
	log      *log.Log
	brokerID int32

	mu           sync.Mutex
	isLeader     bool
	leaderID     int32
	epoch        int32
	hw           int64
	epochStart   int64 // log end when last elected leader: see becomeLeader
	replicas     []int32
	isr          []int32
	stateVersion int64
	followers    map[int32]*followerState
	waiters      []ackWaiter
	notify       [2]chan struct{} // by readView: made when a waiter asks, closed and cleared when the view's bound moves
	closed       bool
	// tier is the partition's cold-tier engine, attached while this
	// replica leads a tiered partition (leadership hand-over recovers it
	// from the DFS manifest; followers replicate only the hot log).
	tier *tier.Partition
}

func newReplica(t tp, l *log.Log, brokerID int32) *replica {
	return &replica{
		tp:       t,
		log:      l,
		brokerID: brokerID,
		leaderID: -1,
		hw:       l.NextOffset(), // standalone logs start fully committed
	}
}

// notifyLocked wakes the long-polls of the given views: what they can read
// moved (the log end for followers, the high watermark for consumers) or the
// replica changed role. A view whose channel no one has taken since the last
// wake-up has nothing to close, and an append allocates nothing for it.
func (r *replica) notifyLocked(views ...readView) {
	for _, v := range views {
		if r.notify[v] != nil {
			close(r.notify[v])
			r.notify[v] = nil
		}
	}
}

// notifyChan returns the view's current broadcast channel, making it if no
// one holds one; it is closed the next time the view's bound moves.
func (r *replica) notifyChan(v readView) <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.notify[v] == nil {
		r.notify[v] = make(chan struct{})
	}
	return r.notify[v]
}

// highWatermark returns the current high watermark.
func (r *replica) highWatermark() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hw
}

// becomeLeader promotes the replica. Follower log-end offsets start
// unknown; the high watermark cannot advance past them until they fetch.
func (r *replica) becomeLeader(epoch int32, replicas, isr []int32, stateVersion int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	wasLeader := r.isLeader
	r.isLeader = true
	r.leaderID = r.brokerID
	r.epoch = epoch
	r.replicas = append([]int32(nil), replicas...)
	r.isr = append([]int32(nil), isr...)
	r.stateVersion = stateVersion
	if !wasLeader {
		// hw starts at what this replica learned as a follower, a fetch
		// round behind the old leader's. Once it reaches the log end at
		// election it covers all the old leader can have committed;
		// until then the committed end is not answered (KIP-207).
		r.epochStart = r.log.NextOffset()
		r.followers = make(map[int32]*followerState)
		for _, id := range replicas {
			if id != r.brokerID {
				r.followers[id] = &followerState{leo: -1}
			}
		}
		// A sole-survivor leader commits everything it has.
		r.maybeAdvanceHWLocked()
	}
	r.notifyLocked(viewCommitted, viewReplication)
}

// becomeFollower demotes the replica. Outstanding acks=all produces fail
// with NotLeader so clients retry against the new leader. The local log is
// truncated to the high watermark: anything above it was never committed
// and may diverge from the new leader (paper §4.3 hand-over). Re-applied
// state under the same leader and epoch (an ISR change) cuts nothing: the
// log it has been following cannot have diverged.
func (r *replica) becomeFollower(leaderID, epoch int32, stateVersion int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stateVersion = stateVersion
	if !r.isLeader && r.leaderID == leaderID && r.epoch == epoch {
		return nil
	}
	r.isLeader = false
	r.leaderID = leaderID
	r.epoch = epoch
	r.followers = nil
	r.failWaitersLocked(wire.ErrNotLeaderForPartition)
	if err := r.log.Truncate(r.hw); err != nil {
		return err
	}
	r.notifyLocked(viewCommitted, viewReplication)
	return nil
}

// failWaitersLocked completes all pending produce waiters with an error.
func (r *replica) failWaitersLocked(code wire.ErrorCode) {
	for _, w := range r.waiters {
		w.ch <- code
	}
	r.waiters = nil
}

// maybeAdvanceHWLocked recomputes the high watermark as the minimum log end
// offset across the ISR and completes satisfied waiters.
func (r *replica) maybeAdvanceHWLocked() {
	if !r.isLeader {
		return
	}
	minLEO := r.log.NextOffset()
	for _, id := range r.isr {
		if id == r.brokerID {
			continue
		}
		f, ok := r.followers[id]
		if !ok || f.leo < 0 {
			return // an ISR member has not fetched yet: cannot advance
		}
		if f.leo < minLEO {
			minLEO = f.leo
		}
	}
	if minLEO > r.hw {
		r.hw = minLEO
		kept := r.waiters[:0]
		for _, w := range r.waiters {
			if r.hw >= w.minHW {
				w.ch <- wire.ErrNone
			} else {
				kept = append(kept, w)
			}
		}
		r.waiters = kept
		r.notifyLocked(viewCommitted)
	}
}

// durWaitLocked arranges the group-commit durability wait for an append
// ending at last: any acknowledged produce (acks != 0) defers its ack until
// the covering fdatasync lands. Returns nil when no wait is needed (policy
// without deferred acks, or already durable).
func (r *replica) durWaitLocked(last int64, acks int16) <-chan error {
	if acks == 0 {
		return nil
	}
	return r.log.SyncWait(last + 1)
}

// appendSealedAsLeader is the one leader append: client produce and the
// broker's own offsets-topic writes both arrive as already-encoded (and
// validated) batches, stored verbatim with only their base offsets
// restamped. Compressed batches stay sealed end to end: the bytes written
// here are the bytes followers replicate, consumers fetch and the archiver
// drains — zero recompression anywhere in the pipeline (paper §3.1/§4.1).
// It returns the assigned base offset, a channel that resolves when the
// batches are committed (acks=all), and a channel that resolves when they
// are durable under the log's sync policy (group commit; nil when no wait
// is needed).
//
// Idempotent batches are deduplicated against the log's producer-state
// table: a retried batch is answered with the offsets of its original
// append — reported as ErrDuplicateSequence, which clients treat as success
// — and its ack still waits until the high watermark and the durability
// frontier cover the ORIGINAL append, so a dup-acked retry carries the same
// guarantee as a first append. Out-of-order sequences and fenced epochs are
// rejected with their dedicated codes.
func (r *replica) appendSealedAsLeader(batches [][]byte, acks int16) (int64, <-chan wire.ErrorCode, <-chan error, wire.ErrorCode) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, nil, nil, wire.ErrBrokerNotAvailable
	}
	if !r.isLeader {
		return 0, nil, nil, wire.ErrNotLeaderForPartition
	}
	base := int64(-1)
	last := int64(-1)
	dups := 0
	for _, b := range batches {
		bo, err := r.log.AppendSealed(b)
		if err != nil {
			var dup *log.DupSequenceError
			switch {
			case errors.As(err, &dup):
				dups++
				if base < 0 {
					base = dup.BaseOffset
				}
				if dup.LastOffset > last {
					last = dup.LastOffset
				}
				continue
			case errors.Is(err, log.ErrFencedEpoch):
				return 0, nil, nil, wire.ErrFencedEpoch
			case errors.Is(err, log.ErrOutOfOrderSequence):
				return 0, nil, nil, wire.ErrOutOfOrderSequence
			}
			return 0, nil, nil, wire.ErrUnknown
		}
		if base < 0 {
			base = bo
		}
	}
	// Leader appends are serialised by r.mu, so the log end is exactly the
	// end of what was just written; when everything was deduplicated, the
	// waits cover the furthest original append instead.
	if dups < len(batches) {
		if end := r.log.NextOffset() - 1; end > last {
			last = end
		}
	}
	ch, code := r.finishAppendLocked(last, acks)
	if code == wire.ErrNone && dups == len(batches) {
		code = wire.ErrDuplicateSequence
	}
	return base, ch, r.durWaitLocked(last, acks), code
}

// finishAppendLocked advances the high watermark, wakes long-polls and
// arranges the acks=all waiter for an append ending at last.
func (r *replica) finishAppendLocked(last int64, acks int16) (<-chan wire.ErrorCode, wire.ErrorCode) {
	r.maybeAdvanceHWLocked()
	r.notifyLocked(viewReplication)
	if acks != -1 {
		return nil, wire.ErrNone
	}
	if r.hw >= last+1 {
		done := make(chan wire.ErrorCode, 1)
		done <- wire.ErrNone
		return done, wire.ErrNone
	}
	w := ackWaiter{minHW: last + 1, ch: make(chan wire.ErrorCode, 1)}
	r.waiters = append(r.waiters, w)
	return w.ch, wire.ErrNone
}

// appendAsFollower appends a batch replicated from the given leader (none
// when the fetch returned no data) and adopts its high watermark, bounded by
// the local log end. A response still in flight from a leader the replica
// has since stopped following is refused: the log was cut to the high
// watermark at the hand-over, and appending what the old position asked for
// would leave a gap or a deposed leader's suffix.
func (r *replica) appendAsFollower(batch []byte, leaderHW int64, leader int32) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return log.ErrClosed
	}
	if r.isLeader || r.leaderID != leader {
		return fmt.Errorf("broker: %s: stale fetch response from former leader %d", r.tp, leader)
	}
	if len(batch) > 0 {
		if err := r.log.AppendBatch(batch); err != nil {
			return err
		}
	}
	hw := leaderHW
	if leo := r.log.NextOffset(); hw > leo {
		hw = leo
	}
	if hw > r.hw {
		r.hw = hw
	}
	return nil
}

// onFollowerFetch records a follower's fetch position (it has every offset
// below fetchOffset). It returns the follower ids that just caught up to
// the log end but are outside the ISR — candidates for ISR expansion,
// which the broker commits through the coordination service.
func (r *replica) onFollowerFetch(followerID int32, fetchOffset int64, now time.Time) []int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.isLeader {
		return nil
	}
	f, ok := r.followers[followerID]
	if !ok {
		f = &followerState{leo: -1}
		r.followers[followerID] = f
	}
	if fetchOffset > f.leo {
		f.leo = fetchOffset
	}
	leo := r.log.NextOffset()
	if f.leo >= leo {
		f.lastCaughtUp = now
	}
	r.maybeAdvanceHWLocked()
	if f.leo >= r.hw && !r.inISRLocked(followerID) {
		return []int32{followerID}
	}
	return nil
}

func (r *replica) inISRLocked(id int32) bool {
	for _, x := range r.isr {
		if x == id {
			return true
		}
	}
	return false
}

// laggingFollowers returns ISR members whose last caught-up time is older
// than maxLag — candidates for ISR shrink.
func (r *replica) laggingFollowers(maxLag time.Duration, now time.Time) []int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.isLeader {
		return nil
	}
	var out []int32
	for _, id := range r.isr {
		if id == r.brokerID {
			continue
		}
		f, ok := r.followers[id]
		if !ok {
			continue
		}
		caughtUp := f.leo >= r.log.NextOffset()
		if !caughtUp && now.Sub(f.lastCaughtUp) > maxLag {
			out = append(out, id)
		}
	}
	return out
}

// followerLag is one follower's replication progress behind this leader,
// in offsets (LEO gap) and wall time (how long since it was last caught
// up). Exported on the ops plane as broker.replica.lag.{offsets,ms}.
type followerLag struct {
	id      int32
	offsets int64
	ms      int64
}

// followerLags snapshots per-follower replication lag; nil unless leading.
// Every assigned follower with fetch state is reported, in or out of the
// ISR — an out-of-ISR follower's growing lag is exactly what an operator
// needs to see.
func (r *replica) followerLags(now time.Time) []followerLag {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.isLeader {
		return nil
	}
	leo := r.log.NextOffset()
	out := make([]followerLag, 0, len(r.followers))
	for id, f := range r.followers {
		if id == r.brokerID {
			continue
		}
		lag := leo - f.leo
		if lag < 0 {
			lag = 0
		}
		var ms int64
		if lag > 0 {
			if ms = now.Sub(f.lastCaughtUp).Milliseconds(); ms < 0 {
				ms = 0
			}
		}
		out = append(out, followerLag{id: id, offsets: lag, ms: ms})
	}
	return out
}

// setISR installs a new ISR (already committed to the coordination
// service) and re-evaluates the high watermark.
func (r *replica) setISR(isr []int32, stateVersion int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.isr = append([]int32(nil), isr...)
	r.stateVersion = stateVersion
	r.maybeAdvanceHWLocked()
}

// setTier attaches (or, with nil, detaches) the cold-tier engine.
func (r *replica) setTier(t *tier.Partition) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tier = t
}

// tierPartition returns the attached cold-tier engine, or nil.
func (r *replica) tierPartition() *tier.Partition {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tier
}

// earliestAvailable returns the earliest offset a consumer can rewind to:
// the tiered-earliest when cold segments exist, the local log start
// otherwise.
func (r *replica) earliestAvailable() int64 {
	return tieredEarliest(r.tierPartition(), r.log.StartOffset())
}

func tieredEarliest(t *tier.Partition, start int64) int64 {
	if t != nil {
		if e, ok := t.Earliest(); ok && e < start {
			return e
		}
	}
	return start
}

// snapshotState returns the replica's current view for metadata responses.
func (r *replica) snapshotState() (leader int32, epoch int32, isr []int32, isLeader bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderID, r.epoch, append([]int32(nil), r.isr...), r.isLeader
}

// readView is the visibility bound of a replica read.
type readView int

const (
	// viewCommitted is the consumer view: whole batches below the high
	// watermark, with rewinds below the hot log served by the cold tier.
	viewCommitted readView = iota
	// viewReplication is the follower view: the hot log up to its end
	// (uncommitted data becomes committed exactly when followers have it).
	viewReplication
)

// readResult is what a partition read resolved to. Hot data is a range of
// the segment file for the wire layer to splice into the response frame —
// stored bytes are wire bytes — and the caller closes it; cold-tier data
// arrives in memory. earliest is the earliest offset AVAILABLE to the view
// (tiered-earliest when the partition has cold segments), so an
// out-of-range response tells the client exactly where a reset may resume.
type readResult struct {
	rng      *log.SegmentRange
	cold     []byte
	hw       int64
	earliest int64
}

// bytes materializes the result for callers that decode batches instead of
// forwarding them, releasing the range.
func (res *readResult) bytes() ([]byte, error) {
	if res.rng == nil {
		return res.cold, nil
	}
	defer res.rng.Close()
	return res.rng.Bytes()
}

// read is the replica's one read path: up to maxBytes of whole batches
// starting at offset (at least one when any is visible), bounded by view.
func (r *replica) read(offset int64, maxBytes int, view readView) (readResult, wire.ErrorCode) {
	r.mu.Lock()
	hw, isLeader, closed, t := r.hw, r.isLeader, r.closed, r.tier
	r.mu.Unlock()
	if closed {
		return readResult{}, wire.ErrBrokerNotAvailable
	}
	if !isLeader {
		return readResult{}, wire.ErrNotLeaderForPartition
	}
	start, end := r.log.StartOffset(), r.log.NextOffset()
	bound := hw
	if view == viewReplication {
		bound, t = end, nil // followers replicate only the hot log
	}
	res := readResult{hw: hw, earliest: tieredEarliest(t, start)}
	switch {
	case offset < res.earliest || offset > end:
		return res, wire.ErrOffsetOutOfRange
	case offset < start:
		// Cold read: the offset fell off the hot log but the tier holds
		// it. Everything tiered is below an old high watermark, so the
		// whole response is committed data.
		data, err := t.Read(offset, maxBytes)
		switch {
		case err == nil:
			res.cold = data
			return res, wire.ErrNone
		case errors.Is(err, tier.ErrOffsetBelowTier), errors.Is(err, tier.ErrNotCovered):
			// ErrNotCovered: between the offload frontier and the local
			// start there is no data on either tier; contiguity makes
			// this unreachable unless the manifest lags a concurrent
			// reload — have the client retry with the true earliest.
			return res, wire.ErrOffsetOutOfRange
		}
		return res, wire.ErrUnknown
	case offset >= bound:
		return res, wire.ErrNone // caught up: empty fetch
	}
	// Batch boundaries align with the high watermark because replication
	// moves whole batches; a batch straddling it resolves to an empty range.
	rng, err := r.log.ReadRange(offset, maxBytes, bound)
	switch {
	case err == nil:
		res.rng = rng
		return res, wire.ErrNone
	case errors.Is(err, log.ErrOffsetOutOfRange):
		return res, wire.ErrOffsetOutOfRange // retention moved the start mid-read
	}
	return res, wire.ErrUnknown
}

// close marks the replica closed and fails outstanding waiters.
func (r *replica) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	r.failWaitersLocked(wire.ErrBrokerNotAvailable)
	r.notifyLocked(viewCommitted, viewReplication)
	return r.log.Close()
}
