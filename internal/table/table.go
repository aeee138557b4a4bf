// Package table turns a compacted feed into a queryable key→value view —
// the paper's serve-side reads (§2, §3.2): workloads like "who viewed my
// profile" need point lookups over the same lineage of data the nearline
// feed carries, not another copy loaded into a separate store.
//
// A table is declared at topic creation (TopicSpec.Table, requires
// Compacted). Each partition leader attaches a Partition materializer that
// consumes its own committed log — the byte-identical compressed-batch read
// path replication and consumers use — into an internal/state.Store through
// state.ApplyBatches, the changelog fold: nil-value records delete,
// everything else upserts, a batch applies whole or not at all, and the
// applied offset advances past each record exactly once. Reads are
// answered locally by the leader (TableGet/TableRange wire APIs) with a
// freshness watermark (applied offset vs high watermark) so callers choose
// their own staleness bound. The Router hashes keys with the producer's
// partitioner and routes each read to the broker currently serving that
// partition, retrying on moves; Table[K, V] wraps the Router in typed
// codecs.
package table

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/state"
	"repro/internal/wire"
)

// Source is one partition's committed log as the materializer consumes it.
// The broker implements it over its replica; tests implement it over an
// in-memory log.
type Source interface {
	// ReadCommitted returns encoded record batches at offset, bounded by
	// maxBytes but always containing at least one whole batch when data
	// exists. It also reports the high watermark and the earliest
	// available offset (compaction advances it past dropped prefixes).
	ReadCommitted(offset int64, maxBytes int) (data []byte, hw, earliest int64, code wire.ErrorCode)
	// Notify returns a channel closed on the next append or
	// high-watermark advance.
	Notify() <-chan struct{}
	// HighWatermark returns the partition's high watermark now.
	HighWatermark() int64
}

// readMaxBytes bounds one materializer fetch. Large enough to amortize the
// scan, small enough to keep apply latency (and thus staleness) low.
const readMaxBytes = 4 << 20

// Partition materializes one compacted-feed partition into a state.Store.
// It bootstraps from offset 0 (changelog restore) and then follows the high
// watermark continuously. Get/Range/ApproxLen may be called concurrently
// with materialization; Freshness reports how far behind the view is.
type Partition struct {
	src    Source
	store  state.Store
	onFail func(error)

	applied atomic.Int64 // next offset to apply; offsets below are in the store

	mu    sync.Mutex
	moved chan struct{} // made when a waiter asks; closed when applied moves or the loop ends

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	failure  atomic.Value // error: terminal materializer failure
}

// NewPartition starts materializing src into store and returns the running
// Partition. The Partition owns store and closes it on Close. onFail, when
// not nil, is called once, from the materializer, with its terminal
// failure; a Close is not a failure.
func NewPartition(src Source, store state.Store, onFail func(error)) *Partition {
	p := &Partition{
		src:    src,
		store:  store,
		onFail: onFail,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go p.run()
	return p
}

func (p *Partition) run() {
	defer func() {
		close(p.done)
		p.wake()
	}()
	pos := int64(0)
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		// Grab the notification channel BEFORE reading so an append that
		// lands between the read and the wait still wakes us.
		notify := p.src.Notify()
		data, hw, earliest, code := p.src.ReadCommitted(pos, readMaxBytes)
		switch code {
		case wire.ErrNone:
		case wire.ErrOffsetOutOfRange:
			if pos < earliest {
				// Compaction advanced the log start. Safe to skip: a
				// compacted log only drops records superseded by a later
				// record for the same key, so the state at earliest
				// subsumes everything below it.
				pos = earliest
				continue
			}
			p.fail(fmt.Errorf("table: offset %d beyond log (earliest %d, hw %d)", pos, earliest, hw))
			return
		default:
			// Not leader anymore, or the replica closed: terminal — the
			// broker detaches and a new leader rematerializes.
			p.fail(code.Err())
			return
		}
		if len(data) == 0 {
			p.setApplied(pos)
			select {
			case <-notify:
			case <-p.stop:
				return
			}
			continue
		}
		next, _, err := state.ApplyBatches(p.store, data, pos)
		if err != nil {
			// The store holds every batch below next: report it applied,
			// and stop rather than re-read the same bytes.
			p.setApplied(next)
			p.fail(fmt.Errorf("table: apply at offset %d: %w", next, err))
			return
		}
		pos = next
		p.setApplied(pos)
	}
}

// fail reports the materializer's terminal failure, then records it: a
// reader that sees Err set sees it reported.
func (p *Partition) fail(err error) {
	if p.onFail != nil {
		p.onFail(err)
	}
	p.failure.Store(err)
}

// setApplied publishes the applied offset, waking Applied's waiters when it
// moved.
func (p *Partition) setApplied(pos int64) {
	if p.applied.Swap(pos) != pos {
		p.wake()
	}
}

// wake closes the channel Applied handed out.
func (p *Partition) wake() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.moved != nil {
		close(p.moved)
		p.moved = nil
	}
}

// Applied returns the applied offset (next offset to materialize) and a
// channel closed when it next moves or materialization ends, so a reader
// can wait for the view to reach an offset without polling.
func (p *Partition) Applied() (int64, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.done:
		return p.applied.Load(), p.done
	default:
	}
	if p.moved == nil {
		p.moved = make(chan struct{})
	}
	return p.applied.Load(), p.moved
}

// Get returns the current value for key.
func (p *Partition) Get(key []byte) ([]byte, bool, error) {
	return p.store.Get(key)
}

// Range calls fn over keys in [from, to) in ascending order; nil bounds are
// open and fn returning false stops the scan.
func (p *Partition) Range(from, to []byte, fn func(key, value []byte) bool) error {
	return p.store.Range(from, to, fn)
}

// ApproxLen returns the approximate number of live keys. Approximate
// because materialization advances concurrently.
func (p *Partition) ApproxLen() int { return p.store.Len() }

// Freshness returns the applied offset (next offset to materialize) and the
// source's high watermark at the moment of the call. applied == hw means
// the view reflects every committed write. The HW is read live, never the
// one the materializer last observed: an acked write raises the HW before
// the materializer wakes, and a cached HW would report that stale view as
// caught up.
func (p *Partition) Freshness() (applied, hw int64) {
	applied = p.applied.Load()
	return applied, p.src.HighWatermark()
}

// Err returns the terminal materializer failure, if any.
func (p *Partition) Err() error {
	if v := p.failure.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Close stops materialization, waits for the loop to exit, and closes the
// store.
func (p *Partition) Close() error {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
	return p.store.Close()
}
