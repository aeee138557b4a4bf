package broker

import (
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// fetcherManager runs one replicaFetcher per source broker this broker
// follows. A follower broker acts as a normal consumer of its leader,
// appending fetched batches to its local log (paper §4.3).
type fetcherManager struct {
	b *Broker

	mu       sync.Mutex
	fetchers map[int32]*replicaFetcher
	stopped  bool // stopAll ran: a state event still in flight starts nothing
}

func newFetcherManager(b *Broker) *fetcherManager {
	return &fetcherManager{b: b, fetchers: make(map[int32]*replicaFetcher)}
}

// assign routes a partition's replication to the given leader, removing any
// previous assignment.
func (m *fetcherManager) assign(t tp, leaderID int32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return
	}
	for id, f := range m.fetchers {
		if id != leaderID {
			f.removePartition(t)
		}
	}
	f, ok := m.fetchers[leaderID]
	if !ok {
		f = newReplicaFetcher(m.b, leaderID)
		m.fetchers[leaderID] = f
		f.start()
	}
	f.addPartition(t)
}

// remove stops replicating a partition (this broker became its leader, or
// the partition is gone).
func (m *fetcherManager) remove(t tp) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.fetchers {
		f.removePartition(t)
	}
}

// stopAll terminates every fetcher.
func (m *fetcherManager) stopAll() {
	m.mu.Lock()
	fetchers := make([]*replicaFetcher, 0, len(m.fetchers))
	for _, f := range m.fetchers {
		fetchers = append(fetchers, f)
	}
	m.fetchers = make(map[int32]*replicaFetcher)
	m.stopped = true
	m.mu.Unlock()
	for _, f := range fetchers {
		f.stopAndWait()
	}
}

// replicaFetcher pulls batches for a set of partitions from one leader.
type replicaFetcher struct {
	b        *Broker
	leaderID int32

	mu           sync.Mutex
	fetchOffsets map[tp]int64 // next offset to request
	stopped      bool

	stop chan struct{}
	done chan struct{}
}

func newReplicaFetcher(b *Broker, leaderID int32) *replicaFetcher {
	return &replicaFetcher{
		b:            b,
		leaderID:     leaderID,
		fetchOffsets: make(map[tp]int64),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
}

func (f *replicaFetcher) start() { go f.run() }

func (f *replicaFetcher) stopAndWait() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		<-f.done
		return
	}
	f.stopped = true
	f.mu.Unlock()
	close(f.stop)
	<-f.done
}

func (f *replicaFetcher) addPartition(t tp) {
	r := f.b.getReplica(t)
	if r == nil {
		return
	}
	f.mu.Lock()
	f.fetchOffsets[t] = r.log.NextOffset()
	f.mu.Unlock()
}

func (f *replicaFetcher) removePartition(t tp) {
	f.mu.Lock()
	delete(f.fetchOffsets, t)
	f.mu.Unlock()
}

// snapshot returns the current fetch positions.
func (f *replicaFetcher) snapshot() map[tp]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[tp]int64, len(f.fetchOffsets))
	for k, v := range f.fetchOffsets {
		out[k] = v
	}
	return out
}

func (f *replicaFetcher) run() {
	defer close(f.done)
	var conn *client.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	backoff := func() bool {
		select {
		case <-f.stop:
			return false
		case <-f.b.after(50 * time.Millisecond):
			return true
		}
	}
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		parts := f.snapshot()
		if len(parts) == 0 {
			if !backoff() {
				return
			}
			continue
		}
		if conn == nil || conn.Closed() {
			addr, ok := f.b.brokerAddr(f.leaderID)
			if !ok {
				if !backoff() {
					return
				}
				continue
			}
			c, err := client.DialWith(f.b.cfg.Dial, addr, f.b.clientID(), time.Second)
			if err != nil {
				if !backoff() {
					return
				}
				continue
			}
			conn = c
		}
		req := &wire.FetchRequest{
			ReplicaID: f.b.cfg.ID,
			MaxWaitMs: f.b.cfg.ReplicaFetchWaitMs,
			MinBytes:  1,
			MaxBytes:  f.b.cfg.ReplicaFetchBytes,
		}
		byTopic := make(map[string][]wire.FetchPartition)
		for t, off := range parts {
			byTopic[t.topic] = append(byTopic[t.topic], wire.FetchPartition{
				Partition: t.partition,
				Offset:    off,
				MaxBytes:  f.b.cfg.ReplicaFetchBytes,
			})
		}
		for topic, ps := range byTopic {
			req.Topics = append(req.Topics, wire.FetchTopic{Name: topic, Partitions: ps})
		}
		var resp wire.FetchResponse
		if err := conn.RoundTrip(wire.APIFetch, req, &resp); err != nil {
			conn.Close()
			conn = nil
			if !backoff() {
				return
			}
			continue
		}
		f.apply(&resp)
	}
}

// apply folds a fetch response into local replica logs.
func (f *replicaFetcher) apply(resp *wire.FetchResponse) {
	for i := range resp.Topics {
		t := &resp.Topics[i]
		for j := range t.Partitions {
			p := &t.Partitions[j]
			key := tp{topic: t.Name, partition: p.Partition}
			r := f.b.getReplica(key)
			if r == nil {
				f.removePartition(key)
				continue
			}
			switch p.Err {
			case wire.ErrNone:
				// Tiered topics: the leader's local log start only moves
				// past offloaded (manifest-committed) data, so it is a
				// safe offload guard for this follower's hot retention —
				// local deletion here can never outrun the offloader.
				if r.log.Config().Tiered {
					r.log.SetOffloadedTo(p.LogStartOffset)
				}
				if len(p.Records) == 0 {
					// HW only. The errors are a replica closed or moved to
					// another leader under us, which the next pass finds gone.
					_ = r.appendAsFollower(nil, p.HighWatermark, f.leaderID)
					continue
				}
				next, err := appendFetched(r, p.Records, p.HighWatermark, f.leaderID)
				if err != nil {
					f.b.logger.Warn("replica append failed",
						"tp", key.String(), "err", err)
					continue
				}
				f.mu.Lock()
				if _, ok := f.fetchOffsets[key]; ok {
					f.fetchOffsets[key] = next
				}
				f.mu.Unlock()
			case wire.ErrOffsetOutOfRange:
				// Fell behind the leader's retention: resume from its
				// log start (the gap is legitimate data loss by
				// retention, not corruption).
				f.mu.Lock()
				if _, ok := f.fetchOffsets[key]; ok {
					f.fetchOffsets[key] = p.LogStartOffset
				}
				f.mu.Unlock()
			case wire.ErrNotLeaderForPartition, wire.ErrUnknownTopicOrPartition:
				// Leadership is moving; the state watcher reassigns us.
			}
		}
	}
}

// appendFetched splits a payload fetched from leader into batches and appends
// each, returning the next fetch offset.
func appendFetched(r *replica, data []byte, leaderHW int64, leader int32) (int64, error) {
	pos := 0
	next := int64(-1)
	for pos < len(data) {
		info, err := record.PeekBatchInfo(data[pos:])
		if err == record.ErrShort {
			break
		}
		if err != nil {
			return next, err
		}
		if pos+info.Length > len(data) {
			break
		}
		if err := r.appendAsFollower(data[pos:pos+info.Length], leaderHW, leader); err != nil {
			return next, err
		}
		next = info.LastOffset + 1
		pos += info.Length
	}
	if next == -1 {
		next = r.log.NextOffset()
	}
	return next, nil
}
