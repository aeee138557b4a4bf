package broker

import (
	"maps"

	"repro/internal/state"
	"repro/internal/table"
	"repro/internal/wire"
)

// The broker-side table host: every compacted feed created with
// TopicSpec.Table gets, on each partition's CURRENT LEADER, a
// table.Partition materializing the committed log into a key→value view.
// Attachment follows leadership exactly like tier adoption — promoted
// leaders bootstrap from offset 0 through the same committed-read path
// consumers use, demoted leaders drop their view (the next leader rebuilds
// from its own log, which replication guarantees holds every acked write).

// replicaSource adapts a replica's committed read path to table.Source.
type replicaSource struct{ r *replica }

func (s replicaSource) ReadCommitted(offset int64, maxBytes int) ([]byte, int64, int64, wire.ErrorCode) {
	res, code := s.r.read(offset, maxBytes, viewCommitted)
	data, err := res.bytes()
	if err != nil {
		return nil, res.hw, res.earliest, wire.ErrUnknown
	}
	return data, res.hw, res.earliest, code
}

func (s replicaSource) Notify() <-chan struct{} { return s.r.notifyChan(viewCommitted) }

func (s replicaSource) HighWatermark() int64 { return s.r.highWatermark() }

// tableFor returns the table partition served for t, if any.
func (b *Broker) tableFor(t tp) *table.Partition {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tables[t]
}

// tableSnapshot copies the served table partitions, so callers can query
// them (Freshness takes the replica lock) without holding b.mu.
func (b *Broker) tableSnapshot() map[tp]*table.Partition {
	b.mu.Lock()
	defer b.mu.Unlock()
	return maps.Clone(b.tables)
}

// attachTable starts materializing a table partition this broker now leads.
func (b *Broker) attachTable(t tp, r *replica) {
	p := table.NewPartition(replicaSource{r: r}, state.NewMem())
	b.mu.Lock()
	if b.stopped || b.tables[t] != nil {
		b.mu.Unlock()
		p.Close()
		return
	}
	b.tables[t] = p
	b.mu.Unlock()
	b.logger.Info("table attached", "tp", t.String())
}

// detachTable stops and drops the table partition for t, if attached.
func (b *Broker) detachTable(t tp) {
	b.mu.Lock()
	p := b.tables[t]
	delete(b.tables, t)
	b.mu.Unlock()
	if p != nil {
		p.Close()
		b.logger.Info("table detached", "tp", t.String())
	}
}

// detachAllTables closes every table partition (shutdown path).
func (b *Broker) detachAllTables() {
	b.mu.Lock()
	tables := b.tables
	b.tables = make(map[tp]*table.Partition)
	b.mu.Unlock()
	for _, p := range tables {
		p.Close()
	}
}

// tableView resolves a read to the locally-served table partition, or the
// error code the client should act on: unknown partition, not leader
// (routing refresh), or leader-without-view (attach in progress; retry).
func (b *Broker) tableView(topic string, partition int32) (*table.Partition, *replica, wire.ErrorCode) {
	t := tp{topic: topic, partition: partition}
	r := b.getReplica(t)
	if r == nil {
		return nil, nil, wire.ErrUnknownTopicOrPartition
	}
	if _, _, _, isLeader := r.snapshotState(); !isLeader {
		return nil, nil, wire.ErrNotLeaderForPartition
	}
	p := b.tableFor(t)
	if p == nil || p.Err() != nil {
		return nil, nil, wire.ErrTableNotServed
	}
	return p, r, wire.ErrNone
}

// checkTableLag enforces the request's staleness bound. A negative bound
// accepts anything; otherwise the view must trail the high watermark by at
// most maxLag offsets.
func checkTableLag(applied, hw, maxLag int64) wire.ErrorCode {
	if maxLag >= 0 && hw-applied > maxLag {
		return wire.ErrTableStale
	}
	return wire.ErrNone
}

func (b *Broker) handleTableGet(req *wire.TableGetRequest) *wire.TableGetResponse {
	resp := &wire.TableGetResponse{}
	p, r, code := b.tableView(req.Topic, req.Partition)
	if code != wire.ErrNone {
		resp.Err = code
		return resp
	}
	_, epoch, _, _ := r.snapshotState()
	resp.LeaderEpoch = epoch
	resp.AppliedOffset, resp.HighWatermark = p.Freshness()
	if code := checkTableLag(resp.AppliedOffset, resp.HighWatermark, req.MaxLagOffsets); code != wire.ErrNone {
		resp.Err = code // freshness watermark still reported
		return resp
	}
	v, found, err := p.Get(req.Key)
	if err != nil {
		resp.Err = wire.ErrUnknown
		return resp
	}
	resp.Found = found
	resp.Value = v
	b.cfg.Metrics.Counter("broker.table.gets").Inc()
	return resp
}

// maxTableRangeEntries caps one range response regardless of the requested
// limit so a scan cannot blow the frame budget.
const maxTableRangeEntries = 10_000

func (b *Broker) handleTableRange(req *wire.TableRangeRequest) *wire.TableRangeResponse {
	resp := &wire.TableRangeResponse{}
	p, r, code := b.tableView(req.Topic, req.Partition)
	if code != wire.ErrNone {
		resp.Err = code
		return resp
	}
	_, epoch, _, _ := r.snapshotState()
	resp.LeaderEpoch = epoch
	resp.AppliedOffset, resp.HighWatermark = p.Freshness()
	resp.ApproxLen = int64(p.ApproxLen())
	if code := checkTableLag(resp.AppliedOffset, resp.HighWatermark, req.MaxLagOffsets); code != wire.ErrNone {
		resp.Err = code
		return resp
	}
	limit := req.Limit
	if limit <= 0 {
		return resp // status-only probe
	}
	if limit > maxTableRangeEntries {
		limit = maxTableRangeEntries
	}
	err := p.Range(req.From, req.To, func(k, v []byte) bool {
		if int32(len(resp.Entries)) == limit {
			resp.More = true
			return false
		}
		resp.Entries = append(resp.Entries, wire.TableEntry{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
		return true
	})
	if err != nil {
		resp.Err = wire.ErrUnknown
		resp.Entries = nil
		return resp
	}
	b.cfg.Metrics.Counter("broker.table.ranges").Inc()
	return resp
}
