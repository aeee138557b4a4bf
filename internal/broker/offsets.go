package broker

import (
	"encoding/json"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/state"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// OffsetsTopic is the internal compacted topic backing the offset manager
// (paper §3.1 "highly-available, logically-centralized offset manager").
// A group's coordinator is the leader of the partition the group hashes to.
const OffsetsTopic = "__liquid_offsets"

// checkpointHistory bounds how many recent checkpoints are retained per
// (group, topic, partition) for metadata-based queries (paper §4.2):
// rewinding to "the offsets processed by software version v1" needs history,
// not just the newest commit.
const checkpointHistory = 64

// Checkpoint is one committed offset with its annotations.
type Checkpoint struct {
	Offset      int64  `json:"offset"`
	Metadata    string `json:"metadata"`
	CommittedAt int64  `json:"committedAt"` // ms since epoch
}

// offsetKey identifies a checkpoint stream.
type offsetKey struct {
	group     string
	topic     string
	partition int32
}

func (k offsetKey) encode() []byte {
	return []byte(k.group + "\x00" + k.topic + "\x00" + strconv.Itoa(int(k.partition)))
}

func decodeOffsetKey(b []byte) (offsetKey, bool) {
	parts := strings.Split(string(b), "\x00")
	if len(parts) != 3 {
		return offsetKey{}, false
	}
	p, err := strconv.Atoi(parts[2])
	if err != nil {
		return offsetKey{}, false
	}
	return offsetKey{group: parts[0], topic: parts[1], partition: int32(p)}, true
}

// offsetState is the checkpoint histories of one offsets-topic partition:
// the state.Writer that load folds the partition's log into.
type offsetState map[offsetKey][]Checkpoint

// Put keeps the history a record carries; an undecodable key or history is
// skipped.
func (s offsetState) Put(k, v []byte) error {
	var hist []Checkpoint
	if key, ok := decodeOffsetKey(k); ok && json.Unmarshal(v, &hist) == nil {
		s[key] = hist
	}
	return nil
}

// Delete drops the history a tombstone names.
func (s offsetState) Delete(k []byte) error {
	if key, ok := decodeOffsetKey(k); ok {
		delete(s, key)
	}
	return nil
}

// offsetManager maintains checkpoint histories in memory, persisted to the
// compacted offsets topic so they survive coordinator failover.
type offsetManager struct {
	b *Broker

	mu sync.Mutex
	// byPart maps each offsets-topic partition this broker leads to its
	// state; nil marks one led but unloaded, whose log failed to load.
	byPart map[int32]offsetState
}

func newOffsetManager(b *Broker) *offsetManager {
	return &offsetManager{b: b, byPart: make(map[int32]offsetState)}
}

// stateLocked returns an offsets-topic partition's state, or the code that
// answers its groups: ErrNotCoordinator where this broker does not lead it,
// the retriable ErrCoordinatorNotAvailable where its load failed. The
// caller holds o.mu.
func (o *offsetManager) stateLocked(opart int32) (offsetState, wire.ErrorCode) {
	st, ok := o.byPart[opart]
	switch {
	case !ok:
		return nil, wire.ErrNotCoordinator
	case st == nil:
		return nil, wire.ErrCoordinatorNotAvailable
	}
	return st, wire.ErrNone
}

// groupPartition maps a group to its offsets-topic partition.
func groupPartition(group string, numPartitions int32) int32 {
	h := fnv.New32a()
	h.Write([]byte(group))
	return int32(h.Sum32() % uint32(numPartitions))
}

// load replays an offsets-topic partition into memory; called when this
// broker becomes its leader. It is one pass over the local log: each read
// is folded by state.ApplyBatches, which advances past whole batches or
// fails, so load holds applyPartitionState for one pass at most, never for
// an unbounded time. A batch that fails (CRC, inflation, a record that
// does not parse) leaves the partition led but unloaded: nothing is
// published, the failure is logged and counted, and its groups are
// answered the retriable ErrCoordinatorNotAvailable. Repairing the log is
// not load's business.
func (o *offsetManager) load(partition int32, r *replica) {
	st := make(offsetState)
	for off := r.log.StartOffset(); ; {
		// The replication view: a new leader never truncates, so its whole
		// log, uncommitted tail included, is what it will serve.
		res, code := r.read(off, 1<<20, viewReplication)
		data, err := res.bytes()
		if code != wire.ErrNone || err != nil || len(data) == 0 {
			break
		}
		if off, _, err = state.ApplyBatches(st, data, off); err != nil {
			o.b.logger.Error("offset manager load failed", "partition", partition, "offset", off, "err", err)
			o.b.cfg.Metrics.Counter("broker.offsets.load_failures").Inc()
			st = nil
			break
		}
	}
	keys := len(st) // read before publishing: commit mutates the map under o.mu
	o.mu.Lock()
	o.byPart[partition] = st
	o.mu.Unlock()
	o.b.logger.Debug("offset manager loaded", "partition", partition, "keys", keys)
}

// unload drops in-memory state for a partition whose leadership moved away.
func (o *offsetManager) unload(partition int32) {
	o.mu.Lock()
	delete(o.byPart, partition)
	o.mu.Unlock()
}

// commit records a checkpoint, appending the updated history to the
// offsets topic.
func (o *offsetManager) commit(group, topic string, partition int32, offset int64, metadata string) wire.ErrorCode {
	opart := groupPartition(group, o.b.cfg.OffsetsPartitions)
	r := o.b.getReplica(tp{topic: OffsetsTopic, partition: opart})
	if r == nil {
		return wire.ErrNotCoordinator
	}
	key := offsetKey{group: group, topic: topic, partition: partition}

	o.mu.Lock()
	st, code := o.stateLocked(opart)
	if code != wire.ErrNone {
		o.mu.Unlock()
		return code
	}
	hist := append(st[key], Checkpoint{
		Offset:      offset,
		Metadata:    metadata,
		CommittedAt: o.b.now().UnixMilli(),
	})
	if len(hist) > checkpointHistory {
		hist = hist[len(hist)-checkpointHistory:]
	}
	st[key] = hist
	value, err := json.Marshal(hist)
	o.mu.Unlock()
	if err != nil {
		return wire.ErrUnknown
	}
	// Checkpoints are committed with full ISR acknowledgement so they
	// survive coordinator failover: a successor restores them from the
	// replicated offsets partition.
	batch := record.EncodeBatch(0, []record.Record{{Key: key.encode(), Value: value, Timestamp: o.b.now().UnixMilli()}})
	_, ackCh, durCh, code := r.appendSealedAsLeader([][]byte{batch}, -1)
	if code != wire.ErrNone {
		return code
	}
	select {
	case code = <-ackCh:
	case <-o.b.after(5 * time.Second):
		return wire.ErrRequestTimedOut
	}
	if code == wire.ErrNone && durCh != nil {
		select {
		case err := <-durCh:
			code = durErrorCode(err)
		case <-o.b.after(5 * time.Second):
			return wire.ErrRequestTimedOut
		}
	}
	return code
}

// fetch returns the newest checkpoint for a key, or found=false.
func (o *offsetManager) fetch(group, topic string, partition int32) (Checkpoint, bool, wire.ErrorCode) {
	opart := groupPartition(group, o.b.cfg.OffsetsPartitions)
	o.mu.Lock()
	defer o.mu.Unlock()
	st, code := o.stateLocked(opart)
	if code != wire.ErrNone {
		return Checkpoint{}, false, code
	}
	hist := st[offsetKey{group: group, topic: topic, partition: partition}]
	if len(hist) == 0 {
		return Checkpoint{}, false, wire.ErrNone
	}
	return hist[len(hist)-1], true, wire.ErrNone
}

// query implements metadata-based access (paper §4.2): the newest
// checkpoint whose annotation key equals value, or — for the reserved key
// "@timestamp" — the newest checkpoint committed at or before the given
// millisecond timestamp.
func (o *offsetManager) query(req *wire.OffsetQueryRequest) *wire.OffsetQueryResponse {
	opart := groupPartition(req.Group, o.b.cfg.OffsetsPartitions)
	o.mu.Lock()
	defer o.mu.Unlock()
	st, code := o.stateLocked(opart)
	if code != wire.ErrNone {
		return &wire.OffsetQueryResponse{Err: code}
	}
	hist := st[offsetKey{group: req.Group, topic: req.Topic, partition: req.Partition}]
	if req.AnnotationKey == "@timestamp" {
		ts, err := strconv.ParseInt(req.AnnotationValue, 10, 64)
		if err != nil {
			return &wire.OffsetQueryResponse{Err: wire.ErrInvalidRequest}
		}
		for i := len(hist) - 1; i >= 0; i-- {
			if hist[i].CommittedAt <= ts {
				return &wire.OffsetQueryResponse{Found: true, Offset: hist[i].Offset, Metadata: hist[i].Metadata}
			}
		}
		return &wire.OffsetQueryResponse{}
	}
	for i := len(hist) - 1; i >= 0; i-- {
		var annotations map[string]string
		if json.Unmarshal([]byte(hist[i].Metadata), &annotations) != nil {
			continue
		}
		if annotations[req.AnnotationKey] == req.AnnotationValue {
			return &wire.OffsetQueryResponse{Found: true, Offset: hist[i].Offset, Metadata: hist[i].Metadata}
		}
	}
	return &wire.OffsetQueryResponse{}
}

// GroupLag is one consumer group's committed position on one partition
// measured against the partition's high watermark. HighWatermark and Lag
// are -1 when this broker does not host the partition (the coordinator for
// a group need not host the topics the group consumes); the gauge exporter
// skips those tuples and the broker that leads the partition exports them.
type GroupLag struct {
	Group         string `json:"group"`
	Topic         string `json:"topic"`
	Partition     int32  `json:"partition"`
	Committed     int64  `json:"committed"`
	HighWatermark int64  `json:"highWatermark"`
	Lag           int64  `json:"lag"`
}

// lagSnapshot computes lag for every checkpoint stream this broker
// coordinates. Committed offsets are copied under o.mu first and high
// watermarks resolved after it is released: getReplica takes b.mu, and the
// two locks are never nested anywhere in the broker.
func (o *offsetManager) lagSnapshot() []GroupLag {
	type stream struct {
		k         offsetKey
		committed int64
	}
	o.mu.Lock()
	streams := make([]stream, 0, 16)
	for _, st := range o.byPart {
		for k, hist := range st {
			if len(hist) == 0 {
				continue
			}
			streams = append(streams, stream{k: k, committed: hist[len(hist)-1].Offset})
		}
	}
	o.mu.Unlock()

	out := make([]GroupLag, 0, len(streams))
	for _, s := range streams {
		gl := GroupLag{
			Group:         s.k.group,
			Topic:         s.k.topic,
			Partition:     s.k.partition,
			Committed:     s.committed,
			HighWatermark: -1,
			Lag:           -1,
		}
		if r := o.b.getReplica(tp{topic: s.k.topic, partition: s.k.partition}); r != nil {
			hw := r.highWatermark()
			gl.HighWatermark = hw
			if gl.Lag = hw - s.committed; gl.Lag < 0 {
				gl.Lag = 0
			}
		}
		out = append(out, gl)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		if a.Topic != b.Topic {
			return a.Topic < b.Topic
		}
		return a.Partition < b.Partition
	})
	return out
}
