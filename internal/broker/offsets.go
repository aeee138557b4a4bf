package broker

import (
	"encoding/json"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

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

// offsetManager maintains checkpoint histories in memory, persisted to the
// compacted offsets topic so they survive coordinator failover.
type offsetManager struct {
	b *Broker

	mu     sync.Mutex
	byPart map[int32]map[offsetKey][]Checkpoint // offsets-topic partition -> state
}

func newOffsetManager(b *Broker) *offsetManager {
	return &offsetManager{b: b, byPart: make(map[int32]map[offsetKey][]Checkpoint)}
}

// groupPartition maps a group to its offsets-topic partition.
func groupPartition(group string, numPartitions int32) int32 {
	h := fnv.New32a()
	h.Write([]byte(group))
	return int32(h.Sum32() % uint32(numPartitions))
}

// load replays an offsets-topic partition into memory; called when this
// broker becomes its leader.
func (o *offsetManager) load(partition int32, r *replica) {
	state := make(map[offsetKey][]Checkpoint)
	off := r.log.StartOffset()
	for {
		// The replication view: a new leader never truncates, so its whole
		// log, uncommitted tail included, is what it will serve.
		res, code := r.read(off, 1<<20, viewReplication)
		data, err := res.bytes()
		if code != wire.ErrNone || err != nil || len(data) == 0 {
			break
		}
		record.ScanRecords(data, func(rec record.Record) error {
			if rec.Offset < off {
				return nil
			}
			off = rec.Offset + 1
			key, ok := decodeOffsetKey(rec.Key)
			if !ok {
				return nil
			}
			if rec.Value == nil {
				delete(state, key)
				return nil
			}
			var hist []Checkpoint
			if json.Unmarshal(rec.Value, &hist) == nil {
				state[key] = hist
			}
			return nil
		})
	}
	keys := len(state) // read before publishing: commit mutates the map under o.mu
	o.mu.Lock()
	o.byPart[partition] = state
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
	state, ok := o.byPart[opart]
	if !ok {
		o.mu.Unlock()
		return wire.ErrNotCoordinator
	}
	hist := append(state[key], Checkpoint{
		Offset:      offset,
		Metadata:    metadata,
		CommittedAt: o.b.now().UnixMilli(),
	})
	if len(hist) > checkpointHistory {
		hist = hist[len(hist)-checkpointHistory:]
	}
	state[key] = hist
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
	state, ok := o.byPart[opart]
	if !ok {
		return Checkpoint{}, false, wire.ErrNotCoordinator
	}
	hist := state[offsetKey{group: group, topic: topic, partition: partition}]
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
	state, ok := o.byPart[opart]
	if !ok {
		return &wire.OffsetQueryResponse{Err: wire.ErrNotCoordinator}
	}
	hist := state[offsetKey{group: req.Group, topic: req.Topic, partition: req.Partition}]
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
	for _, state := range o.byPart {
		for k, hist := range state {
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
