package broker

import (
	"encoding/json"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/storage/record"
	"repro/internal/table"
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

// offsetsWait bounds each wait of an offsets request: for the checkpoint
// table to apply what its partition has committed, and for a commit's ack
// and durability.
const offsetsWait = 5 * time.Second

// offsetManager serves checkpoint histories from the offsets topic, a
// compacted table (paper §3.1, §4.2): the broker's table host materializes
// each partition this broker leads, so a successor rebuilds the histories
// from the replicated log exactly as any table is rebuilt, and a checkpoint
// is visible only once committed.
type offsetManager struct {
	b *Broker
	// commits serialises the commits of each offsets-topic partition from
	// reading a history through the ack of the record that extends it, so
	// the log holds histories in the order they were extended.
	commits []sync.Mutex
}

func newOffsetManager(b *Broker) *offsetManager {
	return &offsetManager{b: b, commits: make([]sync.Mutex, b.cfg.OffsetsPartitions)}
}

// groupPartition maps a group to its offsets-topic partition.
func groupPartition(group string, numPartitions int32) int32 {
	h := fnv.New32a()
	h.Write([]byte(group))
	return int32(h.Sum32() % uint32(numPartitions))
}

// view returns the checkpoint table of an offsets-topic partition and its
// replica once the table has applied everything the partition has
// committed (checkTableLag at lag 0), waiting up to offsetsWait for it if
// wait is set. It answers ErrNotCoordinator where this broker does not lead
// the partition, and the retriable ErrCoordinatorNotAvailable where the
// table is not attached, has failed, or has not caught up.
func (o *offsetManager) view(opart int32, wait bool) (*table.Partition, *replica, wire.ErrorCode) {
	var timeout <-chan time.Time
	for {
		p, r, code := o.b.tableView(OffsetsTopic, opart)
		switch code {
		case wire.ErrNone:
		case wire.ErrTableNotServed:
			return nil, nil, wire.ErrCoordinatorNotAvailable
		default:
			return nil, nil, wire.ErrNotCoordinator
		}
		applied, moved := p.Applied()
		if checkTableLag(applied, r, 0) == wire.ErrNone {
			return p, r, wire.ErrNone
		}
		if !wait {
			return nil, nil, wire.ErrCoordinatorNotAvailable
		}
		if timeout == nil {
			timeout = o.b.after(offsetsWait)
		}
		select {
		case <-moved:
		case <-timeout:
			return nil, nil, wire.ErrCoordinatorNotAvailable
		}
	}
}

// read returns a key's committed checkpoint history, a history that does
// not decode reading as none, and the replica of its offsets partition.
func (o *offsetManager) read(k offsetKey) ([]Checkpoint, *replica, wire.ErrorCode) {
	p, r, code := o.view(groupPartition(k.group, o.b.cfg.OffsetsPartitions), true)
	if code != wire.ErrNone {
		return nil, nil, code
	}
	v, found, err := p.Get(k.encode())
	if err != nil {
		return nil, nil, wire.ErrUnknown
	}
	var hist []Checkpoint
	if found && json.Unmarshal(v, &hist) != nil {
		hist = nil
	}
	return hist, r, wire.ErrNone
}

// commit records a checkpoint, appending the extended history to the
// offsets topic. Checkpoints are committed with full ISR acknowledgement so
// they survive coordinator failover.
func (o *offsetManager) commit(group, topic string, partition int32, offset int64, metadata string) wire.ErrorCode {
	mu := &o.commits[groupPartition(group, o.b.cfg.OffsetsPartitions)]
	mu.Lock()
	defer mu.Unlock()
	key := offsetKey{group: group, topic: topic, partition: partition}
	hist, r, code := o.read(key)
	if code != wire.ErrNone {
		return code
	}
	hist = append(hist, Checkpoint{
		Offset:      offset,
		Metadata:    metadata,
		CommittedAt: o.b.now().UnixMilli(),
	})
	if len(hist) > checkpointHistory {
		hist = hist[len(hist)-checkpointHistory:]
	}
	value, err := json.Marshal(hist)
	if err != nil {
		return wire.ErrUnknown
	}
	batch := record.EncodeBatch(0, []record.Record{{Key: key.encode(), Value: value, Timestamp: o.b.now().UnixMilli()}})
	_, ackCh, durCh, code := r.appendSealedAsLeader([][]byte{batch}, -1)
	if code != wire.ErrNone {
		return code
	}
	select {
	case code = <-ackCh:
	case <-o.b.after(offsetsWait):
		return wire.ErrRequestTimedOut
	}
	if code == wire.ErrNone && durCh != nil {
		select {
		case err := <-durCh:
			code = durErrorCode(err)
		case <-o.b.after(offsetsWait):
			return wire.ErrRequestTimedOut
		}
	}
	return code
}

// fetch returns the newest checkpoint for a key, or found=false.
func (o *offsetManager) fetch(group, topic string, partition int32) (Checkpoint, bool, wire.ErrorCode) {
	hist, _, code := o.read(offsetKey{group: group, topic: topic, partition: partition})
	if code != wire.ErrNone || len(hist) == 0 {
		return Checkpoint{}, false, code
	}
	return hist[len(hist)-1], true, wire.ErrNone
}

// query implements metadata-based access (paper §4.2): the newest
// checkpoint whose annotation key equals value, or — for the reserved key
// "@timestamp" — the newest checkpoint committed at or before the given
// millisecond timestamp.
func (o *offsetManager) query(req *wire.OffsetQueryRequest) *wire.OffsetQueryResponse {
	hist, _, code := o.read(offsetKey{group: req.Group, topic: req.Topic, partition: req.Partition})
	if code != wire.ErrNone {
		return &wire.OffsetQueryResponse{Err: code}
	}
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

// groupLags calls fn with the lag of every checkpoint stream this broker
// coordinates on a partition it also hosts: the partition's high watermark
// less the newest committed offset. A coordinator need not host the topics
// its groups consume; those streams are skipped, and so is a checkpoint
// table that has not caught up, which is not waited for: the gauge exporter
// calls again within a second.
func (o *offsetManager) groupLags(fn func(k offsetKey, lag int64)) {
	for opart := range o.commits {
		p, _, code := o.view(int32(opart), false)
		if code != wire.ErrNone {
			continue
		}
		p.Range(nil, nil, func(kb, v []byte) bool {
			var hist []Checkpoint
			k, ok := decodeOffsetKey(kb)
			if !ok || json.Unmarshal(v, &hist) != nil || len(hist) == 0 {
				return true
			}
			if r := o.b.getReplica(tp{topic: k.topic, partition: k.partition}); r != nil {
				fn(k, max(r.highWatermark()-hist[len(hist)-1].Offset, 0))
			}
			return true
		})
	}
}
