package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// Special start offsets for Consumer.Assign.
const (
	// StartEarliest begins at the earliest available offset: the
	// tiered-earliest on topics with tiered log storage (rewinding past
	// local retention into the cold tier), the log start otherwise.
	StartEarliest int64 = -2
	// StartLatest begins at the current log end (only new data).
	StartLatest int64 = -1
)

// OffsetResetPolicy chooses what to do when the consumer's position falls
// outside the log (e.g. retention deleted it).
type OffsetResetPolicy int

// Reset policies.
const (
	// ResetEarliest jumps to the earliest available offset (the
	// tiered-earliest when tiering is on, the local log start otherwise).
	ResetEarliest OffsetResetPolicy = iota
	// ResetLatest jumps to the log end.
	ResetLatest
	// ResetError surfaces the error to the caller.
	ResetError
)

// ConsumerConfig parameterises a Consumer.
type ConsumerConfig struct {
	// MinBytes is the broker-side wait threshold for long-poll fetches.
	MinBytes int32
	// MaxBytes bounds one fetch response per partition.
	MaxBytes int32
	// OnReset chooses the out-of-range recovery policy.
	OnReset OffsetResetPolicy
}

func (c ConsumerConfig) withDefaults() ConsumerConfig {
	if c.MinBytes == 0 {
		c.MinBytes = 1
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 4 << 20
	}
	return c
}

// consumerTP tracks one assigned partition.
type consumerTP struct {
	topic     string
	partition int32
	position  int64
}

// Consumer pulls messages from explicitly assigned partitions, tracking a
// position per partition (paper §3.1: consumers pull by offset and own
// their positions). It opens a dedicated long-poll connection per leader
// broker.
type Consumer struct {
	c   *Client
	cfg ConsumerConfig

	mu       sync.Mutex
	assigned map[string]*consumerTP // "topic/partition" -> state
	conns    map[int32]*Conn        // dedicated fetch conns by broker id
	closed   bool

	// throttle holds broker quota verdicts (ThrottleTimeMs on fetch
	// responses), keyed by broker id; the next fetch to that broker
	// honors them.
	throttle throttleTracker
}

// NewConsumer creates a consumer on a client.
func NewConsumer(c *Client, cfg ConsumerConfig) *Consumer {
	return &Consumer{
		c:        c,
		cfg:      cfg.withDefaults(),
		assigned: make(map[string]*consumerTP),
		conns:    make(map[int32]*Conn),
	}
}

func tpKey(topic string, partition int32) string {
	return fmt.Sprintf("%s/%d", topic, partition)
}

// Assign adds a partition at the given start offset (StartEarliest,
// StartLatest, or an absolute offset).
func (c *Consumer) Assign(topic string, partition int32, offset int64) error {
	start := offset
	if offset == StartEarliest || offset == StartLatest {
		ts := wire.TimestampEarliest
		if offset == StartLatest {
			ts = wire.TimestampLatest
		}
		resolved, err := c.c.ListOffset(topic, partition, ts)
		if err != nil {
			return err
		}
		start = resolved
	}
	if start < 0 {
		return fmt.Errorf("client: invalid start offset %d", start)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.assigned[tpKey(topic, partition)] = &consumerTP{
		topic:     topic,
		partition: partition,
		position:  start,
	}
	return nil
}

// Unassign removes a partition.
func (c *Consumer) Unassign(topic string, partition int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.assigned, tpKey(topic, partition))
}

// UnassignAll removes every partition.
func (c *Consumer) UnassignAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.assigned = make(map[string]*consumerTP)
}

// Position returns the next offset to be fetched, or -1 if unassigned.
func (c *Consumer) Position(topic string, partition int32) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.assigned[tpKey(topic, partition)]; ok {
		return s.position
	}
	return -1
}

// Seek moves the position of an assigned partition.
func (c *Consumer) Seek(topic string, partition int32, offset int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.assigned[tpKey(topic, partition)]
	if !ok {
		return fmt.Errorf("client: %s/%d not assigned", topic, partition)
	}
	s.position = offset
	return nil
}

// Assignments returns the currently assigned topic partitions as
// topic -> partitions.
func (c *Consumer) Assignments() map[string][]int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]int32)
	for _, s := range c.assigned {
		out[s.topic] = append(out[s.topic], s.partition)
	}
	return out
}

// Poll fetches available messages from all assigned partitions, waiting up
// to maxWait for at least one byte. Leaders are polled in parallel.
func (c *Consumer) Poll(maxWait time.Duration) ([]Message, error) {
	return poll(c, maxWait, c.fetchMessages)
}

// Batch is one log batch as PollBatches delivers it: the sealed bytes the
// log stored, possibly compressed, CRC-checked but neither inflated nor
// decoded.
type Batch struct {
	Topic     string
	Partition int32
	Info      record.BatchInfo
	Data      []byte
}

// PollBatches is Poll for readers that keep or forward whole batches rather
// than records (the archive): the same fetch, but each partition's batches
// come back verbatim after record.CheckBatch, and its position advances to
// the last batch's LastOffset+1. The one batch that starts below the
// position (after a mid-batch Assign or Seek) is re-sealed over its records
// at or after it; every other batch is byte-identical to the log's.
func (c *Consumer) PollBatches(maxWait time.Duration) ([]Batch, error) {
	return poll(c, maxWait, c.fetchBatches)
}

// poll runs one fetch round against every leader of an assigned partition,
// in parallel, and gathers what fetch makes of the responses.
func poll[T any](c *Consumer, maxWait time.Duration, fetch func(int32, []*consumerTP, time.Duration) ([]T, error)) ([]T, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrConnClosed
	}
	snapshot := make([]*consumerTP, 0, len(c.assigned))
	for _, s := range c.assigned {
		snapshot = append(snapshot, s)
	}
	c.mu.Unlock()
	if len(snapshot) == 0 {
		return nil, errors.New("client: no partitions assigned")
	}

	// Group by current leader.
	byLeader := make(map[int32][]*consumerTP)
	for _, s := range snapshot {
		leader, err := c.c.LeaderFor(s.topic, s.partition)
		if err != nil {
			continue // leaderless partitions are skipped this round
		}
		byLeader[leader] = append(byLeader[leader], s)
	}
	if len(byLeader) == 0 {
		c.c.InvalidateMetadata()
		time.Sleep(10 * time.Millisecond)
		return nil, nil
	}

	type result struct {
		items []T
		err   error
	}
	results := make(chan result, len(byLeader))
	for leader, parts := range byLeader {
		go func(leader int32, parts []*consumerTP) {
			items, err := fetch(leader, parts, maxWait)
			results <- result{items: items, err: err}
		}(leader, parts)
	}
	var out []T
	var firstErr error
	for range byLeader {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if len(out) == 0 {
			out = r.items // a single leader's slice passes through uncopied
		} else {
			out = append(out, r.items...)
		}
	}
	if len(out) > 0 {
		return out, nil // data trumps partial errors
	}
	return out, firstErr
}

// fetchConn returns the dedicated fetch connection for a broker.
func (c *Consumer) fetchConn(leader int32) (*Conn, error) {
	c.mu.Lock()
	conn, ok := c.conns[leader]
	c.mu.Unlock()
	if ok && !conn.Closed() {
		return conn, nil
	}
	conn, err := c.c.DialDedicated(leader)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, ErrConnClosed
	}
	if old, ok := c.conns[leader]; ok && !old.Closed() {
		conn.Close()
		return old, nil
	}
	c.conns[leader] = conn
	return conn, nil
}

// Throttled reports how often the consumer was throttled by broker quotas
// and the cumulative delay it honored.
func (c *Consumer) Throttled() ThrottleStats { return c.throttle.throttled() }

// fetchFrom issues one fetch to a leader for its partitions and returns the
// response with the position each partition was fetched at. An
// outstanding quota verdict from that broker is honored first, and the
// honored wait plus the long-poll budget together never exceed the
// caller's maxWait: a verdict longer than the budget makes this round
// yield nothing (a nil response; the remainder is honored on later polls),
// a shorter one shrinks the long-poll window by the time already spent —
// so Poll's latency contract holds even under a 30s verdict.
func (c *Consumer) fetchFrom(leader int32, parts []*consumerTP, maxWait time.Duration) (*wire.FetchResponse, map[string]int64, error) {
	slept, honored := c.throttle.await(leader, maxWait, nil)
	if !honored {
		return nil, nil, nil // still throttled; this poll round yields nothing
	}
	maxWait -= slept
	conn, err := c.fetchConn(leader)
	if err != nil {
		c.c.InvalidateMetadata()
		return nil, nil, err
	}
	req := &wire.FetchRequest{
		ReplicaID: -1,
		MaxWaitMs: int32(maxWait / time.Millisecond),
		MinBytes:  c.cfg.MinBytes,
		MaxBytes:  c.cfg.MaxBytes,
	}
	byTopic := make(map[string][]wire.FetchPartition)
	pos := make(map[string]int64, len(parts))
	for _, s := range parts {
		c.mu.Lock()
		p := s.position
		c.mu.Unlock()
		pos[tpKey(s.topic, s.partition)] = p
		byTopic[s.topic] = append(byTopic[s.topic], wire.FetchPartition{
			Partition: s.partition,
			Offset:    p,
			MaxBytes:  c.cfg.MaxBytes,
		})
	}
	for topic, ps := range byTopic {
		req.Topics = append(req.Topics, wire.FetchTopic{Name: topic, Partitions: ps})
	}
	var resp wire.FetchResponse
	if err := conn.RoundTrip(wire.APIFetch, req, &resp); err != nil {
		c.mu.Lock()
		delete(c.conns, leader)
		c.mu.Unlock()
		c.c.InvalidateMetadata()
		return nil, nil, err
	}
	c.throttle.note(leader, resp.ThrottleTimeMs)
	return &resp, pos, nil
}

// deliver hands each partition of a fetch response that carries data to
// take, with the position it was fetched at, and advances the partition to
// the position take returns; it applies the reset policy and metadata
// invalidation to the partitions that carry an error. A take error stops
// the delivery, leaving that partition where it was.
func (c *Consumer) deliver(resp *wire.FetchResponse, pos map[string]int64, take func(topic string, partition int32, data []byte, want int64) (int64, error)) error {
	for i := range resp.Topics {
		t := &resp.Topics[i]
		for j := range t.Partitions {
			p := &t.Partitions[j]
			key := tpKey(t.Name, p.Partition)
			switch p.Err {
			case wire.ErrNone:
				want := pos[key]
				next, err := take(t.Name, p.Partition, p.Records, want)
				if err != nil {
					return err
				}
				if next > want {
					c.advance(key, next)
				}
			case wire.ErrOffsetOutOfRange:
				if err := c.handleReset(t.Name, p.Partition, p.LogStartOffset); err != nil {
					return err
				}
			case wire.ErrNotLeaderForPartition, wire.ErrUnknownTopicOrPartition,
				wire.ErrLeaderNotAvailable, wire.ErrBrokerNotAvailable:
				c.c.InvalidateMetadata()
			default:
				return p.Err.Err()
			}
		}
	}
	return nil
}

// fetchMessages is Poll's fetch: one leader's response decoded into
// messages, in a slice sized once from every partition's batch headers. Each
// batch's CRC is checked once, by its decode.
func (c *Consumer) fetchMessages(leader int32, parts []*consumerTP, maxWait time.Duration) ([]Message, error) {
	resp, pos, err := c.fetchFrom(leader, parts, maxWait)
	if resp == nil {
		return nil, err
	}
	total := 0
	for _, t := range resp.Topics {
		for _, p := range t.Partitions {
			total += record.ClaimedRecords(p.Records)
		}
	}
	out := make([]Message, 0, total)
	err = c.deliver(resp, pos, func(topic string, partition int32, data []byte, want int64) (next int64, err error) {
		first := len(out)
		if out, next, err = decodeFetched(out, topic, partition, data, want); err != nil {
			return want, err
		}
		msgs := out[first:]
		if m := c.c.met; m != nil && len(msgs) > 0 {
			m.consumeRecords.With(topic).Add(int64(len(msgs)))
			// End-to-end latency: producer-stamped record timestamp (ms)
			// to decode time. Clock skew can make it negative on
			// multi-host setups; clamp rather than pollute the histogram.
			nowMs := time.Now().UnixMilli()
			var lat metrics.LocalHistogram
			for i := range msgs {
				if ts := msgs[i].Timestamp; ts > 0 {
					lat.Observe(max(nowMs-ts, 0) * int64(time.Millisecond))
				}
			}
			m.e2eLatency.With(topic).Merge(&lat)
		}
		return next, nil
	})
	return out, err
}

// fetchBatches is PollBatches' fetch: one leader's response as CRC-checked
// batches.
func (c *Consumer) fetchBatches(leader int32, parts []*consumerTP, maxWait time.Duration) ([]Batch, error) {
	resp, pos, err := c.fetchFrom(leader, parts, maxWait)
	if resp == nil {
		return nil, err
	}
	var out []Batch
	err = c.deliver(resp, pos, func(topic string, partition int32, data []byte, want int64) (next int64, err error) {
		first := len(out)
		if out, next, err = checkFetched(out, topic, partition, data, want); err != nil {
			return want, err
		}
		if m := c.c.met; m != nil && len(out) > first {
			var n int
			for _, b := range out[first:] {
				n += b.Info.RecordCount
			}
			m.consumeRecords.With(topic).Add(int64(n))
		}
		return next, nil
	})
	return out, err
}

// advance moves a partition's position forward if still assigned.
func (c *Consumer) advance(key string, next int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.assigned[key]; ok && next > s.position {
		s.position = next
	}
}

// handleReset applies the out-of-range policy. earliest is what the broker
// reported as the earliest AVAILABLE offset — tiered-earliest when the
// partition has cold segments — so the consumer resumes exactly where data
// begins instead of guessing.
func (c *Consumer) handleReset(topic string, partition int32, earliest int64) error {
	switch c.cfg.OnReset {
	case ResetEarliest:
		// The fetch response already carries the earliest available
		// offset.
		return c.Seek(topic, partition, earliest)
	case ResetLatest:
		off, err := c.c.ListOffset(topic, partition, wire.TimestampLatest)
		if err != nil {
			return err
		}
		return c.Seek(topic, partition, off)
	default:
		return wire.ErrOffsetOutOfRange.Err()
	}
}

// decodeFetched appends the messages at or after want in a fetch payload to
// out and returns the next fetch position; on error out comes back unchanged.
func decodeFetched(out []Message, topic string, partition int32, data []byte, want int64) ([]Message, int64, error) {
	first := len(out)
	next := want
	err := record.ScanRecords(data, func(r record.Record) error {
		if r.Offset < want {
			return nil // records below the requested offset inside a batch
		}
		out = append(out, Message{
			Topic:     topic,
			Partition: partition,
			Offset:    r.Offset,
			Timestamp: r.Timestamp,
			Key:       r.Key,
			Value:     r.Value,
			Headers:   r.Headers,
		})
		next = r.Offset + 1
		return nil
	})
	if err != nil {
		return out[:first], want, err
	}
	return out, next, nil
}

// checkFetched appends the batches of a fetch payload that hold offsets at
// or after want to out, after record.CheckBatch, and returns the next fetch
// position; a batch starting below want is trimmed to want. The payload must
// be whole batches, as the log serves them. On error out comes back
// unchanged.
func checkFetched(out []Batch, topic string, partition int32, data []byte, want int64) ([]Batch, int64, error) {
	first := len(out)
	next := want
	err := record.WalkBatches(data, func(pos int, info record.BatchInfo) error {
		if info.LastOffset < want {
			return nil // a batch wholly below the requested offset
		}
		raw := data[pos : pos+info.Length]
		_, err := record.CheckBatch(raw)
		batch := Batch{Topic: topic, Partition: partition, Info: info, Data: raw}
		if err == nil && info.BaseOffset < want {
			batch, err = resealFrom(batch, want)
		}
		if err != nil {
			return err
		}
		if batch.Data != nil {
			out = append(out, batch)
		}
		next = info.LastOffset + 1
		return nil
	})
	if err != nil {
		return out[:first], want, fmt.Errorf("client: %s/%d: %w", topic, partition, err)
	}
	return out, next, nil
}

// resealFrom cuts a batch to its records at or after from, re-sealed with
// record.EncodeBatchKeepOffsets (uncompressed, without a producer
// identity). The cut holds no Data when no record survives.
func resealFrom(b Batch, from int64) (Batch, error) {
	decoded, _, err := record.DecodeBatch(b.Data)
	if err != nil {
		return b, err
	}
	recs := decoded.Records
	for len(recs) > 0 && recs[0].Offset < from {
		recs = recs[1:]
	}
	if len(recs) == 0 {
		return Batch{}, nil
	}
	b.Data = record.EncodeBatchKeepOffsets(recs)
	b.Info, err = record.PeekBatchInfo(b.Data)
	return b, err
}

// Close releases the consumer's dedicated connections.
func (c *Consumer) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for id, conn := range c.conns {
		conn.Close()
		delete(c.conns, id)
	}
}
