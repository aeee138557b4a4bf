package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

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
		msgs []Message
		err  error
	}
	results := make(chan result, len(byLeader))
	for leader, parts := range byLeader {
		go func(leader int32, parts []*consumerTP) {
			msgs, err := c.fetchFrom(leader, parts, maxWait)
			results <- result{msgs: msgs, err: err}
		}(leader, parts)
	}
	var out []Message
	var firstErr error
	for range byLeader {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if len(out) == 0 {
			out = r.msgs // a single leader's slice passes through uncopied
		} else {
			out = append(out, r.msgs...)
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

// fetchFrom issues one fetch to a leader for its partitions. An
// outstanding quota verdict from that broker is honored first, and the
// honored wait plus the long-poll budget together never exceed the
// caller's maxWait: a verdict longer than the budget makes this round
// yield nothing (the remainder is honored on later polls), a shorter one
// shrinks the long-poll window by the time already spent — so Poll's
// latency contract holds even under a 30s verdict.
func (c *Consumer) fetchFrom(leader int32, parts []*consumerTP, maxWait time.Duration) ([]Message, error) {
	slept, honored := c.throttle.await(leader, maxWait, nil)
	if !honored {
		return nil, nil // still throttled; this poll round yields nothing
	}
	maxWait -= slept
	conn, err := c.fetchConn(leader)
	if err != nil {
		c.c.InvalidateMetadata()
		return nil, err
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
		return nil, err
	}
	c.throttle.note(leader, resp.ThrottleTimeMs)
	// Size the result once per fetch, from every partition's batch headers.
	total := 0
	for _, t := range resp.Topics {
		for _, p := range t.Partitions {
			n, _ := record.CountRecords(p.Records) // an error is decodeFetched's to report
			total += n
		}
	}
	out := make([]Message, 0, total)
	for i := range resp.Topics {
		t := &resp.Topics[i]
		for j := range t.Partitions {
			p := &t.Partitions[j]
			key := tpKey(t.Name, p.Partition)
			want := pos[key]
			switch p.Err {
			case wire.ErrNone:
				first := len(out)
				var next int64
				if out, next, err = decodeFetched(out, t.Name, p.Partition, p.Records, want); err != nil {
					return out, err
				}
				msgs := out[first:]
				if next > want {
					c.advance(key, next)
				}
				if m := c.c.met; m != nil && len(msgs) > 0 {
					m.consumeRecords.With(t.Name).Add(int64(len(msgs)))
					// End-to-end latency: producer-stamped record
					// timestamp (ms) to decode time. Clock skew can make
					// it negative on multi-host setups; clamp rather
					// than pollute the histogram.
					nowMs := time.Now().UnixMilli()
					h := m.e2eLatency.With(t.Name)
					for i := range msgs {
						if ts := msgs[i].Timestamp; ts > 0 {
							lat := (nowMs - ts) * int64(time.Millisecond)
							if lat < 0 {
								lat = 0
							}
							h.Observe(lat)
						}
					}
				}
			case wire.ErrOffsetOutOfRange:
				if err := c.handleReset(t.Name, p.Partition, p.LogStartOffset); err != nil {
					return out, err
				}
			case wire.ErrNotLeaderForPartition, wire.ErrUnknownTopicOrPartition,
				wire.ErrLeaderNotAvailable, wire.ErrBrokerNotAvailable:
				c.c.InvalidateMetadata()
			default:
				return out, p.Err.Err()
			}
		}
	}
	return out, nil
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
