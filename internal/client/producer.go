package client

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/storage/record"
	"repro/internal/wire"
)

// ErrProducerClosed reports sends on a closed producer.
var ErrProducerClosed = errors.New("client: producer closed")

// Message is a produced or consumed message.
type Message struct {
	Topic     string
	Partition int32 // assigned by the partitioner when producing
	Offset    int64 // assigned by the broker
	Timestamp int64 // ms since epoch; 0 lets the broker stamp append time
	Key       []byte
	Value     []byte
	Headers   []record.Header
}

// Partitioner chooses a partition for a message.
type Partitioner interface {
	Partition(msg *Message, numPartitions int32) int32
}

// HashPartitioner routes keyed messages by FNV-1a of the key (semantic
// routing: all updates for a key share a partition and therefore a total
// order) and unkeyed messages round-robin (load balancing), the two
// policies named in §3.1.
type HashPartitioner struct {
	mu sync.Mutex
	rr uint32
}

// Partition implements Partitioner.
func (h *HashPartitioner) Partition(msg *Message, numPartitions int32) int32 {
	if msg.Key == nil {
		h.mu.Lock()
		h.rr++
		v := h.rr
		h.mu.Unlock()
		return int32(v % uint32(numPartitions))
	}
	f := fnv.New32a()
	f.Write(msg.Key)
	return int32(f.Sum32() % uint32(numPartitions))
}

// RoundRobinPartitioner ignores keys and spreads messages evenly.
type RoundRobinPartitioner struct {
	mu sync.Mutex
	rr uint32
}

// Partition implements Partitioner.
func (r *RoundRobinPartitioner) Partition(_ *Message, numPartitions int32) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rr++
	return int32(r.rr % uint32(numPartitions))
}

// Codec selects the wire/storage compression of produced batches.
type Codec = record.Codec

// Producer batch codecs (all stdlib).
const (
	// CodecNone sends batches uncompressed.
	CodecNone = record.CodecNone
	// CodecGzip compresses batches with gzip.
	CodecGzip = record.CodecGzip
	// CodecFlate compresses batches with raw DEFLATE (smaller framing
	// than gzip, same algorithm).
	CodecFlate = record.CodecFlate
)

// ParseCodec maps a configuration string ("none", "gzip", "flate") to a
// Codec; CLIs use it for -codec flags.
func ParseCodec(s string) (Codec, error) { return record.ParseCodec(s) }

// ProducerConfig parameterises a Producer.
type ProducerConfig struct {
	// Acks selects durability: 0 fire-and-forget, 1 leader ack,
	// -1 all in-sync replicas (paper §4.3). Every acknowledged produce
	// (acks 1 or all) is idempotent: it carries a producer id, epoch and
	// per-partition sequence, letting brokers deduplicate retried batches
	// — a retry across a leader failover appends exactly once.
	// Fire-and-forget (AcksNone) sends never are: with no response there
	// is nothing to retry.
	Acks int16
	// BatchBytes flushes a partition's buffer when it grows past this.
	BatchBytes int
	// Linger bounds how long records wait for batching before the
	// background flusher sends them.
	Linger time.Duration
	// Partitioner routes messages; nil selects HashPartitioner.
	Partitioner Partitioner
	// TimeoutMs is the broker-side wait bound for acks=all.
	TimeoutMs int32
	// Codec compresses each flushed batch on the wire and in the log
	// (CodecNone, CodecGzip or CodecFlate). Brokers store, replicate and
	// serve the compressed batch verbatim; consumers decompress
	// transparently. Compression is per sealed batch, so topics may mix
	// codecs freely (paper §3.1: batches move through the brokers as
	// opaque blobs).
	Codec record.Codec
	// OnError receives asynchronous delivery failures (after retries).
	OnError func(Message, error)
	// Name optionally identifies the producer across restarts: a named
	// producer re-registering receives its stable producer id with a
	// bumped epoch, fencing a zombie instance still sending under the old
	// one. Anonymous producers get a fresh id per instance.
	Name string
}

func (c ProducerConfig) withDefaults() ProducerConfig {
	if c.Acks == 0 {
		// Acks 0 must be requested explicitly via AcksNone: a zero struct
		// gets safe leader acks.
		c.Acks = 1
	}
	if c.BatchBytes == 0 {
		c.BatchBytes = 64 << 10
	}
	if c.Linger == 0 {
		c.Linger = 5 * time.Millisecond
	}
	if c.Partitioner == nil {
		c.Partitioner = &HashPartitioner{}
	}
	if c.TimeoutMs == 0 {
		c.TimeoutMs = 5000
	}
	return c
}

// AcksNone is the explicit fire-and-forget setting for
// ProducerConfig.Acks.
const AcksNone int16 = -99

// AcksAll waits for the full in-sync replica set.
const AcksAll int16 = -1

// effectiveAcks maps the config sentinel to the wire value.
func effectiveAcks(acks int16) int16 {
	if acks == AcksNone {
		return 0
	}
	return acks
}

// Producer batches messages per partition and publishes them to partition
// leaders. Safe for concurrent use.
type Producer struct {
	c   *Client
	cfg ProducerConfig

	mu      sync.Mutex
	batches map[string]map[int32][]record.Record // topic -> partition -> pending
	pending int
	closed  bool

	// flushMu serialises flushOnce end to end (drain + delivery). Without
	// it, Flush could observe an empty buffer and return while a linger
	// tick was still delivering records enqueued before the Flush call —
	// breaking the "synchronously delivers everything buffered so far"
	// contract (and Close's equivalent). Holding it across delivery means
	// Flush returns only after any in-flight flush has finished AND the
	// remainder it drained itself is delivered or reported to OnError.
	flushMu sync.Mutex

	// throttle holds the broker's backpressure verdicts (ThrottleTimeMs
	// on produce responses); the next produce request honors them.
	throttle throttleTracker

	// idemMu guards the idempotence state below AND is held across each
	// stamped send: sequence allocation and delivery must not interleave
	// between concurrent produce calls, or a later sequence could reach the
	// broker first and be rejected as out of order.
	idemMu sync.Mutex
	pid    int64 // allocated producer id; -1 until initialised
	pepoch int32
	pidOK  bool                       // identity is live
	seqs   map[string]map[int32]int64 // topic -> partition -> next base sequence

	flushNow chan struct{}
	done     chan struct{}
}

// NewProducer creates a producer on a client.
func NewProducer(c *Client, cfg ProducerConfig) *Producer {
	p := &Producer{
		c:        c,
		cfg:      cfg.withDefaults(),
		batches:  make(map[string]map[int32][]record.Record),
		pid:      -1,
		seqs:     make(map[string]map[int32]int64),
		flushNow: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	go p.flushLoop()
	return p
}

// Send buffers a message for delivery, routed by the configured
// partitioner (Message.Partition is ignored; use SendExplicit for manual
// routing). Delivery happens on the next flush (size, linger, or explicit
// Flush).
func (p *Producer) Send(msg Message) error {
	n, err := p.c.PartitionCount(msg.Topic)
	if err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("%w: %s", ErrUnknownPartition, msg.Topic)
	}
	return p.enqueue(msg, p.cfg.Partitioner.Partition(&msg, n))
}

// SendExplicit buffers a message for the exact partition in
// Message.Partition, bypassing the partitioner. The processing layer uses
// it to route changelog updates to the owning task's partition.
func (p *Producer) SendExplicit(msg Message) error {
	n, err := p.c.PartitionCount(msg.Topic)
	if err != nil {
		return err
	}
	if msg.Partition < 0 || msg.Partition >= n {
		return fmt.Errorf("%w: %s/%d", ErrUnknownPartition, msg.Topic, msg.Partition)
	}
	return p.enqueue(msg, msg.Partition)
}

// enqueue adds a record to the partition's pending batch.
func (p *Producer) enqueue(msg Message, partition int32) error {
	rec := record.Record{
		Timestamp: msg.Timestamp,
		Key:       msg.Key,
		Value:     msg.Value,
		Headers:   msg.Headers,
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrProducerClosed
	}
	byPart, ok := p.batches[msg.Topic]
	if !ok {
		byPart = make(map[int32][]record.Record)
		p.batches[msg.Topic] = byPart
	}
	byPart[partition] = append(byPart[partition], rec)
	p.pending += len(msg.Key) + len(msg.Value) + 64
	needFlush := p.pending >= p.cfg.BatchBytes
	p.mu.Unlock()
	if needFlush {
		select {
		case p.flushNow <- struct{}{}:
		default:
		}
	}
	return nil
}

// SendSync delivers one message immediately (partitioner-routed),
// returning its assigned offset.
func (p *Producer) SendSync(msg Message) (int64, error) {
	n, err := p.c.PartitionCount(msg.Topic)
	if err != nil {
		return -1, err
	}
	partition := p.cfg.Partitioner.Partition(&msg, n)
	recs := []record.Record{{
		Timestamp: msg.Timestamp,
		Key:       msg.Key,
		Value:     msg.Value,
		Headers:   msg.Headers,
	}}
	return p.produce(msg.Topic, partition, recs)
}

// flushLoop sends buffered batches on linger expiry or explicit flush
// signals.
func (p *Producer) flushLoop() {
	ticker := time.NewTicker(p.cfg.Linger)
	defer ticker.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-ticker.C:
		case <-p.flushNow:
		}
		p.flushOnce()
	}
}

// Flush synchronously delivers everything buffered so far: when it
// returns, every record enqueued before the call has been delivered or
// reported to OnError — including records a concurrent linger tick claimed
// first (flushOnce is serialised, so Flush waits that delivery out).
func (p *Producer) Flush() error {
	return p.flushOnce()
}

// flushOnce drains the buffer and produces each partition's batch. The
// flush mutex covers the whole drain+deliver window; see its field doc.
func (p *Producer) flushOnce() error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.Lock()
	batches := p.batches
	p.batches = make(map[string]map[int32][]record.Record)
	p.pending = 0
	p.mu.Unlock()

	var firstErr error
	for topic, byPart := range batches {
		for partition, recs := range byPart {
			if len(recs) == 0 {
				continue
			}
			if _, err := p.produce(topic, partition, recs); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				if p.cfg.OnError != nil {
					for _, r := range recs {
						p.cfg.OnError(Message{
							Topic: topic, Partition: partition,
							Key: r.Key, Value: r.Value, Timestamp: r.Timestamp,
						}, err)
					}
				}
			}
		}
	}
	return firstErr
}

// noteThrottle records a ThrottleTimeMs verdict from a produce response.
func (p *Producer) noteThrottle(ms int32) { p.throttle.note(0, ms) }

// Throttled reports how often the producer was throttled by broker quotas
// and the cumulative delay it honored.
func (p *Producer) Throttled() ThrottleStats { return p.throttle.throttled() }

// idempotent reports whether this producer stamps batches with a producer
// identity: every acknowledged produce does, AcksNone never.
func (p *Producer) idempotent() bool { return p.cfg.Acks != AcksNone }

// ensureIdentityLocked initialises the producer identity on first use (and
// after a terminal delivery failure invalidated it). Called with idemMu
// held.
func (p *Producer) ensureIdentityLocked() error {
	if p.pidOK {
		return nil
	}
	id, epoch, err := p.c.InitProducer(p.cfg.Name)
	if err != nil {
		return fmt.Errorf("client: init producer: %w", err)
	}
	p.pid, p.pepoch, p.pidOK = id, epoch, true
	// A fresh identity starts a fresh sequence space: named producers keep
	// their id but produce under a higher epoch, which resets the broker's
	// window; anonymous producers get a new id entirely.
	p.seqs = make(map[string]map[int32]int64)
	return nil
}

// nextSeqLocked returns the partition's next base sequence (idemMu held).
func (p *Producer) nextSeqLocked(topic string, partition int32) int64 {
	byPart, ok := p.seqs[topic]
	if !ok {
		byPart = make(map[int32]int64)
		p.seqs[topic] = byPart
	}
	return byPart[partition]
}

// produce delivers one batch to the partition leader with retries,
// returning the base offset (or -1 for acks=0). Zero timestamps are
// stamped with send time here: the broker appends the sealed batch
// verbatim and never rewrites record timestamps.
//
// Idempotent sends (the default for acked produces) stamp the sealed batch
// once with (producerID, epoch, baseSequence) BEFORE the retry loop: every
// retry resends the identical bytes, so a broker that already appended the
// batch — the classic acks=all resend window, where the ack was lost to a
// leader failover — recognises it and answers with the original offsets
// (ErrDuplicateSequence, handled here as success) instead of appending
// twice. On a terminal failure the delivery outcome is unknown, so the
// identity is invalidated and the next send re-registers: the app saw an
// error, and a fresh id/epoch guarantees the broker never silently matches
// a later batch against the orphaned sequence.
func (p *Producer) produce(topic string, partition int32, recs []record.Record) (int64, error) {
	// Honor any outstanding quota verdict (the client half of
	// backpressure; verdicts are server-capped, so the wait is bounded).
	// A closing producer's final flush ships without the wait — see the
	// cooperative-honoring note on throttleTracker.
	p.throttle.await(0, time.Hour, p.done)
	now := time.Now().UnixMilli()
	for i := range recs {
		if recs[i].Timestamp == 0 {
			recs[i].Timestamp = now
		}
	}
	payload := record.EncodeBatch(0, recs)
	if p.cfg.Codec != record.CodecNone {
		sealed, err := record.Compress(payload, p.cfg.Codec)
		if err != nil {
			return -1, fmt.Errorf("client: compress batch: %w", err)
		}
		payload = sealed
	}
	idem := p.idempotent()
	if idem {
		// idemMu is held across the whole delivery so concurrent produce
		// calls cannot reorder sequences on the wire.
		p.idemMu.Lock()
		defer p.idemMu.Unlock()
		if err := p.ensureIdentityLocked(); err != nil {
			return -1, err
		}
		if err := record.StampProducer(payload, p.pid, p.pepoch, p.nextSeqLocked(topic, partition)); err != nil {
			return -1, err
		}
	}
	req := &wire.ProduceRequest{
		RequiredAcks: effectiveAcks(p.cfg.Acks),
		TimeoutMs:    p.cfg.TimeoutMs,
		Topics: []wire.ProduceTopic{{
			Name:       topic,
			Partitions: []wire.ProducePartition{{Partition: partition, Records: payload}},
		}},
	}
	if p.cfg.Acks == AcksNone {
		// Fire-and-forget: no response frame exists.
		leader, err := p.c.LeaderFor(topic, partition)
		if err != nil {
			return -1, err
		}
		conn, err := p.c.ConnTo(leader)
		if err != nil {
			return -1, err
		}
		if err := conn.SendOnly(wire.APIProduce, req); err != nil {
			p.c.dropConn(leader)
			return -1, err
		}
		return -1, nil
	}
	var base int64 = -1
	err := p.c.withLeaderRetry(topic, partition, func(conn *Conn) (wire.ErrorCode, error) {
		var resp wire.ProduceResponse
		if err := conn.RoundTrip(wire.APIProduce, req, &resp); err != nil {
			return wire.ErrNone, err
		}
		p.noteThrottle(resp.ThrottleTimeMs)
		if len(resp.Topics) != 1 || len(resp.Topics[0].Partitions) != 1 {
			return wire.ErrNone, errors.New("client: malformed produce response")
		}
		pr := resp.Topics[0].Partitions[0]
		base = pr.BaseOffset
		if pr.Err == wire.ErrDuplicateSequence {
			// A retry the broker deduplicated: the records are in the log
			// exactly once, at the base offset this response carries.
			return wire.ErrNone, nil
		}
		return pr.Err, nil
	})
	if idem {
		if err == nil {
			p.seqs[topic][partition] += int64(len(recs))
		} else {
			p.pidOK = false
		}
	}
	// Acked-record accounting happens exactly here — the single point
	// where an acked produce resolves successfully — so the counter equals
	// the number of records the application saw confirmed (the chaos
	// suite's conservation invariant depends on that equality).
	if err == nil && p.c.met != nil {
		p.c.met.produceAcked.With(topic).Add(int64(len(recs)))
	}
	return base, err
}

// Close flushes outstanding messages and stops the producer.
func (p *Producer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	return p.flushOnce()
}
