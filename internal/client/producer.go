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

// Message is a produced or consumed message. A consumed message's Key, Value
// and header values are the caller's to keep, across polls too; they share
// their batch's decode arena (record.DecodeBatch), so a long-lived holder of
// a few messages clones them rather than pin whole batches.
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
	// CodecFlate compresses batches with raw DEFLATE.
	CodecFlate = record.CodecFlate
)

// ParseCodec maps a configuration string ("none", "flate", or empty for
// none) to a Codec; CLIs use it for -codec flags. Any other name, the
// retired "gzip" included, is an error.
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
	// BatchBytes triggers a flush once the records pending across all
	// partitions grow past this: it sizes a flush — and so each leader's
	// produce request — not one partition's batch.
	BatchBytes int
	// Linger bounds how long records wait for batching before the
	// background flusher sends them.
	Linger time.Duration
	// Partitioner routes messages; nil selects HashPartitioner.
	Partitioner Partitioner
	// TimeoutMs is the broker-side wait bound for acks=all.
	TimeoutMs int32
	// Codec compresses each flushed batch on the wire and in the log
	// (CodecNone or CodecFlate). Brokers store, replicate and
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
	// stamped delivery (a whole produce call, all leaders, all retries):
	// sequence allocation and delivery must not interleave between
	// concurrent produce calls, or a later sequence could reach the broker
	// first and be rejected as out of order.
	idemMu sync.Mutex
	pid    int64 // allocated producer id; -1 until initialised
	pepoch int32
	pidOK  bool             // identity is live
	seqs   map[string]int64 // tpKey -> next base sequence

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
		seqs:     make(map[string]int64),
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
	b := &partitionBatch{
		topic:     msg.Topic,
		partition: p.cfg.Partitioner.Partition(&msg, n),
		recs: []record.Record{{
			Timestamp: msg.Timestamp,
			Key:       msg.Key,
			Value:     msg.Value,
			Headers:   msg.Headers,
		}},
	}
	p.produce([]*partitionBatch{b})
	return b.base, b.err
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

// flushOnce drains the buffer and produces every partition's batch in one
// produce call. The flush mutex covers the whole drain+deliver window; see
// its field doc.
func (p *Producer) flushOnce() error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.Lock()
	drained := p.batches
	p.batches = make(map[string]map[int32][]record.Record)
	p.pending = 0
	p.mu.Unlock()

	var batches []*partitionBatch
	for topic, byPart := range drained {
		for partition, recs := range byPart {
			if len(recs) > 0 {
				batches = append(batches, &partitionBatch{topic: topic, partition: partition, recs: recs})
			}
		}
	}
	if len(batches) == 0 {
		return nil
	}
	p.produce(batches)
	var firstErr error
	for _, b := range batches {
		if b.err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = b.err
		}
		if p.cfg.OnError != nil {
			for _, r := range b.recs {
				p.cfg.OnError(Message{
					Topic: b.topic, Partition: b.partition, Timestamp: r.Timestamp,
					Key: r.Key, Value: r.Value, Headers: r.Headers,
				}, b.err)
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
	p.seqs = make(map[string]int64)
	return nil
}

// partitionBatch is one partition's share of a produce call: its records,
// the sealed bytes every attempt resends, and — once resolved — the outcome.
type partitionBatch struct {
	topic     string
	partition int32
	recs      []record.Record
	payload   []byte // sealed (and, if idempotent, stamped) exactly once
	resolved  bool   // acked or terminally failed; unresolved batches retry
	base      int64  // broker-assigned base offset once acked (-1 for acks=0)
	err       error  // nil once acked; else the last (or terminal) failure
}

// produce delivers one batch per partition and returns once every one of
// them is resolved, outcomes in each batch's base/err. Each attempt groups
// the unresolved batches by current leader and sends ONE produce request per
// leader, carrying all of that leader's partitions, the leaders concurrently.
// A retriable code or a connection error leaves just the affected partitions
// unresolved; after a backoff and a metadata refresh they are regrouped by
// their new leaders and resent, under the client's MaxRetries. Zero
// timestamps are stamped with send time here: the broker appends the sealed
// batch verbatim and never rewrites record timestamps.
//
// Idempotent sends (the default for acked produces) stamp each sealed batch
// once with (producerID, epoch, baseSequence) BEFORE the first attempt: every
// retry resends the identical bytes, so a broker that already appended the
// batch — the ack was lost to a leader failover — answers with the original
// offsets (ErrDuplicateSequence, success here) instead of appending twice.
// Per-partition order holds because idemMu is held across the whole call —
// one produce in flight at a time, one batch per partition in it. A terminal
// failure leaves the outcome unknown, so the identity is invalidated and the
// next send re-registers: a fresh id/epoch guarantees the broker never
// matches a later batch against the orphaned sequence.
func (p *Producer) produce(batches []*partitionBatch) {
	// Honor any outstanding quota verdict (the client half of
	// backpressure; verdicts are server-capped, so the wait is bounded).
	// A closing producer's final flush ships without the wait — see the
	// cooperative-honoring note on throttleTracker.
	p.throttle.await(0, time.Hour, p.done)
	fail := func(err error) {
		for _, b := range batches {
			b.err = err
		}
	}
	now := time.Now().UnixMilli()
	for _, b := range batches {
		b.base = -1
		for i := range b.recs {
			if b.recs[i].Timestamp == 0 {
				b.recs[i].Timestamp = now
			}
		}
		b.payload = record.EncodeBatch(0, b.recs)
		if p.cfg.Codec != record.CodecNone {
			sealed, err := record.Compress(b.payload, p.cfg.Codec)
			if err != nil {
				fail(fmt.Errorf("client: compress batch: %w", err))
				return
			}
			b.payload = sealed
		}
	}
	idem := p.idempotent()
	if idem {
		p.idemMu.Lock()
		defer p.idemMu.Unlock()
		if err := p.ensureIdentityLocked(); err != nil {
			fail(err)
			return
		}
		for _, b := range batches {
			if err := record.StampProducer(b.payload, p.pid, p.pepoch, p.seqs[tpKey(b.topic, b.partition)]); err != nil {
				fail(err)
				return
			}
		}
	}

	unresolved := batches
	for attempt := 0; len(unresolved) > 0 && attempt <= p.c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(p.c.cfg.RetryBackoff)
			p.c.InvalidateMetadata()
		}
		byLeader := make(map[int32][]*partitionBatch)
		for _, b := range unresolved {
			leader, err := p.c.LeaderFor(b.topic, b.partition)
			if err != nil {
				b.err = err
				continue
			}
			byLeader[leader] = append(byLeader[leader], b)
		}
		var wg sync.WaitGroup
		for leader, bs := range byLeader {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.sendToLeader(leader, bs)
			}()
		}
		wg.Wait()
		var still []*partitionBatch
		for _, b := range unresolved {
			if !b.resolved {
				still = append(still, b)
			}
		}
		unresolved = still
	}
	for _, b := range unresolved {
		b.err = fmt.Errorf("client: retries exhausted for %s/%d: %w", b.topic, b.partition, b.err)
	}

	if !idem {
		return // fire-and-forget: nothing was confirmed, nothing to account
	}
	for _, b := range batches {
		if b.err != nil {
			p.pidOK = false
			continue
		}
		p.seqs[tpKey(b.topic, b.partition)] += int64(len(b.recs))
		// Acked-record accounting happens exactly here — the single point
		// where an acked produce resolves successfully — so the counter
		// equals the number of records the application saw confirmed (the
		// chaos suite's conservation invariant depends on that equality).
		if p.c.met != nil {
			p.c.met.produceAcked.With(b.topic).Add(int64(len(b.recs)))
		}
	}
}

// sendToLeader is the one place produce requests go on the wire: a single
// request carrying every given batch to the broker leading their
// partitions, resolved per partition from the response (which answers the
// request's partitions in request order). A connection-level failure leaves
// all of them unresolved for produce's next attempt.
func (p *Producer) sendToLeader(leader int32, batches []*partitionBatch) {
	req := &wire.ProduceRequest{RequiredAcks: effectiveAcks(p.cfg.Acks), TimeoutMs: p.cfg.TimeoutMs}
	for _, b := range batches {
		if n := len(req.Topics); n == 0 || req.Topics[n-1].Name != b.topic {
			req.Topics = append(req.Topics, wire.ProduceTopic{Name: b.topic})
		}
		t := &req.Topics[len(req.Topics)-1]
		t.Partitions = append(t.Partitions, wire.ProducePartition{Partition: b.partition, Records: b.payload})
	}
	var answers []wire.ProduceRespPartition
	conn, err := p.c.ConnTo(leader)
	switch {
	case err != nil: // no connection: every batch stays unresolved below
	case p.cfg.Acks == AcksNone:
		// Fire-and-forget: no response frame exists, so whatever happened
		// to the write is the outcome.
		if err = conn.SendOnly(wire.APIProduce, req); err != nil {
			p.c.dropConn(leader)
		}
		for _, b := range batches {
			b.resolved, b.err = true, err
		}
		return
	default:
		var resp wire.ProduceResponse
		if err = conn.RoundTrip(wire.APIProduce, req, &resp); err == nil {
			p.noteThrottle(resp.ThrottleTimeMs)
			for _, t := range resp.Topics {
				answers = append(answers, t.Partitions...)
			}
			if len(answers) != len(batches) {
				err = errors.New("client: malformed produce response")
			}
		}
		if err != nil {
			p.c.dropConn(leader)
		}
	}
	for i, b := range batches {
		switch {
		case err != nil:
			b.err = err
		case answers[i].Err == wire.ErrNone, answers[i].Err == wire.ErrDuplicateSequence:
			// ErrDuplicateSequence is a retry the broker deduplicated: the
			// records are in the log exactly once, at the base offset this
			// response carries.
			b.resolved, b.base, b.err = true, answers[i].BaseOffset, nil
		default:
			b.resolved, b.err = !answers[i].Err.Retriable(), answers[i].Err.Err()
		}
	}
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
