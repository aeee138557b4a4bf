package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/wire"
)

const (
	valueBytes = 1 << 10 // ingest and nearline record size
	poolValues = 4096    // distinct seeded values the writers cycle through
	roundRecs  = 256     // a closed-loop writer sends this many values (256 KiB), then flushes
	stampBytes = 16      // sequence number and due time at the head of each value
)

// valuePool holds the seeded 1 KiB values of the ingest and nearline
// workloads. Record i carries pool value i%poolValues with its first 16
// bytes overwritten by the sequence number i and the time it was due, so a
// reader can check every record it receives against the generator.
type valuePool struct {
	values [][]byte
	sha    hash.Hash
}

func newValuePool(seed int64) *valuePool {
	rng := rand.New(rand.NewSource(seed))
	p := &valuePool{values: make([][]byte, poolValues), sha: sha256.New()}
	for i := range p.values {
		v := make([]byte, valueBytes)
		rng.Read(v) // math/rand's Read never fails
		p.values[i] = v
		p.sha.Write(v)
	}
	return p
}

func (p *valuePool) sha256() string { return hex.EncodeToString(p.sha.Sum(nil)) }

// stamp fills dst with record seq's value.
func (p *valuePool) stamp(dst []byte, seq int64, due time.Duration) {
	copy(dst, p.values[seq%poolValues])
	binary.BigEndian.PutUint64(dst[0:8], uint64(seq))
	binary.BigEndian.PutUint64(dst[8:16], uint64(due))
}

// check reports whether v is the value the pool generates for the sequence
// number it carries, and returns that number and the due time.
func (p *valuePool) check(v []byte) (seq int64, due time.Duration, ok bool) {
	if len(v) != valueBytes {
		return 0, 0, false
	}
	seq = int64(binary.BigEndian.Uint64(v[0:8]))
	due = time.Duration(binary.BigEndian.Uint64(v[8:16]))
	if seq < 0 {
		return seq, due, false
	}
	want := p.values[seq%poolValues]
	return seq, due, string(v[stampBytes:]) == string(want[stampBytes:])
}

// closedLoop is the closed-loop writer of ingest and of nearline's capacity
// phase: send one round (256 KiB of values), Flush, repeat. Producer.Send never
// blocks, so the writer bounds its own in-flight data this way.
type closedLoop struct {
	prod  *client.Producer
	topic string
	pool  *valuePool
	bufs  [][]byte // one buffer per record of a round; free again once Flush returns
	seq   int64    // next sequence number

	failedRecs int64
}

func newClosedLoop(prod *client.Producer, topic string, pool *valuePool) *closedLoop {
	c := &closedLoop{prod: prod, topic: topic, pool: pool, bufs: make([][]byte, roundRecs)}
	for i := range c.bufs {
		c.bufs[i] = make([]byte, valueBytes)
	}
	return c
}

// round sends and flushes one round and returns how long the sends and the
// flush took.
func (c *closedLoop) round(tr *tracer, epoch time.Time) (send, flush time.Duration) {
	r := tr.start("round", 0)
	s := tr.start("client.send", r.id)
	failed := false
	due := time.Since(epoch)
	for _, buf := range c.bufs {
		c.pool.stamp(buf, c.seq, due)
		c.seq++
		if err := c.prod.Send(client.Message{Topic: c.topic, Value: buf}); err != nil {
			failed = true
		}
	}
	send = s.end()
	f := tr.start("client.flush", r.id)
	if err := c.prod.Flush(); err != nil {
		failed = true
	}
	flush = f.end()
	r.end()
	if failed {
		c.failedRecs += roundRecs
	}
	return send, flush
}

// loopStats is what a closed-loop window observed.
type loopStats struct {
	rounds  []timed // round completion time and duration
	sendNs  float64 // total time in Send
	flushes []float64
	elapsed time.Duration
}

// run repeats rounds until window has passed.
func (c *closedLoop) run(window time.Duration, tr *tracer, epoch time.Time) loopStats {
	var st loopStats
	start := time.Now()
	for {
		t0 := time.Now()
		if t0.Sub(start) >= window {
			break
		}
		send, flush := c.round(tr, epoch)
		now := time.Now()
		st.rounds = append(st.rounds, timed{at: now.Sub(start), dur: now.Sub(t0)})
		st.sendNs += float64(send)
		st.flushes = append(st.flushes, float64(flush)/1e6)
	}
	st.elapsed = time.Since(start)
	return st
}

// rateMBs is the payload rate of a closed-loop window: the median over
// whole seconds of the payload acked in that second.
func (st loopStats) rateMBs(window time.Duration) float64 {
	return slicedRate(st.rounds, roundRecs*valueBytes/1e6, window, time.Second)
}

// clientLayer fills in the client-layer metrics of a closed-loop window.
func (st loopStats) clientLayer(layer map[string]float64) {
	n := float64(len(st.rounds))
	if n == 0 {
		return
	}
	layer["client.send_ns_per_rec"] = st.sendNs / (n * roundRecs)
	layer["client.flush_ms_p50"] = quantile(st.flushes, 0.50)
	layer["client.flush_ms_p99"] = quantile(st.flushes, 0.99)
	layer["client.recs_per_flush"] = roundRecs
}

// endOffsets returns every partition's log end offset.
func endOffsets(s *core.Stack, topic string, partitions int32) ([]int64, error) {
	out := make([]int64, partitions)
	for p := int32(0); p < partitions; p++ {
		end, err := s.Client().ListOffset(topic, p, wire.TimestampLatest)
		if err != nil {
			return nil, fmt.Errorf("end offset of %s/%d: %w", topic, p, err)
		}
		out[p] = end
	}
	return out, nil
}

func sum(vals []int64) int64 {
	var t int64
	for _, v := range vals {
		t += v
	}
	return t
}
