package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
	"repro/internal/workload"
)

// rewind: the rewinding batch reader on the same log. 1 broker, 4
// partitions, RF=1, preloaded with flate-sealed RUM events; one reader scans
// from offset 0 to the preloaded end, seeks back and repeats, while one
// paced writer keeps appending to the same topic and times its own Flush —
// the guard that a read-path gain is not paid for by writers. The data fits
// the OS page cache.

const (
	rewindTopic      = "events"
	rewindPartitions = 4
	rewindBytes      = 64 << 20 // uncompressed key+value bytes preloaded
	rewindSmokeBytes = 1 << 20
	preloadRound     = 256 << 10 // preload sends this much, then flushes
	tailEvery        = 10 * time.Millisecond
	tailRecs         = 10 // records the paced writer sends per tick
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// eventSet is a generated, preloaded feed and what a full scan of it must
// add up to.
type eventSet struct {
	count  int64
	bytes  int64  // key+value bytes
	crcSum uint64 // sum of CRC-32C(value) over all events: order-independent
	ends   []int64
	sha    string
	sample []record.Record // one produce batch's worth, for the probes
}

// preload generates events until total key+value bytes reach limit (or
// count reaches maxCount, when positive) and produces them flate-sealed in
// closed-loop rounds. next returns one event's key and value.
func preload(s *core.Stack, topic string, partitions int32, limit int64, maxCount int64, next func() (key, value []byte)) (*eventSet, error) {
	prod := s.NewProducer(client.ProducerConfig{Acks: 1, Codec: client.CodecFlate, BatchBytes: preloadRound})
	defer prod.Close()
	set := &eventSet{}
	h := sha256.New()
	pending := 0
	for (limit <= 0 || set.bytes < limit) && (maxCount <= 0 || set.count < maxCount) {
		k, v := next()
		h.Write(k)
		h.Write(v)
		set.count++
		set.bytes += int64(len(k) + len(v))
		set.crcSum += uint64(crc32.Checksum(v, castagnoli))
		if len(set.sample) < preloadRound/int(partitions)/(len(k)+len(v)) {
			set.sample = append(set.sample, record.Record{Timestamp: 1, Key: k, Value: v})
		}
		if err := prod.Send(client.Message{Topic: topic, Key: k, Value: v}); err != nil {
			return nil, err
		}
		if pending += len(k) + len(v); pending >= preloadRound {
			pending = 0
			if err := prod.Flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := prod.Flush(); err != nil {
		return nil, err
	}
	ends, err := endOffsets(s, topic, partitions)
	if err != nil {
		return nil, err
	}
	if sum(ends) != set.count {
		return nil, fmt.Errorf("preload of %s: log holds %d records, sent %d", topic, sum(ends), set.count)
	}
	set.ends = ends
	set.sha = hex.EncodeToString(h.Sum(nil))
	return set, nil
}

type rewindFx struct {
	s      *core.Stack
	set    *eventSet
	gen    *workload.RUMGenerator // the paced writer continues the same event stream
	writer *client.Producer
	tailed int64 // records the paced writer has had acked since set-up
	tailB  int64 // and their bytes
}

func setupRewind(e *env, _ time.Duration) (fixture, error) {
	s, err := e.startStack("rewind", 1, log.SyncNone)
	if err != nil {
		return nil, err
	}
	f := &rewindFx{s: s, gen: workload.NewRUM(workload.RUMConfig{Seed: e.cfg.seed}, 1_700_000_000_000)}
	if err := s.CreateFeed(rewindTopic, rewindPartitions, 1); err != nil {
		f.close()
		return nil, err
	}
	limit := int64(rewindBytes)
	if e.cfg.smoke {
		limit = rewindSmokeBytes
	}
	f.set, err = preload(s, rewindTopic, rewindPartitions, limit, 0, func() ([]byte, []byte) {
		return nil, f.gen.Next().Encode()
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.writer = s.NewProducer(client.ProducerConfig{Acks: 1})
	return f, nil
}

func (f *rewindFx) stack() *core.Stack  { return f.s }
func (f *rewindFx) inputSHA256() string { return f.set.sha }
func (f *rewindFx) userBytes() float64  { return float64(f.set.bytes + f.tailB) }

func (f *rewindFx) close() {
	if f.writer != nil {
		f.writer.Close()
	}
	f.s.Shutdown()
}

func (f *rewindFx) shape() probeShape {
	return probeShape{records: f.set.sample, codec: record.CodecFlate, fetchBytes: 4 << 20, policy: log.SyncNone}
}

// scan is the reader's account of one pass over the preloaded feed.
type scan struct {
	next   []int64
	count  int64
	bytes  int64
	crcSum uint64
	bad    int64 // offsets out of order
}

func (f *rewindFx) measure(window time.Duration, tr *tracer, _ int) (*sample, error) {
	cons := f.s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	for p := int32(0); p < rewindPartitions; p++ {
		if err := cons.Assign(rewindTopic, p, 0); err != nil {
			return nil, err
		}
	}

	var stop atomic.Bool
	type tailResult struct {
		flushes []timed
		sent    int64
		bytes   int64
		failed  int64
	}
	tailDone := make(chan tailResult, 1)
	start := time.Now()
	go func() {
		var r tailResult
		for k := 0; !stop.Load(); k++ {
			due := time.Duration(k) * tailEvery
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			var b int64
			ok := true
			for j := 0; j < tailRecs; j++ {
				v := f.gen.Next().Encode()
				b += int64(len(v))
				if err := f.writer.Send(client.Message{Topic: rewindTopic, Value: v}); err != nil {
					ok = false
				}
			}
			sp := tr.start("client.flush", 0)
			err := f.writer.Flush()
			d := sp.end()
			if err != nil || !ok {
				r.failed += tailRecs
				continue
			}
			r.sent += tailRecs
			r.bytes += b
			r.flushes = append(r.flushes, timed{at: time.Since(start), dur: d})
		}
		tailDone <- r
	}()

	cpu0 := cpuTime()
	var (
		sc         = scan{next: make([]int64, rewindPartitions)}
		polls      []float64
		empty      int
		pollErrs   int64
		delivered  int64 // records of the preloaded range delivered in the window
		deliveredB int64
		passes     int64
		badPasses  int64
	)
	for time.Since(start) < window {
		sp := tr.start("client.poll", 0)
		msgs, err := cons.Poll(100 * time.Millisecond)
		polls = append(polls, float64(sp.end())/1e6)
		if err != nil {
			pollErrs++
			continue
		}
		if len(msgs) == 0 {
			empty++
		}
		for i := range msgs {
			m := &msgs[i]
			if m.Offset >= f.set.ends[m.Partition] {
				continue // the paced writer's records, beyond the preloaded range
			}
			if m.Offset != sc.next[m.Partition] {
				sc.bad++
			}
			sc.next[m.Partition] = m.Offset + 1
			sc.count++
			sc.bytes += int64(len(m.Key) + len(m.Value))
			sc.crcSum += uint64(crc32.Checksum(m.Value, castagnoli))
		}
		complete := true
		for p := range sc.next {
			if sc.next[p] < f.set.ends[p] {
				complete = false
			}
		}
		if !complete {
			continue
		}
		// A full pass: it must add up to exactly what was generated.
		passes++
		if sc.count != f.set.count || sc.bytes != f.set.bytes || sc.crcSum != f.set.crcSum || sc.bad != 0 {
			badPasses++
		}
		delivered += sc.count
		deliveredB += sc.bytes
		sc = scan{next: make([]int64, rewindPartitions)}
		for p := int32(0); p < rewindPartitions; p++ {
			if err := cons.Seek(rewindTopic, p, 0); err != nil {
				return nil, err
			}
		}
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	delivered += sc.count
	deliveredB += sc.bytes
	stop.Store(true)
	tl := <-tailDone
	f.tailed += tl.sent
	f.tailB += tl.bytes

	// The log must hold exactly the preloaded events plus what the paced
	// writer had acked.
	ends, err := endOffsets(f.s, rewindTopic, rewindPartitions)
	if err != nil {
		return nil, err
	}
	s := &sample{
		records:   delivered + tl.sent,
		cpu:       cpu,
		attempted: delivered + tl.sent + tl.failed,
		failed:    sc.bad + badPasses*f.set.count + tl.failed + pollErrs + abs(sum(ends)-f.set.count-f.tailed),
		layer:     make(map[string]float64),
		stages: []stage{
			{"log.read_range", 1}, {"wire.encode_fetch", 1}, {"wire.decode_fetch", 1},
			{"record.decompress", 1}, {"record.decode", 1},
		},
	}
	if passes == 0 {
		s.invalid = "the reader did not finish one pass over the preloaded feed"
	}
	s.throughputMBs = float64(deliveredB) / 1e6 / elapsed.Seconds()
	s.latP50ms = slicedQuantileMs(tl.flushes, window, time.Second, 0.50, 20)
	s.latP99ms = slicedQuantileMs(tl.flushes, window, window, 0.99, 1)
	flushMs := make([]float64, len(tl.flushes))
	for i, fl := range tl.flushes {
		flushMs[i] = float64(fl.dur) / 1e6
	}
	s.layer["client.flush_ms_p50"] = quantile(flushMs, 0.50)
	s.layer["client.flush_ms_p99"] = quantile(flushMs, 0.99)
	s.layer["client.recs_per_flush"] = tailRecs
	s.layer["client.poll_ms_p50"] = quantile(polls, 0.50)
	s.layer["client.recs_per_poll"] = ratio(float64(delivered), float64(len(polls)-empty))
	s.layer["client.empty_poll_share"] = ratio(float64(empty), float64(len(polls)))
	return s, nil
}
