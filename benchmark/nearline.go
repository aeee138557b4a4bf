package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
)

// nearline: the paper's nearline use. 3 brokers, 8 partitions, RF=3,
// acks=all, group-commit fsync, no codec, producer on its own defaults.
// Phase A (2/3 of the window): open loop at a fixed rate, each record timed
// from when it was due to when the tailing consumer's Poll returned it.
// Phase B (1/3): closed loop on the same stack, for replicated capacity.
// The tailing consumer stays attached through both and checks every record.

const (
	nearlineTopic      = "nearline"
	nearlinePartitions = 8
	nearlineRate       = 4000 // records per second in phase A
	nearlineTick       = time.Millisecond
	nearlineLateMs     = 50.0 // a generator later than this invalidates the run
)

type nearlineFx struct {
	s     *core.Stack
	pool  *valuePool
	prod  *client.Producer
	loop  *closedLoop
	epoch time.Time // due times are durations since this
}

func setupNearline(e *env, _ time.Duration) (fixture, error) {
	f := &nearlineFx{pool: newValuePool(e.cfg.seed), epoch: time.Now()}
	s, err := e.startStack("nearline", 3, log.SyncGroup)
	if err != nil {
		return nil, err
	}
	f.s = s
	if err := s.CreateFeed(nearlineTopic, nearlinePartitions, 3); err != nil {
		f.close()
		return nil, err
	}
	f.prod = s.NewProducer(client.ProducerConfig{Acks: client.AcksAll})
	f.loop = newClosedLoop(f.prod, nearlineTopic, f.pool)
	// Warm-up, counted as set-up: producer id, connections to all three
	// leaders, follower fetch sessions, first group commits.
	warm := 16
	if e.cfg.smoke {
		warm = 1
	}
	for i := 0; i < warm; i++ {
		f.loop.round(nil, f.epoch)
	}
	if f.loop.failedRecs > 0 {
		f.close()
		return nil, fmt.Errorf("nearline warm-up: %d records failed", f.loop.failedRecs)
	}
	return f, nil
}

func (f *nearlineFx) stack() *core.Stack  { return f.s }
func (f *nearlineFx) inputSHA256() string { return f.pool.sha256() }
func (f *nearlineFx) userBytes() float64  { return float64(f.loop.seq) * valueBytes }

func (f *nearlineFx) close() {
	if f.prod != nil {
		f.prod.Close()
	}
	f.s.Shutdown()
}

func (f *nearlineFx) shape() probeShape {
	// 4 records a millisecond round-robin over 8 partitions under a 5 ms
	// linger: a produce request carries two or three values.
	recs := make([]record.Record, 3)
	for i := range recs {
		v := make([]byte, valueBytes)
		f.pool.stamp(v, int64(i), 0)
		recs[i] = record.Record{Timestamp: 1, Value: v}
	}
	return probeShape{records: recs, codec: record.CodecNone, fetchBytes: 4 << 10, policy: log.SyncGroup}
}

// tail is the tailing consumer's side of a pass.
type tail struct {
	chk       *seqChecker
	openUntil int64 // sequence numbers below this were sent open-loop and are timed
	lat       []timed
	polls     []float64 // Poll durations, ms
	empty     int
	received  atomic.Int64
	stop      atomic.Bool
	wantTotal atomic.Int64 // set once the writer is done
	pollErrs  int64
}

func (f *nearlineFx) measure(window time.Duration, tr *tracer, _ int) (*sample, error) {
	windowA := window * 2 / 3
	windowB := window - windowA
	firstSeq := f.loop.seq
	perTick := nearlineRate / int(time.Second/nearlineTick)
	ticks := int(windowA / nearlineTick)

	cons := f.s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	for p := int32(0); p < nearlinePartitions; p++ {
		if err := cons.Assign(nearlineTopic, p, client.StartLatest); err != nil {
			return nil, err
		}
	}
	tl := &tail{
		chk:       newSeqChecker(f.pool, nearlinePartitions, firstSeq),
		openUntil: firstSeq + int64(ticks*perTick),
		lat:       make([]timed, 0, ticks*perTick),
	}
	tl.wantTotal.Store(-1)
	startA := time.Now()
	startDue := startA.Sub(f.epoch)
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.tailLoop(cons, tl, tr, startDue)
	}()

	cpu0 := cpuTime()
	// Phase A: open loop. Tick k is due at startA + k ms whether or not the
	// system kept up; Send never blocks, so only the scheduler can make the
	// generator late, and how late it ran is reported.
	var sendFailed int64
	var lateMax time.Duration
	for k := 0; k < ticks; k++ {
		due := time.Duration(k) * nearlineTick
		if wait := due - time.Since(startA); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(startA) - due; late > lateMax {
			lateMax = late
		}
		sp := tr.start("client.send", 0)
		for j := 0; j < perTick; j++ {
			v := make([]byte, valueBytes) // the producer keeps it until its own linger flush
			f.pool.stamp(v, f.loop.seq, startDue+due)
			f.loop.seq++
			if err := f.prod.Send(client.Message{Topic: nearlineTopic, Value: v}); err != nil {
				sendFailed++
			}
		}
		sp.end()
	}
	if err := f.prod.Flush(); err != nil {
		sendFailed++
	}
	sentA := f.loop.seq - firstSeq
	backlog := sentA - tl.received.Load()
	// CPU is charged per record of the open-loop phase only: its record
	// count is fixed by the schedule, so the metric is what the stack burns
	// to carry a fixed nearline load and does not move with phase B's rate.
	cpu := cpuTime() - cpu0

	// Phase B: closed loop, replicated capacity.
	failedBefore := f.loop.failedRecs
	st := f.loop.run(windowB, tr, f.epoch)
	sentB := int64(len(st.rounds)) * roundRecs

	// Drain: the consumer must see every record sent, exactly once.
	tl.wantTotal.Store(sentA + sentB)
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		tl.stop.Store(true)
		<-done
	}

	s := &sample{
		records:   sentA,
		cpu:       cpu,
		attempted: 2 * (sentA + sentB), // each record is sent and is delivered
		failed:    sendFailed + (f.loop.failedRecs - failedBefore) + tl.chk.bad + tl.chk.missing(f.loop.seq) + tl.pollErrs,
		layer:     make(map[string]float64),
		stages: []stage{
			{"record.encode", 1}, {"wire.encode_produce", 1}, {"wire.decode_produce", 1},
			{"record.validate", 1}, {"log.append_sealed", 1},
			{"log.read_range", 1}, {"wire.encode_fetch", 1}, {"wire.decode_fetch", 1}, {"record.decode", 1},
		},
	}
	s.throughputMBs = float64(sentB) * valueBytes / 1e6 / st.elapsed.Seconds()
	s.latP50ms = slicedQuantileMs(tl.lat, windowA, time.Second, 0.50, 100)
	s.latP99ms = slicedQuantileMs(tl.lat, windowA, time.Second, 0.99, 1000)
	st.clientLayer(s.layer)
	s.layer["client.poll_ms_p50"] = quantile(tl.polls, 0.50)
	s.layer["client.recs_per_poll"] = ratio(float64(tl.chk.received), float64(len(tl.polls)-tl.empty))
	s.layer["client.empty_poll_share"] = ratio(float64(tl.empty), float64(len(tl.polls)))
	s.layer["nearline.gen_late_ms_max"] = float64(lateMax) / 1e6
	s.layer["nearline.backlog_end_recs"] = float64(backlog)
	switch {
	case float64(lateMax)/1e6 > nearlineLateMs:
		s.invalid = fmt.Sprintf("open-loop generator ran %.1f ms late (limit %.0f ms)", float64(lateMax)/1e6, nearlineLateMs)
	case backlog > nearlineRate:
		s.invalid = fmt.Sprintf("consumer backlog at the end of phase A is %d records, more than a second of input", backlog)
	}
	return s, nil
}

// tailLoop polls until every record the writer sent has been delivered.
func (f *nearlineFx) tailLoop(cons *client.Consumer, tl *tail, tr *tracer, startDue time.Duration) {
	for !tl.stop.Load() {
		if want := tl.wantTotal.Load(); want >= 0 && tl.chk.received >= want {
			return
		}
		sp := tr.start("client.poll", 0)
		msgs, err := cons.Poll(100 * time.Millisecond)
		d := sp.end()
		now := time.Since(f.epoch)
		tl.polls = append(tl.polls, float64(d)/1e6)
		if err != nil {
			tl.pollErrs++
			continue
		}
		if len(msgs) == 0 {
			tl.empty++
			continue
		}
		for i := range msgs {
			seq, due := tl.chk.observe(&msgs[i])
			if seq < tl.openUntil {
				tl.lat = append(tl.lat, timed{at: due - startDue, dur: now - due})
			}
		}
		tl.received.Store(tl.chk.received)
	}
}
