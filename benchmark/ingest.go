package main

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// ingest: the write path with nothing to wait for. 1 broker, 4 partitions,
// RF=1, acks=1, no fsync, no codec; one closed-loop writer, no reader.

const (
	ingestTopic      = "ingest"
	ingestPartitions = 4
	ingestTailCheck  = 2048 // records per partition read back and verified after the window
)

type ingestFx struct {
	s     *core.Stack
	pool  *valuePool
	prod  *client.Producer
	loop  *closedLoop
	epoch time.Time
}

func setupIngest(e *env, _ time.Duration) (fixture, error) {
	f := &ingestFx{pool: newValuePool(e.cfg.seed), epoch: time.Now()}
	s, err := e.startStack("ingest", 1, log.SyncNone)
	if err != nil {
		return nil, err
	}
	f.s = s
	if err := s.CreateTopic(wire.TopicSpec{
		Name: ingestTopic, NumPartitions: ingestPartitions, ReplicationFactor: 1,
		// The topic keeps a bounded tail (two default-size segments per
		// partition), enforced every second: a run then rewrites the same
		// few hundred MiB of disk blocks. Without it a 15 s run allocates
		// over 4 GB of new blocks and, on the sandbox this was written on,
		// throughput fell by more than half about 1.5 GB in.
		RetentionBytes: 64 << 20,
	}); err != nil {
		f.close()
		return nil, err
	}
	f.prod = s.NewProducer(client.ProducerConfig{Acks: 1, BatchBytes: roundRecs * valueBytes})
	f.loop = newClosedLoop(f.prod, ingestTopic, f.pool)
	// Warm-up, counted as set-up: producer id, metadata, connections, and
	// enough data that segments roll and retention has deleted some.
	warm := 512
	if e.cfg.smoke {
		warm = 2
	}
	for i := 0; i < warm; i++ {
		f.loop.round(nil, f.epoch)
	}
	return f, nil
}

func (f *ingestFx) stack() *core.Stack  { return f.s }
func (f *ingestFx) inputSHA256() string { return f.pool.sha256() }
func (f *ingestFx) userBytes() float64  { return float64(f.loop.seq) * valueBytes }

func (f *ingestFx) close() {
	if f.prod != nil {
		f.prod.Close()
	}
	f.s.Shutdown()
}

func (f *ingestFx) shape() probeShape {
	// One round spreads round-robin over the partitions: each produce
	// request carries roundRecs/partitions values.
	recs := make([]record.Record, roundRecs/ingestPartitions)
	for i := range recs {
		v := make([]byte, valueBytes)
		f.pool.stamp(v, int64(i), 0)
		recs[i] = record.Record{Timestamp: 1, Value: v}
	}
	return probeShape{records: recs, codec: record.CodecNone, fetchBytes: 4 << 20, policy: log.SyncNone}
}

func (f *ingestFx) measure(window time.Duration, tr *tracer, _ int) (*sample, error) {
	failedBefore := f.loop.failedRecs

	cpu0 := cpuTime()
	st := f.loop.run(window, tr, f.epoch)
	cpu := cpuTime() - cpu0

	recs := int64(len(st.rounds)) * roundRecs
	s := &sample{
		records:   recs,
		cpu:       cpu,
		attempted: recs,
		failed:    f.loop.failedRecs - failedBefore,
		layer:     make(map[string]float64),
		stages: []stage{
			{"record.encode", 1}, {"wire.encode_produce", 1}, {"wire.decode_produce", 1},
			{"record.validate", 1}, {"log.append_sealed", 1},
		},
	}
	s.throughputMBs = st.rateMBs(window)
	s.latP50ms = slicedQuantileMs(st.rounds, window, time.Second, 0.50, 20)
	s.latP99ms = slicedQuantileMs(st.rounds, window, time.Second, 0.99, 200)
	st.clientLayer(s.layer)

	if err := f.verify(s); err != nil {
		return nil, err
	}
	return s, nil
}

// verify checks that the log holds exactly the records sent — the end
// offsets add up to the number of records acked — and reads the tail of
// every partition back, checking each value against the generator.
func (f *ingestFx) verify(s *sample) error {
	ends, err := endOffsets(f.s, ingestTopic, ingestPartitions)
	if err != nil {
		return err
	}
	if got, want := sum(ends), f.loop.seq-f.loop.failedRecs; got != want {
		s.failed += abs(got - want)
	}
	cons := f.s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	var want int64
	for p := int32(0); p < ingestPartitions; p++ {
		from := ends[p] - ingestTailCheck
		if from < 0 {
			from = 0
		}
		want += ends[p] - from
		if err := cons.Assign(ingestTopic, p, from); err != nil {
			return err
		}
	}
	chk := newSeqChecker(f.pool, ingestPartitions, -1)
	deadline := time.Now().Add(10 * time.Second)
	for chk.received < want && time.Now().Before(deadline) {
		msgs, err := cons.Poll(100 * time.Millisecond)
		if err != nil {
			return fmt.Errorf("verify poll: %w", err)
		}
		for i := range msgs {
			if msgs[i].Offset < ends[msgs[i].Partition] {
				chk.observe(&msgs[i])
			}
		}
	}
	s.attempted += want
	s.failed += chk.bad + abs(want-chk.received)
	return nil
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
