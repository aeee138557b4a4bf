package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/table"
	"repro/internal/workload"
)

// E22TableReads measures the queryable-table subsystem (§2/§3.2 serve-side
// reads): a compacted table feed is loaded with a large distinct keyspace,
// materialized by the partition leaders, then hit with a mixed zipfian
// load — unpaced point readers plus continuous writers — while read
// latency, read throughput and staleness (hw − applied at serve time) are
// sampled. The target shape: point reads answer in single-digit
// milliseconds at thousands of reads/s per broker while writes stream in,
// and observed staleness stays near zero offsets because the materializer
// tails the log continuously.
func E22TableReads(scale Scale) Table {
	t := Table{
		ID:      "E22",
		Title:   "queryable tables: point-read latency and staleness under mixed zipfian load",
		Claim:   "§2/§3.2: serve-side point reads (\"who viewed my profile\") come off the same lineage of data as the feed — partition leaders materialize the compacted log and serve reads with bounded, observable staleness",
		Headers: []string{"phase", "ops", "ops/s", "p50 ms", "p99 ms", "staleness mean/max (offsets)"},
	}
	fail := func(err error) Table {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	s, err := newStack(2, nil)
	if err != nil {
		return fail(err)
	}
	defer s.Shutdown()
	const topic = "e22-table"
	const partitions = 4
	if err := s.CreateTable(topic, partitions, 1); err != nil {
		return fail(err)
	}

	keys := scale.pick(20_000, 1_000_000)
	const valueBytes = 32
	const zipfS = 1.1
	gen := workload.NewKeys(workload.KeyConfig{Seed: 22, Keys: keys, ZipfS: zipfS})

	// Phase 1 — load: every key written once (sequential indices, so the
	// materialized cardinality is exactly `keys`), keyed producer, large
	// batches.
	value := make([]byte, valueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	prod := s.NewProducer(client.ProducerConfig{BatchBytes: 256 << 10})
	loadStart := time.Now()
	for i := 0; i < keys; i++ {
		if err := prod.Send(client.Message{Topic: topic, Key: gen.Key(i), Value: value}); err != nil {
			prod.Close()
			return fail(err)
		}
	}
	if err := prod.Flush(); err != nil {
		prod.Close()
		return fail(err)
	}
	loadDur := time.Since(loadStart)

	// Wait for the materializers to catch up before measuring reads: the
	// bench measures serve latency, not bootstrap progress.
	catchupStart := time.Now()
	for {
		sts, err := s.TableStatus(topic)
		if err != nil {
			prod.Close()
			return fail(err)
		}
		lag, total := int64(0), int64(0)
		for _, st := range sts {
			lag += st.Lag()
			total += st.ApproxLen
		}
		if lag == 0 && total >= int64(keys) {
			break
		}
		if time.Since(catchupStart) > 5*time.Minute {
			prod.Close()
			return fail(fmt.Errorf("materialization never caught up (lag %d, len %d)", lag, total))
		}
		time.Sleep(50 * time.Millisecond)
	}
	catchupDur := time.Since(catchupStart)

	// Phase 2 — mixed load: unpaced zipfian point readers (read-heavy
	// side) plus continuous zipfian writers streaming updates into the
	// same keyspace. Each reader gets its own client so connection
	// serialization does not flatten the measured concurrency.
	const readers = 4
	const writers = 2
	mixedDur := time.Duration(scale.pick(2, 10)) * time.Second
	stop := make(chan struct{})
	var wg sync.WaitGroup

	var writeCount atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			g := workload.NewKeys(workload.KeyConfig{Seed: seed, Keys: keys, ZipfS: zipfS})
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := prod.Send(client.Message{Topic: topic, Key: g.Next(), Value: value}); err != nil {
					return
				}
				writeCount.Add(1)
				time.Sleep(100 * time.Microsecond) // continuous stream, not a flood
			}
		}(int64(100 + w))
	}

	type readerStats struct {
		lat          durations
		reads        int64
		notFound     int64
		staleSum     int64
		staleMax     int64
		staleSamples int64
	}
	stats := make([]readerStats, readers)
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cli, err := s.NewClient(fmt.Sprintf("e22-reader-%d", id))
			if err != nil {
				return
			}
			defer cli.Close()
			router := table.NewRouter(cli, topic)
			g := workload.NewKeys(workload.KeyConfig{Seed: int64(200 + id), Keys: keys, ZipfS: zipfS})
			st := &stats[id]
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := g.Next()
				t0 := time.Now()
				res, err := router.Get(key, -1)
				if err != nil {
					continue
				}
				st.lat = append(st.lat, time.Since(t0))
				st.reads++
				if !res.Found {
					st.notFound++
				}
				stale := res.HighWatermark - res.AppliedOffset
				st.staleSum += stale
				st.staleSamples++
				if stale > st.staleMax {
					st.staleMax = stale
				}
			}
		}(rd)
	}

	mixedStart := time.Now()
	time.Sleep(mixedDur)
	close(stop)
	wg.Wait()
	measured := time.Since(mixedStart)
	prod.Close()

	var readLat durations
	var reads, notFound, staleSum, staleMax, staleSamples int64
	for i := range stats {
		readLat = append(readLat, stats[i].lat...)
		reads += stats[i].reads
		notFound += stats[i].notFound
		staleSum += stats[i].staleSum
		staleSamples += stats[i].staleSamples
		if stats[i].staleMax > staleMax {
			staleMax = stats[i].staleMax
		}
	}
	staleMean := 0.0
	if staleSamples > 0 {
		staleMean = float64(staleSum) / float64(staleSamples)
	}
	writes := writeCount.Load()

	t.Rows = append(t.Rows,
		[]string{"load (1 write/key)", fmt.Sprint(keys), fmt.Sprintf("%.0f", float64(keys)/loadDur.Seconds()), "-", "-", "-"},
		[]string{"point reads (mixed)", fmt.Sprint(reads), fmt.Sprintf("%.0f", float64(reads)/measured.Seconds()), ms(readLat.p(0.5)), ms(readLat.p(0.99)), fmt.Sprintf("%.2f/%d", staleMean, staleMax)},
		[]string{"writes (mixed)", fmt.Sprint(writes), fmt.Sprintf("%.0f", float64(writes)/measured.Seconds()), "-", "-", "-"},
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d partitions over 2 brokers, rf=1; %d distinct keys x %dB values; zipf s=%.1f shared by readers and writers", partitions, keys, valueBytes, zipfS),
		fmt.Sprintf("materializers caught up %s after the load; %d of %d reads not found", catchupDur.Round(time.Millisecond), notFound, reads),
		"expected shape: ms-scale point reads at thousands of reads/s while writes stream in; staleness near zero offsets because materializers tail the committed log continuously")
	return t
}
