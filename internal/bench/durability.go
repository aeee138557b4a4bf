package bench

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/storage/cache"
	"repro/internal/storage/log"
)

// e20Barrier models a 2015-era commodity disk's write-barrier cost: an
// fdatasync is a real fsync (so the OS-visible semantics hold) plus a fixed
// latency, roughly one rotation of a 7200rpm spindle with its cache flush.
// On tmpfs-backed CI the real fsync is near-free, which would let a
// per-batch-fsync policy look as fast as group commit; the modeled barrier
// restores the cost structure the durability policies exist to amortize.
const e20Barrier = 5 * time.Millisecond

// E20Durability measures the storage durability spectrum end to end
// (§3.1/§4.1's "log is the system of record" needs an fsync discipline):
//
//   - Produce MB/s under each fsync policy, 12 concurrent acks=1 producers
//     on one partition, with the modeled disk barrier attached. Per-batch
//     fsync pays one barrier per append inside the log lock; group commit
//     amortizes one barrier across every batch that arrives in its window,
//     deferring the producers' acks until their covering fdatasync lands.
//     The reproduction target: group commit within reach of the unsynced
//     baseline, and >= 5x over per-batch fsync.
//
//   - Fetch allocations per consumed record under the page-cache model. A
//     fetch resolves to a raw segment-file range (sendfile on Linux), so
//     the broker never materializes the batch bytes.
func E20Durability(scale Scale) Table {
	t := Table{
		ID:      "E20",
		Title:   "WAL durability policies and zero-copy fetch: produce MB/s per fsync policy; spliced-fetch allocs per record",
		Claim:   "§3.1/§4.1: a durable log need not serialize on the disk barrier — group commit amortizes one fdatasync across all in-flight produces; and sealed batches mean stored bytes are wire bytes, so fetches splice straight from the segment file",
		Headers: []string{"configuration", "records", "MB/s", "krec/s", "fsyncs", "alloc B/rec"},
	}

	const (
		valueBytes = 1 << 10
		producers  = 12
	)
	n := scale.pick(1800, 24000)

	type policyCase struct {
		name string
		d    log.Durability
	}
	var syncCount atomic.Int64
	modeledSync := func(f *os.File) error {
		syncCount.Add(1)
		if err := f.Sync(); err != nil {
			return err
		}
		time.Sleep(e20Barrier)
		return nil
	}
	cases := []policyCase{
		{"produce/no-fsync", log.Durability{Policy: log.SyncNone, Syncer: modeledSync}},
		{"produce/interval-50ms", log.Durability{Policy: log.SyncInterval, Interval: 50 * time.Millisecond, Syncer: modeledSync}},
		{"produce/batch-fsync", log.Durability{Policy: log.SyncBatch, Syncer: modeledSync}},
		{"produce/group-commit-2ms", log.Durability{Policy: log.SyncGroup, GroupWindow: 2 * time.Millisecond, Syncer: modeledSync}},
	}

	pageCache := func(c *core.Config) {
		c.PageCache = &cache.Config{
			PageSize:           4096,
			CapacityBytes:      64 << 20,
			DiskPenaltyPerPage: 150 * time.Microsecond,
			FlushDelay:         10 * time.Millisecond,
		}
	}

	mbps := make(map[string]float64, len(cases))
	for _, pc := range cases {
		syncCount.Store(0)
		s, err := newStack(1, func(c *core.Config) {
			pageCache(c)
			c.Durability = pc.d
		})
		if err != nil {
			t.Notes = append(t.Notes, "failed: "+err.Error())
			return t
		}
		topic := "e20-produce"
		if err := s.CreateFeed(topic, 1, 1); err != nil {
			s.Shutdown()
			t.Notes = append(t.Notes, "failed: "+err.Error())
			return t
		}
		value := make([]byte, valueBytes)
		for i := range value {
			value[i] = byte('a' + i%26)
		}
		perProducer := n / producers
		var wg sync.WaitGroup
		var sendErrs atomic.Int64
		start := time.Now()
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				prod := s.NewProducer(client.ProducerConfig{Acks: 1, BatchBytes: 128 << 10})
				defer prod.Close()
				for i := 0; i < perProducer; i++ {
					if err := prod.Send(client.Message{Topic: topic, Value: value}); err != nil {
						sendErrs.Add(1)
						return
					}
				}
				if err := prod.Flush(); err != nil {
					sendErrs.Add(1)
				}
			}()
		}
		wg.Wait()
		dur := time.Since(start)
		s.Shutdown()
		if e := sendErrs.Load(); e > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %d producer errors", pc.name, e))
		}
		produced := int64(perProducer*producers) * valueBytes
		rate := float64(produced) / dur.Seconds() / (1 << 20)
		mbps[pc.name] = rate
		syncs := syncCount.Load()
		t.Rows = append(t.Rows, []string{
			pc.name, fmt.Sprint(perProducer * producers), fmt.Sprintf("%.1f", rate),
			fmt.Sprintf("%.1f", float64(perProducer*producers)/dur.Seconds()/1e3),
			fmt.Sprint(syncs), "-",
		})
		t.Results = append(t.Results, Result{
			Name:          pc.name,
			RecordsPerSec: float64(perProducer*producers) / dur.Seconds(),
			MBPerSec:      rate,
			Extra: map[string]string{
				"fsyncs":             fmt.Sprint(syncs),
				"fsync_barrier_ms":   fmt.Sprintf("%.0f", float64(e20Barrier)/float64(time.Millisecond)),
				"acked_records":      fmt.Sprint(perProducer * producers),
				"concurrent_senders": fmt.Sprint(producers),
			},
		})
	}
	if batch, group := mbps["produce/batch-fsync"], mbps["produce/group-commit-2ms"]; batch > 0 {
		t.Results[len(t.Results)-1].Extra["mbps_vs_batch_fsync"] = fmt.Sprintf("%.1f", group/batch)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"group commit amortization: %.1fx the per-batch-fsync produce rate (target >= 5x)", group/batch))
	}

	// Fetch side: allocations per consumed record on the spliced fetch path.
	// Mallocs are counted process-wide between two GC fences; the workload
	// (one consumer draining the feed) dominates. BENCH_E20.json keeps the
	// retired buffered re-encode path's number for comparison.
	const fetchName = "fetch/zero-copy-splice"
	fetchN := scale.pick(4000, 30000)
	s, err := newStack(1, pageCache)
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer s.Shutdown()
	topic := "e20-fetch"
	if err := s.CreateFeed(topic, 1, 1); err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	if err := produceValues(s, topic, fetchN, valueBytes, 0, 1); err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	// Warm pass: connection setup, metadata, page-cache population.
	if got, _ := consumeCount(s, topic, 1, fetchN, 60*time.Second); got < fetchN {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: warm pass consumed %d/%d", fetchName, got, fetchN))
		return t
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	got, err := consumeCount(s, topic, 1, fetchN, 60*time.Second)
	dur := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil || got < fetchN {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: consumed %d/%d (%v)", fetchName, got, fetchN, err))
		return t
	}
	allocsPerRec := float64(m1.Mallocs-m0.Mallocs) / float64(got)
	bytesPerRec := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(got)
	rate := float64(int64(got)*valueBytes) / dur.Seconds() / (1 << 20)
	t.Rows = append(t.Rows, []string{
		fetchName, fmt.Sprint(got), fmt.Sprintf("%.1f", rate),
		fmt.Sprintf("%.1f", float64(got)/dur.Seconds()/1e3),
		"-", fmt.Sprintf("%.0f", bytesPerRec),
	})
	t.Results = append(t.Results, Result{
		Name:          fetchName,
		RecordsPerSec: float64(got) / dur.Seconds(),
		MBPerSec:      rate,
		Extra: map[string]string{
			"allocs_per_record":      fmt.Sprintf("%.2f", allocsPerRec),
			"alloc_bytes_per_record": fmt.Sprintf("%.0f", bytesPerRec),
		},
	})
	t.Notes = append(t.Notes, fmt.Sprintf(
		"fsync barrier modeled at %s on top of the real fsync; policies: none (OS flush), interval (background ticker), batch (inline per append), group (windowed, acks deferred to the covering fdatasync)", e20Barrier))
	return t
}
