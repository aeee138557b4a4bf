package broker

import (
	"log/slog"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// fetchShell is an offline Broker hosting n leader replicas of topic "fw"
// (broker 1 leads, isr as given), with a frozen injected clock that counts
// how often it is read: enough structure for handleFetch, no network.
func fetchShell(t *testing.T, n int, isr []int32, clockReads *atomic.Int64) *Broker {
	t.Helper()
	cfg := Config{Now: func() time.Time {
		clockReads.Add(1)
		return clockBase
	}}.withDefaults()
	b := &Broker{cfg: cfg, logger: slog.Default(), replicas: make(map[tp]*replica)}
	b.met = newBrokerMetrics(cfg.Metrics, 1, cfg.Now)
	b.quotas = newQuotaManager(b, cfg.DefaultQuota)
	b.quotas.tenants["fw-client"] = ungoverned // no registry behind this shell
	for p := 0; p < n; p++ {
		l, err := log.Open(t.TempDir(), log.Config{})
		if err != nil {
			t.Fatal(err)
		}
		r := newReplica(tp{topic: "fw", partition: int32(p)}, l, 1)
		t.Cleanup(func() { r.close() })
		r.becomeLeader(1, []int32{1, 2}, isr, 1)
		b.replicas[r.tp] = r
	}
	return b
}

// TestMultiPartitionLongPollWakesOnAnyPartition: a long-poll naming several
// partitions parks on their notify channels — consumer view and follower
// view alike — and returns on an append to any one of them while the
// injected broker clock never advances. The clock is read once per pass over
// the partitions, so the bound on its reads is the proof that nothing polls
// while parked: a 2 ms poll would have read it dozens of times by then.
func TestMultiPartitionLongPollWakesOnAnyPartition(t *testing.T) {
	views := []struct {
		name      string
		replicaID int32
		isr       []int32 // consumer view: a sole-ISR leader commits on append
	}{
		{"consumer", -1, []int32{1}},
		{"follower", 2, []int32{1, 2}},
	}
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			var clockReads atomic.Int64
			b := fetchShell(t, 3, v.isr, &clockReads)
			req := &wire.FetchRequest{ReplicaID: v.replicaID, MaxWaitMs: 30_000, MinBytes: 1, MaxBytes: 1 << 20}
			topic := wire.FetchTopic{Name: "fw"}
			for p := int32(0); p < 3; p++ {
				topic.Partitions = append(topic.Partitions, wire.FetchPartition{Partition: p, Offset: 0})
			}
			req.Topics = []wire.FetchTopic{topic}

			got := make(chan *wire.FetchResponse, 1)
			go func() { got <- b.handleFetch(req, "fw-client", 0) }()
			select {
			case <-got:
				t.Fatal("long-poll returned with nothing to read")
			case <-time.After(100 * time.Millisecond): // fifty polls' worth, had there been any
			}

			batch := record.EncodeBatch(0, []record.Record{{Timestamp: 1, Value: []byte("x")}})
			r := b.getReplica(tp{topic: "fw", partition: 2})
			if _, _, _, code := r.appendSealedAsLeader([][]byte{batch}, 1); code != wire.ErrNone {
				t.Fatalf("append: %v", code)
			}
			var resp *wire.FetchResponse
			select {
			case resp = <-got:
			case <-time.After(5 * time.Second):
				t.Fatal("long-poll slept through an append to one of its partitions")
			}
			defer closeFetchRanges(resp)
			for _, p := range resp.Topics[0].Partitions {
				n := int64(0)
				if rng, ok := p.RecordsRange.(*log.SegmentRange); ok {
					n = rng.Len()
				}
				if want := p.Partition == 2; (n > 0) != want {
					t.Fatalf("partition %d carries %d bytes", p.Partition, n)
				}
			}
			if n := clockReads.Load(); n > 4 {
				t.Fatalf("the clock was read %d times during one parked long-poll: handleFetch polled", n)
			}
		})
	}
}

// TestCheckpointAgeAndSyncLagGauges: log.checkpoint.age.ms is the age of the
// checkpoint file on disk and log.sync.lag.ms the wait of the oldest
// unsynced append — two clocks that diverge the moment checkpoints leave the
// ack path.
func TestCheckpointAgeAndSyncLagGauges(t *testing.T) {
	var reads atomic.Int64
	b := fetchShell(t, 0, nil, &reads)
	reg := metrics.NewRegistry()
	b.met = newBrokerMetrics(reg, 1, b.cfg.Now)
	b.offsets = newOffsetManager(b)
	l, err := log.Open(t.TempDir(), log.Config{Durability: log.Durability{
		Policy: log.SyncGroup, Interval: time.Hour, // only a waiter or Flush syncs
	}})
	if err != nil {
		t.Fatal(err)
	}
	r := newReplica(tp{topic: "g", partition: 0}, l, 1)
	defer r.close()
	b.replicas[r.tp] = r
	gauge := func(name string) int64 {
		t.Helper()
		for _, f := range reg.Gather() {
			if f.Name == name {
				if len(f.Points) != 1 {
					t.Fatalf("%s has %d points, want 1", name, len(f.Points))
				}
				return f.Points[0].Value
			}
		}
		t.Fatalf("%s not exported", name)
		return 0
	}

	if _, err := l.Append([]record.Record{{Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	opened := time.Now()
	b.opsTick(opened.Add(3 * time.Second))
	if lag := gauge("log.sync.lag.ms"); lag < 2900 || lag > 4000 {
		t.Fatalf("log.sync.lag.ms = %d three seconds after an unsynced append", lag)
	}
	if err := l.Flush(); err != nil { // syncs and rewrites the checkpoint
		t.Fatal(err)
	}
	b.opsTick(time.Now().Add(10 * time.Second))
	if lag := gauge("log.sync.lag.ms"); lag != 0 {
		t.Fatalf("log.sync.lag.ms = %d on a synced log", lag)
	}
	if age := gauge("log.checkpoint.age.ms"); age < 9900 || age > 11000 {
		t.Fatalf("log.checkpoint.age.ms = %d ten seconds after the checkpoint was written", age)
	}
}
