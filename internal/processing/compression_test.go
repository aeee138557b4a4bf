package processing_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/processing"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// TestStatefulJobRestoresFromCompressedChangelog runs the restore path with
// ChangelogCodec set: the changelog feed holds compressed batches (asserted
// on the raw stored bytes) and a restarted job rebuilds its state from them
// without any broker-side recompression.
func TestStatefulJobRestoresFromCompressedChangelog(t *testing.T) {
	s := startStack(t)
	if err := s.CreateFeed("cupdates", 1, 1); err != nil {
		t.Fatal(err)
	}
	cfg := processing.JobConfig{
		Name:               "ccounter",
		Inputs:             []string{"cupdates"},
		Factory:            func() processing.StreamTask { return countTask{} },
		Stores:             []processing.StoreSpec{{Name: "counts"}},
		CheckpointInterval: 100 * time.Millisecond,
		ChangelogCodec:     client.CodecFlate,
	}
	job, err := s.RunJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const keys, rounds = 5, 10
	produceN(t, s, "cupdates", keys*rounds,
		func(i int) string { return fmt.Sprintf("user-%d", i%keys) },
		func(i int) string { return "update" })
	waitCounter(t, job.Metrics().Counter("ccounter.processed"), keys*rounds, 10*time.Second)
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}

	// The changelog feed must hold compressed batches, stored verbatim:
	// fetch the raw bytes and check the first batch's codec.
	c := s.Client()
	leader, err := c.LeaderFor("ccounter-counts-changelog", 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.DialDedicated(leader)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var resp wire.FetchResponse
	err = conn.RoundTrip(wire.APIFetch, &wire.FetchRequest{
		ReplicaID: -1, MaxWaitMs: 1000, MinBytes: 1, MaxBytes: 1 << 20,
		Topics: []wire.FetchTopic{{
			Name:       "ccounter-counts-changelog",
			Partitions: []wire.FetchPartition{{Partition: 0, Offset: 0, MaxBytes: 1 << 20}},
		}},
	}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	raw := resp.Topics[0].Partitions[0].Records
	if len(raw) == 0 {
		t.Fatal("changelog is empty")
	}
	codec, err := record.PeekCodec(raw)
	if err != nil || codec != record.CodecFlate {
		t.Fatalf("changelog batch codec = %v, %v (want flate)", codec, err)
	}

	// Restart: state must be rebuilt from the compressed changelog.
	job2, err := s.RunJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	produceN(t, s, "cupdates", keys,
		func(i int) string { return fmt.Sprintf("user-%d", i%keys) },
		func(i int) string { return "update" })
	waitCounter(t, job2.Metrics().Counter("ccounter.processed"), keys, 10*time.Second)
	if err := job2.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := job2.Metrics().Counter("ccounter.restored.records").Value(); got == 0 {
		t.Fatal("no records were restored from the compressed changelog")
	}
	counts := changelogState(t, s, "ccounter-counts-changelog", 1)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("user-%d", k)
		if counts[key] != strconv.Itoa(rounds+1) {
			t.Fatalf("count[%s] = %q, want %d", key, counts[key], rounds+1)
		}
	}
}
