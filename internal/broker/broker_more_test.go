package broker_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/coord"
	"repro/internal/wire"
)

// startClusterWithRetention boots brokers that enforce retention often.
func startClusterWithRetention(t *testing.T, n int, interval time.Duration) *testCluster {
	t.Helper()
	store := coord.New(coord.Config{})
	tc := &testCluster{store: store, stopExpiry: store.StartExpiry(50 * time.Millisecond)}
	for i := 0; i < n; i++ {
		b, err := broker.Start(store, broker.Config{
			ID:                 int32(i + 1),
			DataDir:            t.TempDir(),
			SessionTimeout:     600 * time.Millisecond,
			RetentionInterval:  interval,
			OffsetsPartitions:  2,
			OffsetsReplication: 1,
		})
		if err != nil {
			t.Fatalf("start broker %d: %v", i+1, err)
		}
		tc.brokers = append(tc.brokers, b)
		tc.addrs = append(tc.addrs, b.Addr())
	}
	t.Cleanup(tc.shutdown)
	return tc
}

// writeRaw sends raw bytes on a fresh TCP connection.
func writeRaw(t *testing.T, addr string, raw []byte) error {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	_, err = nc.Write(raw)
	return err
}

// Additional broker coverage: error paths, validation, retention-driven
// resets, ISR dynamics and replication catch-up.

func TestProduceToUnknownTopicFails(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	p := client.NewProducer(c, client.ProducerConfig{})
	defer p.Close()
	if _, err := p.SendSync(client.Message{Topic: "ghost", Value: []byte("x")}); err == nil {
		t.Fatal("produce to missing topic accepted")
	}
}

func TestCreateTopicValidation(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	cases := []wire.TopicSpec{
		{Name: ""},
		{Name: "has spaces"},
		{Name: "bad/slash"},
	}
	for _, spec := range cases {
		if err := c.CreateTopic(spec); err == nil {
			t.Fatalf("invalid topic %q accepted", spec.Name)
		}
	}
	// Replication beyond the live broker count fails.
	if err := c.CreateTopic(wire.TopicSpec{Name: "toowide", NumPartitions: 1, ReplicationFactor: 5}); err == nil {
		t.Fatal("rf beyond cluster size accepted")
	}
	// Duplicate creation fails with TopicAlreadyExists.
	createTopic(t, c, "dup", 1, 1)
	err := c.CreateTopic(wire.TopicSpec{Name: "dup", NumPartitions: 1, ReplicationFactor: 1})
	if wire.Code(err) != wire.ErrTopicAlreadyExists {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestCreateTopicDefaultsPartitionsAndRF(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	if err := c.CreateTopic(wire.TopicSpec{Name: "minimal"}); err != nil {
		t.Fatal(err)
	}
	n, err := c.PartitionCount("minimal")
	if err != nil || n != 1 {
		t.Fatalf("partitions = %d, %v", n, err)
	}
}

func TestConsumerResetOnRetention(t *testing.T) {
	// A consumer whose position was deleted by retention resets to the
	// new log start (ResetEarliest policy).
	store := tcStore(t)
	tc := store
	c := tc.newClient(t)
	if err := c.CreateTopic(wire.TopicSpec{
		Name:          "aging",
		NumPartitions: 1,
		// Aggressive size retention: ~1 segment kept.
		RetentionBytes: 4 << 10,
		SegmentBytes:   2 << 10,
		RetentionMs:    -1,
	}); err != nil {
		t.Fatal(err)
	}
	p := client.NewProducer(c, client.ProducerConfig{})
	defer p.Close()
	// Several flushes: the leader stores each flushed batch whole, and it
	// takes more than one batch to fill more than one 2 KiB segment.
	for i := 0; i < 200; i++ {
		if err := p.Send(client.Message{Topic: "aging", Value: []byte(fmt.Sprintf("event-%04d", i))}); err != nil {
			t.Fatal(err)
		}
		if i%20 == 19 {
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Wait for the retention tick to delete old segments.
	deadline := time.Now().Add(15 * time.Second)
	for {
		early, err := c.ListOffset("aging", 0, wire.TimestampEarliest)
		if err == nil && early > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retention never advanced the log start")
		}
		time.Sleep(100 * time.Millisecond)
	}
	cons := client.NewConsumer(c, client.ConsumerConfig{OnReset: client.ResetEarliest})
	defer cons.Close()
	// Assign at offset 0, now below the log start: the consumer must
	// reset instead of wedging.
	if err := cons.Seek("aging", 0, 0); err == nil {
		t.Fatal("seek before assign should fail")
	}
	if err := cons.Assign("aging", 0, 0); err != nil {
		t.Fatal(err)
	}
	msgs := collectN(t, cons.Poll, 10, 15*time.Second)
	if msgs[0].Offset == 0 {
		t.Fatal("consumer read offset 0, which retention deleted")
	}
}

// tcStore builds a cluster whose brokers run retention frequently.
func tcStore(t *testing.T) *testCluster {
	t.Helper()
	tc := startClusterWithRetention(t, 1, 200*time.Millisecond)
	return tc
}

func TestISRShrinksWhenFollowerDies(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.newClient(t)
	createTopic(t, c, "shrink", 1, 3)
	p := client.NewProducer(c, client.ProducerConfig{Acks: client.AcksAll})
	defer p.Close()
	if _, err := p.SendSync(client.Message{Topic: "shrink", Value: []byte("warm")}); err != nil {
		t.Fatal(err)
	}
	leader, err := c.LeaderFor("shrink", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Kill a follower (not the leader).
	var follower int32
	for _, b := range tc.brokers {
		if b.ID() != leader {
			follower = b.ID()
			break
		}
	}
	for _, b := range tc.brokers {
		if b.ID() == follower {
			b.Kill()
		}
	}
	// acks=all produces keep succeeding once the ISR shrinks.
	deadline := time.Now().Add(20 * time.Second)
	ok := false
	for time.Now().Before(deadline) {
		if _, err := p.SendSync(client.Message{Topic: "shrink", Value: []byte("after")}); err == nil {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatal("acks=all produce never recovered after follower death (ISR did not shrink)")
	}
}

func TestFollowerCatchUpAfterRestartWindow(t *testing.T) {
	// A follower that missed data (killed) is excluded; the remaining
	// replicas still serve. This validates N-1 fault tolerance of §4.3.
	tc := startCluster(t, 3)
	c := tc.newClient(t)
	createTopic(t, c, "n1", 1, 3)
	p := client.NewProducer(c, client.ProducerConfig{Acks: client.AcksAll})
	defer p.Close()
	for i := 0; i < 10; i++ {
		if _, err := p.SendSync(client.Message{Topic: "n1", Value: []byte(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill two of three replicas: the sole survivor (if leader) still
	// serves committed data for reads.
	leader, _ := c.LeaderFor("n1", 0)
	killed := 0
	for _, b := range tc.brokers {
		if b.ID() != leader && killed < 2 {
			b.Kill()
			killed++
		}
	}
	cons := client.NewConsumer(c, client.ConsumerConfig{})
	defer cons.Close()
	if err := cons.Assign("n1", 0, client.StartEarliest); err != nil {
		t.Fatal(err)
	}
	msgs := collectN(t, cons.Poll, 10, 20*time.Second)
	if len(msgs) < 10 {
		t.Fatalf("read %d/10 after two follower deaths", len(msgs))
	}
}

func TestListOffsetsUnknownPartition(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "lo", 1, 1)
	if _, err := c.ListOffset("lo", 7, wire.TimestampLatest); err == nil {
		t.Fatal("list offsets for missing partition accepted")
	}
}

func TestGroupConsumerResumesFromCommit(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "resume", 1, 1)
	p := client.NewProducer(c, client.ProducerConfig{})
	defer p.Close()
	for i := 0; i < 30; i++ {
		p.Send(client.Message{Topic: "resume", Value: []byte(fmt.Sprintf("v%02d", i))})
	}
	p.Flush()

	cfg := client.GroupConfig{
		Group:             "resumers",
		Topics:            []string{"resume"},
		AutoCommit:        true,
		SessionTimeout:    3 * time.Second,
		RebalanceTimeout:  5 * time.Second,
		HeartbeatInterval: 200 * time.Millisecond,
	}
	g1, err := client.NewGroupConsumer(c, client.ConsumerConfig{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := collectN(t, g1.Poll, 30, 20*time.Second)
	if len(first) < 30 {
		t.Fatalf("first consumer got %d/30", len(first))
	}
	g1.Close() // commits on close

	// Produce more; a NEW member of the same group must see only the new
	// data (it resumes from the committed offset).
	for i := 30; i < 40; i++ {
		p.Send(client.Message{Topic: "resume", Value: []byte(fmt.Sprintf("v%02d", i))})
	}
	p.Flush()
	g2, err := client.NewGroupConsumer(c, client.ConsumerConfig{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	second := collectN(t, g2.Poll, 10, 20*time.Second)
	for _, m := range second {
		if m.Offset < 30 {
			t.Fatalf("resumed consumer re-read offset %d (already committed)", m.Offset)
		}
	}
}

func TestConnCorrelationAndClose(t *testing.T) {
	tc := startCluster(t, 1)
	conn, err := client.Dial(tc.addrs[0], "t", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.MetadataResponse
	if err := conn.RoundTrip(wire.APIMetadata, &wire.MetadataRequest{}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Brokers) != 1 {
		t.Fatalf("brokers = %v", resp.Brokers)
	}
	conn.Close()
	if !conn.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if err := conn.RoundTrip(wire.APIMetadata, &wire.MetadataRequest{}, &resp); !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("round trip on closed conn: %v", err)
	}
}

func TestBrokerSurvivesGarbageBytes(t *testing.T) {
	// A connection that sends garbage must be dropped without affecting
	// the broker (resource isolation against misbehaving clients, §2.1).
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "robust", 1, 1)

	conn, err := client.Dial(tc.addrs[0], "garbage", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// A frame with a bogus huge length prefix: the broker must reject it.
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}
	if err := writeRaw(t, tc.addrs[0], raw); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The broker still serves normal clients.
	p := client.NewProducer(c, client.ProducerConfig{})
	defer p.Close()
	if _, err := p.SendSync(client.Message{Topic: "robust", Value: []byte("ok")}); err != nil {
		t.Fatalf("broker unhealthy after garbage: %v", err)
	}
}

// TestUndecodableRequestClosesConnection: a request the broker cannot
// decode exactly — an unknown API key, a truncated body, trailing bytes —
// gets no response, since
// any response body would read to the client as some success (an empty
// produce response decodes as a fetch response with no data). The broker
// closes the connection instead, as it does for a bad header.
func TestUndecodableRequestClosesConnection(t *testing.T) {
	tc := startCluster(t, 1)
	hdr := func(api wire.APIKey) *wire.RequestHeader {
		return &wire.RequestHeader{API: api, CorrelationID: 1, ClientID: "raw"}
	}
	fetch := wire.EncodeRequest(hdr(wire.APIFetch), &wire.FetchRequest{
		ReplicaID: -1, MaxBytes: 1 << 20,
		Topics: []wire.FetchTopic{{Name: "t", Partitions: []wire.FetchPartition{{Partition: 0, MaxBytes: 1 << 20}}}},
	})
	cases := []struct {
		name    string
		payload []byte
		answer  bool
	}{
		{"metadata (control)", wire.EncodeRequest(hdr(wire.APIMetadata), &wire.MetadataRequest{}), true},
		{"unknown api", wire.EncodeRequest(hdr(99), &wire.MetadataRequest{}), false},
		{"truncated fetch", fetch[:len(fetch)-3], false},
		{"fetch with a trailing byte", append(fetch[:len(fetch):len(fetch)], 0), false},
	}
	for _, tcase := range cases {
		nc, err := net.DialTimeout("tcp", tc.addrs[0], time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(nc, tcase.payload); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := wire.ReadFrame(nc)
		nc.Close()
		switch {
		case tcase.answer && err != nil:
			t.Errorf("%s: no response: %v", tcase.name, err)
		case !tcase.answer && err == nil:
			t.Errorf("%s: broker answered with a %d-byte response", tcase.name, len(resp))
		case !tcase.answer && !errors.Is(err, io.EOF):
			t.Errorf("%s: connection not closed: %v", tcase.name, err)
		}
	}
}
