package broker_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/coord"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// testCluster is an in-process multi-broker cluster over real TCP.
type testCluster struct {
	store      *coord.Store
	stopExpiry func()
	brokers    []*broker.Broker
	addrs      []string
	dataDirs   []string
}

// startCluster boots n brokers with test-friendly (fast) timeouts.
func startCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	store := coord.New(coord.Config{})
	tc := &testCluster{store: store, stopExpiry: store.StartExpiry(50 * time.Millisecond)}
	rf := int16(1)
	if n > 1 {
		rf = int16(n)
		if rf > 3 {
			rf = 3
		}
	}
	for i := 0; i < n; i++ {
		dataDir := t.TempDir()
		tc.dataDirs = append(tc.dataDirs, dataDir)
		b, err := broker.Start(store, broker.Config{
			ID:                 int32(i + 1),
			DataDir:            dataDir,
			SessionTimeout:     600 * time.Millisecond,
			ReplicaMaxLag:      time.Second,
			RetentionInterval:  time.Hour, // not under test here
			OffsetsPartitions:  2,
			OffsetsReplication: rf,
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

func (tc *testCluster) shutdown() {
	for _, b := range tc.brokers {
		b.Stop()
	}
	tc.stopExpiry()
}

// newClient builds a client with aggressive retries suitable for failover
// tests.
func (tc *testCluster) newClient(t *testing.T) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{
		Bootstrap:    tc.addrs,
		ClientID:     "test",
		MaxRetries:   60,
		RetryBackoff: 25 * time.Millisecond,
		MetadataTTL:  250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func createTopic(t *testing.T, c *client.Client, name string, partitions int32, rf int16) {
	t.Helper()
	if err := c.CreateTopic(wire.TopicSpec{
		Name:              name,
		NumPartitions:     partitions,
		ReplicationFactor: rf,
	}); err != nil {
		t.Fatalf("create topic %s: %v", name, err)
	}
}

// collectN polls until n messages arrive or the deadline passes.
func collectN(t *testing.T, poll func(time.Duration) ([]client.Message, error), n int, timeout time.Duration) []client.Message {
	t.Helper()
	var out []client.Message
	deadline := time.Now().Add(timeout)
	for len(out) < n {
		if time.Now().After(deadline) {
			t.Fatalf("collected %d/%d messages before timeout", len(out), n)
		}
		msgs, err := poll(200 * time.Millisecond)
		if err != nil {
			continue // transient during rebalances/failovers
		}
		out = append(out, msgs...)
	}
	return out
}

func TestProduceConsumeSingleBroker(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "events", 1, 1)

	p := client.NewProducer(c, client.ProducerConfig{})
	defer p.Close()
	for i := 0; i < 10; i++ {
		off, err := p.SendSync(client.Message{
			Topic: "events",
			Key:   []byte("k"),
			Value: []byte(fmt.Sprintf("v%d", i)),
		})
		if err != nil {
			t.Fatalf("SendSync %d: %v", i, err)
		}
		if off != int64(i) {
			t.Fatalf("offset = %d, want %d", off, i)
		}
	}

	cons := client.NewConsumer(c, client.ConsumerConfig{})
	defer cons.Close()
	if err := cons.Assign("events", 0, client.StartEarliest); err != nil {
		t.Fatal(err)
	}
	msgs := collectN(t, cons.Poll, 10, 5*time.Second)
	for i, m := range msgs {
		if string(m.Value) != fmt.Sprintf("v%d", i) || m.Offset != int64(i) {
			t.Fatalf("msg %d = %+v", i, m)
		}
		if m.Timestamp == 0 {
			t.Fatal("broker should stamp append time")
		}
	}
	if got := cons.Position("events", 0); got != 10 {
		t.Fatalf("position = %d", got)
	}
}

func TestProducerBatchingAndHeaders(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "batched", 1, 1)

	p := client.NewProducer(c, client.ProducerConfig{Linger: time.Hour}) // only explicit flush
	defer p.Close()
	for i := 0; i < 50; i++ {
		err := p.Send(client.Message{
			Topic:   "batched",
			Value:   []byte(fmt.Sprintf("v%d", i)),
			Headers: []record.Header{{Key: "lineage", Value: []byte("test-job")}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	cons := client.NewConsumer(c, client.ConsumerConfig{})
	defer cons.Close()
	cons.Assign("batched", 0, client.StartEarliest)
	msgs := collectN(t, cons.Poll, 50, 5*time.Second)
	if len(msgs[0].Headers) != 1 || msgs[0].Headers[0].Key != "lineage" {
		t.Fatalf("headers lost: %+v", msgs[0].Headers)
	}
}

func TestKeyedPartitioningPreservesPerKeyOrder(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "keyed", 4, 1)

	p := client.NewProducer(c, client.ProducerConfig{})
	defer p.Close()
	const keys, each = 8, 20
	for i := 0; i < each; i++ {
		for k := 0; k < keys; k++ {
			err := p.Send(client.Message{
				Topic: "keyed",
				Key:   []byte(fmt.Sprintf("user-%d", k)),
				Value: []byte(fmt.Sprintf("%d", i)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	cons := client.NewConsumer(c, client.ConsumerConfig{})
	defer cons.Close()
	for pt := int32(0); pt < 4; pt++ {
		cons.Assign("keyed", pt, client.StartEarliest)
	}
	msgs := collectN(t, cons.Poll, keys*each, 10*time.Second)

	// Same key -> same partition, and values in send order per key.
	partOf := make(map[string]int32)
	lastVal := make(map[string]int)
	for _, m := range msgs {
		k := string(m.Key)
		if p0, ok := partOf[k]; ok && p0 != m.Partition {
			t.Fatalf("key %s on two partitions: %d, %d", k, p0, m.Partition)
		}
		partOf[k] = m.Partition
	}
	// Per-partition streams are ordered by offset; verify per-key values
	// are monotone within each partition.
	byPartition := make(map[int32][]client.Message)
	for _, m := range msgs {
		byPartition[m.Partition] = append(byPartition[m.Partition], m)
	}
	for _, ms := range byPartition {
		for i := 1; i < len(ms); i++ {
			if ms[i].Offset <= ms[i-1].Offset {
				t.Fatal("offsets not monotone within partition")
			}
		}
	}
	for _, m := range msgs {
		k := string(m.Key)
		var v int
		fmt.Sscanf(string(m.Value), "%d", &v)
		if prev, ok := lastVal[k]; ok && v < prev {
			t.Fatalf("key %s order violated: %d after %d", k, v, prev)
		}
		lastVal[k] = v
	}
}

func TestListOffsetsAndSeekByTimestamp(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "timed", 1, 1)

	p := client.NewProducer(c, client.ProducerConfig{})
	defer p.Close()
	base := time.Now().UnixMilli()
	for i := 0; i < 10; i++ {
		if _, err := p.SendSync(client.Message{
			Topic:     "timed",
			Timestamp: base + int64(i*1000),
			Value:     []byte(fmt.Sprintf("v%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	early, err := c.ListOffset("timed", 0, wire.TimestampEarliest)
	if err != nil || early != 0 {
		t.Fatalf("earliest = %d, %v", early, err)
	}
	latest, err := c.ListOffset("timed", 0, wire.TimestampLatest)
	if err != nil || latest != 10 {
		t.Fatalf("latest = %d, %v", latest, err)
	}
	mid, err := c.ListOffset("timed", 0, base+5000)
	if err != nil || mid != 5 {
		t.Fatalf("mid = %d, %v (rewindability by timestamp)", mid, err)
	}
}

func TestReplicationAcksAllSurvivesLeaderKill(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.newClient(t)
	createTopic(t, c, "ha", 1, 3)

	p := client.NewProducer(c, client.ProducerConfig{Acks: client.AcksAll})
	defer p.Close()

	// Produce a first tranche so replication is warmed up.
	var acked []string
	for i := 0; i < 20; i++ {
		v := fmt.Sprintf("pre-%d", i)
		if _, err := p.SendSync(client.Message{Topic: "ha", Key: []byte("k"), Value: []byte(v)}); err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
		acked = append(acked, v)
	}

	// Kill the partition leader the hard way (crash, not graceful).
	leaderID, err := c.LeaderFor("ha", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tc.brokers {
		if b.ID() == leaderID {
			b.Kill()
		}
	}

	// Keep producing through the failover; every acked message must
	// survive.
	for i := 0; i < 20; i++ {
		v := fmt.Sprintf("post-%d", i)
		if _, err := p.SendSync(client.Message{Topic: "ha", Key: []byte("k"), Value: []byte(v)}); err != nil {
			t.Fatalf("produce after kill %d: %v", i, err)
		}
		acked = append(acked, v)
	}

	newLeader, err := c.LeaderFor("ha", 0)
	if err != nil {
		t.Fatal(err)
	}
	if newLeader == leaderID {
		t.Fatalf("leadership did not move off %d", leaderID)
	}

	cons := client.NewConsumer(c, client.ConsumerConfig{})
	defer cons.Close()
	if err := cons.Assign("ha", 0, client.StartEarliest); err != nil {
		t.Fatal(err)
	}
	msgs := collectN(t, cons.Poll, len(acked), 15*time.Second)
	seen := make(map[string]bool)
	for _, m := range msgs {
		seen[string(m.Value)] = true
	}
	for _, v := range acked {
		if !seen[v] {
			t.Fatalf("acked message %q lost after failover", v)
		}
	}
}

func TestConsumerGroupQueueAndPubSubSemantics(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "work", 4, 1)

	p := client.NewProducer(c, client.ProducerConfig{})
	defer p.Close()
	const total = 80
	for i := 0; i < total; i++ {
		if err := p.Send(client.Message{Topic: "work", Value: []byte(fmt.Sprintf("m%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	groupCfg := func(group string) client.GroupConfig {
		return client.GroupConfig{
			Group:             group,
			Topics:            []string{"work"},
			SessionTimeout:    3 * time.Second,
			RebalanceTimeout:  5 * time.Second,
			HeartbeatInterval: 100 * time.Millisecond,
			// g1a owns all four partitions until g1b's join rebalances the
			// group. Exactly-once across that hand-over needs g1a's positions
			// committed; without AutoCommit what it polled first is
			// legitimately redelivered to g1b.
			AutoCommit: true,
		}
	}
	g1a, err := client.NewGroupConsumer(c, client.ConsumerConfig{}, groupCfg("g1"))
	if err != nil {
		t.Fatal(err)
	}
	defer g1a.Close()
	g1b, err := client.NewGroupConsumer(c, client.ConsumerConfig{}, groupCfg("g1"))
	if err != nil {
		t.Fatal(err)
	}
	defer g1b.Close()
	g2, err := client.NewGroupConsumer(c, client.ConsumerConfig{}, groupCfg("g2"))
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()

	var mu sync.Mutex
	g1Seen := make(map[string]int)
	g2Seen := make(map[string]int)
	var wg sync.WaitGroup
	drain := func(g *client.GroupConsumer, into map[string]int, want int) {
		defer wg.Done()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			n := 0
			for _, v := range into {
				n += v
			}
			mu.Unlock()
			if n >= want {
				return
			}
			msgs, err := g.Poll(200 * time.Millisecond)
			if err != nil {
				continue
			}
			mu.Lock()
			for _, m := range msgs {
				into[string(m.Value)]++
			}
			mu.Unlock()
		}
	}
	wg.Add(3)
	go drain(g1a, g1Seen, total)
	go drain(g1b, g1Seen, total)
	go drain(g2, g2Seen, total)
	wg.Wait()

	mu.Lock()
	// Queue semantics within g1: every message exactly once across the
	// two members.
	for i := 0; i < total; i++ {
		v := fmt.Sprintf("m%d", i)
		if g1Seen[v] != 1 {
			mu.Unlock()
			t.Fatalf("g1 saw %q %d times, want exactly 1", v, g1Seen[v])
		}
		if g2Seen[v] < 1 {
			mu.Unlock()
			t.Fatalf("g2 missed %q (pub/sub across groups)", v)
		}
	}
	mu.Unlock()
	// Load balancing: with both members polling independently, the
	// assignment settles at two partitions each.
	var stop2 int32
	for _, g := range []*client.GroupConsumer{g1a, g1b} {
		go func(g *client.GroupConsumer) {
			for atomic.LoadInt32(&stop2) == 0 {
				g.Poll(50 * time.Millisecond)
			}
		}(g)
	}
	defer atomic.StoreInt32(&stop2, 1)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if len(g1a.Assignment()["work"]) == 2 && len(g1b.Assignment()["work"]) == 2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("assignment never balanced: %v / %v",
		g1a.Assignment()["work"], g1b.Assignment()["work"])
}

func TestGroupRebalanceOnMemberExit(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "rb", 2, 1)

	cfg := client.GroupConfig{
		Group:             "rbg",
		Topics:            []string{"rb"},
		SessionTimeout:    3 * time.Second,
		RebalanceTimeout:  5 * time.Second,
		HeartbeatInterval: 100 * time.Millisecond,
	}
	gA, _ := client.NewGroupConsumer(c, client.ConsumerConfig{}, cfg)
	defer gA.Close()
	gB, _ := client.NewGroupConsumer(c, client.ConsumerConfig{}, cfg)

	// Drive both (concurrently, as two separate applications would) into
	// a stable generation with one partition each.
	var phase int32 // 0 = both polling, 1 = B stops, 2 = all stop
	var wg sync.WaitGroup
	bStopped := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for atomic.LoadInt32(&phase) < 2 {
			gA.Poll(50 * time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		defer close(bStopped)
		for atomic.LoadInt32(&phase) < 1 {
			gB.Poll(50 * time.Millisecond)
		}
	}()
	defer func() {
		atomic.StoreInt32(&phase, 2)
		wg.Wait()
	}()

	deadline := time.Now().Add(15 * time.Second)
	balanced := false
	for time.Now().Before(deadline) {
		if len(gA.Assignment()["rb"]) == 1 && len(gB.Assignment()["rb"]) == 1 {
			balanced = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !balanced {
		t.Fatalf("initial split wrong: %v / %v", gA.Assignment(), gB.Assignment())
	}

	// B leaves; A should take over both partitions. Wait for B's poll loop
	// to actually exit (deterministic handshake, not a sleep) so Close
	// cannot race a poll in flight.
	atomic.StoreInt32(&phase, 1)
	<-bStopped
	gB.Close()
	deadline = time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if len(gA.Assignment()["rb"]) == 2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("A never took over: %v", gA.Assignment())
}

func TestOffsetCommitFetchAndAnnotationQuery(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "ck", 1, 1)

	// Commit a v1 checkpoint, then v2 checkpoints.
	commit := func(off int64, version string) {
		t.Helper()
		err := c.CommitOffsets("job", map[string]map[int32]int64{"ck": {0: off}},
			map[string]string{"version": version})
		if err != nil {
			t.Fatalf("commit %d: %v", off, err)
		}
	}
	commit(10, "v1")
	commit(20, "v1")
	commit(30, "v2")
	commit(40, "v2")

	got, err := c.FetchOffsets("job", "ck", []int32{0})
	if err != nil || got[0] != 40 {
		t.Fatalf("FetchOffsets = %v, %v", got, err)
	}
	// Rewind to the last v1 checkpoint (paper §4.2: metadata-based
	// access for reprocessing after a software version change).
	off, found, err := c.QueryOffset("job", "ck", 0, "version", "v1")
	if err != nil || !found || off != 20 {
		t.Fatalf("QueryOffset v1 = %d %v %v", off, found, err)
	}
	off, found, err = c.QueryOffset("job", "ck", 0, "version", "v3")
	if err != nil || found {
		t.Fatalf("QueryOffset v3 = %d %v %v, want not found", off, found, err)
	}
	// Timestamp queries resolve to the newest checkpoint at/before now.
	off, found, err = c.QueryOffset("job", "ck", 0, "@timestamp",
		fmt.Sprint(time.Now().UnixMilli()))
	if err != nil || !found || off != 40 {
		t.Fatalf("QueryOffset @timestamp = %d %v %v", off, found, err)
	}
	// Unknown group has no checkpoints.
	got, err = c.FetchOffsets("nobody", "ck", []int32{0})
	if err != nil || got[0] != -1 {
		t.Fatalf("unknown group = %v, %v", got, err)
	}
}

// TestOversizedAnnotationRefused: a commit whose annotations do not fit the
// wire's int16 string length fails with an error and commits nothing. The
// encoder once cut the string at 32 767 bytes, mid-rune, and the broker
// stored the cut annotation as if it were whole.
func TestOversizedAnnotationRefused(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "big", 1, 1)

	long := strings.Repeat("é", 20000) // 40 000 bytes
	err := c.CommitOffsets("grp", map[string]map[int32]int64{"big": {0: 7}}, map[string]string{"note": long})
	if !errors.Is(err, wire.ErrEncode) {
		t.Fatalf("commit with a %d-byte annotation: %v, want wire.ErrEncode", len(long), err)
	}
	got, err := c.FetchOffsets("grp", "big", []int32{0})
	if err != nil || got[0] != -1 {
		t.Fatalf("committed offsets after the refused commit = %v, %v; want none", got, err)
	}
	if _, found, err := c.QueryOffset("grp", "big", 0, "note", long[:100]); err != nil || found {
		t.Fatalf("annotation query after the refused commit: found=%v err=%v", found, err)
	}
}

func TestOffsetsSurviveCoordinatorFailover(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.newClient(t)
	createTopic(t, c, "cf", 1, 3)

	if err := c.CommitOffsets("grp", map[string]map[int32]int64{"cf": {0: 123}},
		map[string]string{"version": "v7"}); err != nil {
		t.Fatal(err)
	}
	coordID, err := c.FindCoordinator("grp")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tc.brokers {
		if b.ID() == coordID {
			b.Kill()
		}
	}
	// The new coordinator must restore the checkpoint from the
	// replicated offsets topic.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := c.FetchOffsets("grp", "cf", []int32{0})
		if err == nil && got[0] == 123 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint lost after coordinator failover: %v err=%v", got, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	off, found, err := c.QueryOffset("grp", "cf", 0, "version", "v7")
	if err != nil || !found || off != 123 {
		t.Fatalf("annotation query after failover = %d %v %v", off, found, err)
	}
}

func TestSlowConsumerDoesNotBlockProducerOrFastConsumer(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "dec", 1, 1)

	p := client.NewProducer(c, client.ProducerConfig{})
	defer p.Close()

	fast := client.NewConsumer(c, client.ConsumerConfig{})
	defer fast.Close()
	fast.Assign("dec", 0, client.StartEarliest)
	slow := client.NewConsumer(c, client.ConsumerConfig{})
	defer slow.Close()
	slow.Assign("dec", 0, client.StartEarliest)

	// Produce steadily; fast consumer keeps up; slow consumer polls
	// rarely. Producer latency must not degrade (decoupling, §3.2).
	var worst time.Duration
	for i := 0; i < 100; i++ {
		start := time.Now()
		if _, err := p.SendSync(client.Message{Topic: "dec", Value: []byte(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
		if i%10 == 0 {
			fast.Poll(10 * time.Millisecond)
		}
	}
	if worst > 2*time.Second {
		t.Fatalf("producer latency degraded to %v with slow consumer attached", worst)
	}
	// The slow consumer can still read everything from the start.
	msgs := collectN(t, slow.Poll, 100, 10*time.Second)
	if len(msgs) < 100 {
		t.Fatalf("slow consumer read %d/100", len(msgs))
	}
}

func TestMetadataReflectsCluster(t *testing.T) {
	tc := startCluster(t, 3)
	c := tc.newClient(t)
	createTopic(t, c, "meta", 6, 2)

	brokers, err := c.Brokers()
	if err != nil || len(brokers) != 3 {
		t.Fatalf("brokers = %v, %v", brokers, err)
	}
	n, err := c.PartitionCount("meta")
	if err != nil || n != 6 {
		t.Fatalf("partitions = %d, %v", n, err)
	}
	leaders := make(map[int32]int)
	for p := int32(0); p < 6; p++ {
		l, err := c.LeaderFor("meta", p)
		if err != nil {
			t.Fatal(err)
		}
		leaders[l]++
	}
	if len(leaders) != 3 {
		t.Fatalf("leadership not spread over brokers: %v", leaders)
	}
}

func TestDeleteTopic(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "gone", 1, 1)
	p := client.NewProducer(c, client.ProducerConfig{})
	defer p.Close()
	if _, err := p.SendSync(client.Message{Topic: "gone", Value: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteTopic("gone"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteTopic("gone"); err == nil {
		t.Fatal("second delete should fail")
	}
}

func TestAcksNoneIsFireAndForget(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "fire", 1, 1)

	p := client.NewProducer(c, client.ProducerConfig{Acks: client.AcksNone})
	defer p.Close()
	for i := 0; i < 20; i++ {
		if _, err := p.SendSync(client.Message{Topic: "fire", Value: []byte(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	// The data still lands (eventually) — verify by consuming.
	cons := client.NewConsumer(c, client.ConsumerConfig{})
	defer cons.Close()
	cons.Assign("fire", 0, client.StartEarliest)
	collectN(t, cons.Poll, 20, 5*time.Second)
}
