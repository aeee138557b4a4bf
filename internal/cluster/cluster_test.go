package cluster

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/coord"
)

func newRegistry() (*Registry, *coord.Store) {
	store := coord.New(coord.Config{})
	return NewRegistry(store), store
}

func TestBrokerRegistration(t *testing.T) {
	reg, store := newRegistry()
	sid := store.CreateSession(time.Hour)
	for i := int32(3); i >= 1; i-- {
		if err := reg.RegisterBroker(sid, BrokerInfo{ID: i, Host: "h", Port: 9000 + i}); err != nil {
			t.Fatal(err)
		}
	}
	live := reg.LiveBrokers()
	if len(live) != 3 {
		t.Fatalf("live = %v", live)
	}
	for i, b := range live {
		if b.ID != int32(i+1) {
			t.Fatalf("brokers not sorted: %v", live)
		}
	}
	if !reg.BrokerAlive(2) || reg.BrokerAlive(9) {
		t.Fatal("BrokerAlive wrong")
	}
	if got := live[0].Addr(); got != "h:9001" {
		t.Fatalf("Addr = %q", got)
	}
}

func TestTopicLifecycle(t *testing.T) {
	reg, _ := newRegistry()
	info := TopicInfo{
		Name:       "events",
		Config:     TopicConfig{NumPartitions: 2, ReplicationFactor: 2},
		Assignment: [][]int32{{1, 2}, {2, 1}},
	}
	if err := reg.CreateTopic(info); err != nil {
		t.Fatal(err)
	}
	got, err := reg.GetTopic("events")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, info) {
		t.Fatalf("GetTopic = %+v", got)
	}
	if names := reg.Topics(); len(names) != 1 || names[0] != "events" {
		t.Fatalf("Topics = %v", names)
	}
	// Initial partition states: leader = first replica, ISR = all.
	st, ver, err := reg.PartitionState("events", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Leader != 1 || st.Epoch != 1 || !reflect.DeepEqual(st.ISR, []int32{1, 2}) || ver != 1 {
		t.Fatalf("state = %+v v%d", st, ver)
	}
	st1, _, _ := reg.PartitionState("events", 1)
	if st1.Leader != 2 {
		t.Fatalf("partition 1 leader = %d", st1.Leader)
	}
	if err := reg.DeleteTopic("events"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.GetTopic("events"); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("after delete: %v", err)
	}
	if _, _, err := reg.PartitionState("events", 0); err == nil {
		t.Fatal("partition state should be deleted with the topic")
	}
}

func TestPartitionStateCAS(t *testing.T) {
	reg, _ := newRegistry()
	reg.CreateTopic(TopicInfo{Name: "t", Assignment: [][]int32{{1, 2}}})
	st, ver, _ := reg.PartitionState("t", 0)
	st.ISR = []int32{1}
	nv, err := reg.SetPartitionState("t", 0, st, ver)
	if err != nil || nv != ver+1 {
		t.Fatalf("CAS: nv=%d err=%v", nv, err)
	}
	if _, err := reg.SetPartitionState("t", 0, st, ver); !errors.Is(err, coord.ErrBadVersion) {
		t.Fatalf("stale CAS: %v", err)
	}
}

func TestAssignReplicas(t *testing.T) {
	got, err := AssignReplicas([]int32{3, 1, 2}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{1, 2}, {2, 3}, {3, 1}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("assignment = %v, want %v", got, want)
	}
	// Leadership (first replica) is spread across brokers.
	leaders := map[int32]int{}
	for _, rs := range got {
		leaders[rs[0]]++
	}
	if len(leaders) != 3 {
		t.Fatalf("leaders not spread: %v", leaders)
	}
}

func TestAssignReplicasErrors(t *testing.T) {
	if _, err := AssignReplicas(nil, 1, 1); err == nil {
		t.Fatal("no brokers should fail")
	}
	if _, err := AssignReplicas([]int32{1}, 1, 3); err == nil {
		t.Fatal("rf > brokers should fail")
	}
	// rf < 1 coerces to 1.
	got, err := AssignReplicas([]int32{1}, 2, 0)
	if err != nil || len(got[0]) != 1 {
		t.Fatalf("rf coercion: %v %v", got, err)
	}
}

func TestControllerElection(t *testing.T) {
	reg, store := newRegistry()
	s1 := store.CreateSession(time.Hour)
	s2 := store.CreateSession(time.Hour)
	won, _ := reg.ElectController(s1, 1)
	if !won || reg.ControllerID() != 1 {
		t.Fatalf("election failed: controller=%d", reg.ControllerID())
	}
	won, _ = reg.ElectController(s2, 2)
	if won {
		t.Fatal("second candidate should lose")
	}
	store.CloseSession(s1)
	if reg.ControllerID() != -1 {
		t.Fatal("controller seat should be empty")
	}
}

func TestParsePaths(t *testing.T) {
	if topic, p, ok := ParseStatePath("/state/events/3"); !ok || topic != "events" || p != 3 {
		t.Fatalf("ParseStatePath = %q %d %v", topic, p, ok)
	}
	if topic, p, ok := ParseStatePath("/state/my-topic.v2/12"); !ok || topic != "my-topic.v2" || p != 12 {
		t.Fatalf("ParseStatePath = %q %d %v", topic, p, ok)
	}
	for _, bad := range []string{"/brokers/1", "/state/noslash", "/state/t/x"} {
		if _, _, ok := ParseStatePath(bad); ok {
			t.Fatalf("ParseStatePath(%q) should fail", bad)
		}
	}
	if id, ok := ParseBrokerPath("/brokers/7"); !ok || id != 7 {
		t.Fatalf("ParseBrokerPath = %d %v", id, ok)
	}
	if _, ok := ParseBrokerPath("/topics/x"); ok {
		t.Fatal("foreign path parsed as broker")
	}
}

func TestInISR(t *testing.T) {
	st := PartitionState{ISR: []int32{1, 3}}
	if !st.InISR(1) || !st.InISR(3) || st.InISR(2) {
		t.Fatal("InISR wrong")
	}
}

// startController runs a controller for a broker with its own session.
func startController(t *testing.T, reg *Registry, store *coord.Store, id int32, timeout time.Duration) (*Controller, coord.SessionID) {
	t.Helper()
	sid := store.CreateSession(timeout)
	if err := reg.RegisterBroker(sid, BrokerInfo{ID: id, Host: "h", Port: 9000 + id}); err != nil {
		t.Fatal(err)
	}
	c := NewController(reg, sid, id, nil)
	c.Start()
	t.Cleanup(c.Stop)
	return c, sid
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestControllerFailsOverDeadLeader(t *testing.T) {
	reg, store := newRegistry()
	_, s1 := startController(t, reg, store, 1, 400*time.Millisecond)
	startController(t, reg, store, 2, time.Hour)
	startController(t, reg, store, 3, time.Hour)

	reg.CreateTopic(TopicInfo{
		Name:       "t",
		Config:     TopicConfig{NumPartitions: 2, ReplicationFactor: 3},
		Assignment: [][]int32{{1, 2, 3}, {2, 3, 1}},
	})

	// Broker 1 (leader of partition 0 and a controller candidate) dies:
	// its session is closed, as a graceful shutdown would.
	store.CloseSession(s1)

	waitFor(t, "leadership to move off broker 1", 3*time.Second, func() bool {
		st, _, err := reg.PartitionState("t", 0)
		return err == nil && st.Leader != 1 && st.Leader != -1
	})
	st, _, _ := reg.PartitionState("t", 0)
	if st.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2 after one failover", st.Epoch)
	}
	if st.InISR(1) {
		t.Fatalf("dead broker still in ISR: %+v", st)
	}
	// Partition 1's leader (2) was alive: leadership unchanged, but the
	// dead broker left its ISR.
	waitFor(t, "isr shrink on partition 1", 3*time.Second, func() bool {
		st1, _, err := reg.PartitionState("t", 1)
		return err == nil && st1.Leader == 2 && !st1.InISR(1)
	})
	// A new controller eventually holds the seat.
	waitFor(t, "controller re-election", 3*time.Second, func() bool {
		id := reg.ControllerID()
		return id == 2 || id == 3
	})
}

// TestControllerFencedBySession: a controller whose session closed has lost
// the seat with its ephemeral nodes and must not act on the broker
// deletions that follow. No other controller runs here, so any partition
// state written after the session closes is the fenced controller's.
func TestControllerFencedBySession(t *testing.T) {
	reg, store := newRegistry()
	s2 := store.CreateSession(time.Hour)
	if err := reg.RegisterBroker(s2, BrokerInfo{ID: 2, Host: "h", Port: 9002}); err != nil {
		t.Fatal(err)
	}
	// Broker 3 never registers, so the controller's sweep on election
	// moves leadership to 2; once that is written the controller is idle.
	reg.CreateTopic(TopicInfo{
		Name:       "t",
		Config:     TopicConfig{NumPartitions: 1, ReplicationFactor: 3},
		Assignment: [][]int32{{3, 2, 1}},
	})
	_, s1 := startController(t, reg, store, 1, time.Hour)
	waitFor(t, "the sweep on election", 3*time.Second, func() bool {
		st, _, err := reg.PartitionState("t", 0)
		return err == nil && st.Leader == 2
	})
	_, before, err := reg.PartitionState("t", 0)
	if err != nil {
		t.Fatal(err)
	}

	store.CloseSession(s1) // the controller's own session: seat and broker node go
	store.CloseSession(s2) // the partition's leader dies after it

	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		st, ver, err := reg.PartitionState("t", 0)
		if err != nil {
			t.Fatal(err)
		}
		if ver != before {
			t.Fatalf("a controller without a session wrote partition state %+v (version %d → %d)", st, before, ver)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestControllerMarksPartitionOfflineWithoutISR(t *testing.T) {
	reg, store := newRegistry()
	_, s1 := startController(t, reg, store, 1, time.Hour)
	startController(t, reg, store, 2, time.Hour)

	reg.CreateTopic(TopicInfo{
		Name:       "solo",
		Config:     TopicConfig{NumPartitions: 1, ReplicationFactor: 1},
		Assignment: [][]int32{{1}},
	})
	store.CloseSession(s1)

	waitFor(t, "partition offline", 3*time.Second, func() bool {
		st, _, err := reg.PartitionState("solo", 0)
		return err == nil && st.Leader == -1
	})
	st, _, _ := reg.PartitionState("solo", 0)
	if len(st.ISR) != 0 {
		t.Fatalf("ISR should be empty, got %+v", st)
	}
}

func TestWaitForBrokers(t *testing.T) {
	reg, store := newRegistry()
	go func() {
		time.Sleep(30 * time.Millisecond)
		sid := store.CreateSession(time.Hour)
		reg.RegisterBroker(sid, BrokerInfo{ID: 1})
	}()
	live := reg.WaitForBrokers(1, 2*time.Second)
	if len(live) != 1 {
		t.Fatalf("live = %v", live)
	}
	if got := reg.WaitForBrokers(5, 50*time.Millisecond); len(got) != 1 {
		t.Fatalf("timeout path = %v", got)
	}
}

func TestQuotaRegistryRoundTrip(t *testing.T) {
	reg, _ := newRegistry()

	if _, ok, err := reg.GetQuota("tenant-a"); err != nil || ok {
		t.Fatalf("unconfigured quota: ok=%v err=%v", ok, err)
	}
	q := QuotaConfig{ProduceBytesPerSec: 1 << 20, FetchBytesPerSec: 4 << 20, RequestsPerSec: 100}
	if err := reg.SetQuota("tenant-a", q); err != nil {
		t.Fatalf("SetQuota: %v", err)
	}
	got, ok, err := reg.GetQuota("tenant-a")
	if err != nil || !ok || got != q {
		t.Fatalf("GetQuota = %+v ok=%v err=%v, want %+v", got, ok, err, q)
	}

	// Upsert overwrites in place.
	q.RequestsPerSec = 50
	if err := reg.SetQuota("tenant-a", q); err != nil {
		t.Fatalf("SetQuota upsert: %v", err)
	}
	if got, _, _ := reg.GetQuota("tenant-a"); got.RequestsPerSec != 50 {
		t.Fatalf("upsert not applied: %+v", got)
	}

	if err := reg.SetQuota("tenant-b", QuotaConfig{RequestsPerSec: 10}); err != nil {
		t.Fatalf("SetQuota tenant-b: %v", err)
	}
	all := reg.Quotas()
	if len(all) != 2 || all["tenant-a"].RequestsPerSec != 50 || all["tenant-b"].RequestsPerSec != 10 {
		t.Fatalf("Quotas() = %+v", all)
	}

	if err := reg.DeleteQuota("tenant-a"); err != nil {
		t.Fatalf("DeleteQuota: %v", err)
	}
	if err := reg.DeleteQuota("tenant-a"); err != nil {
		t.Fatalf("DeleteQuota of absent quota should be nil, got %v", err)
	}
	if _, ok, _ := reg.GetQuota("tenant-a"); ok {
		t.Fatal("quota survived delete")
	}

	if err := reg.SetQuota("", QuotaConfig{}); err == nil {
		t.Fatal("empty principal accepted")
	}
}

func TestParseQuotaPath(t *testing.T) {
	if p, ok := ParseQuotaPath("/quotas/tenant-a"); !ok || p != "tenant-a" {
		t.Fatalf("ParseQuotaPath = %q, %v", p, ok)
	}
	for _, path := range []string{"/quotas/", "/topics/x", "/state/t/0"} {
		if _, ok := ParseQuotaPath(path); ok {
			t.Fatalf("ParseQuotaPath(%q) should not match", path)
		}
	}
}

// TestAllocateProducerAnonymous: every anonymous init gets a fresh unique
// id at epoch 0 — ids never collide even under concurrent allocation.
func TestAllocateProducerAnonymous(t *testing.T) {
	reg, _ := newRegistry()
	seen := make(map[int64]bool)
	for i := 0; i < 10; i++ {
		pi, err := reg.AllocateProducer("")
		if err != nil {
			t.Fatal(err)
		}
		if pi.Epoch != 0 {
			t.Fatalf("anonymous producer got epoch %d, want 0", pi.Epoch)
		}
		if seen[pi.ID] {
			t.Fatalf("producer id %d allocated twice", pi.ID)
		}
		seen[pi.ID] = true
	}
}

// TestAllocateProducerNamedEpochBump: a named producer keeps its id across
// re-inits while the epoch climbs — that is what fences a zombie instance
// after its replacement registered.
func TestAllocateProducerNamedEpochBump(t *testing.T) {
	reg, _ := newRegistry()
	first, err := reg.AllocateProducer("etl-loader")
	if err != nil {
		t.Fatal(err)
	}
	if first.Epoch != 0 {
		t.Fatalf("first init epoch = %d, want 0", first.Epoch)
	}
	for want := int32(1); want <= 3; want++ {
		pi, err := reg.AllocateProducer("etl-loader")
		if err != nil {
			t.Fatal(err)
		}
		if pi.ID != first.ID {
			t.Fatalf("named producer id changed: %d -> %d", first.ID, pi.ID)
		}
		if pi.Epoch != want {
			t.Fatalf("epoch = %d, want %d", pi.Epoch, want)
		}
	}
	// A different name gets a different id.
	other, err := reg.AllocateProducer("other")
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == first.ID {
		t.Fatal("distinct names share a producer id")
	}
}
