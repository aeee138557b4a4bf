package broker

import (
	"log/slog"
	"testing"
	"time"

	"repro/internal/storage/log"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// These tests drive the broker's liveness decisions — ISR lag detection and
// group-member expiry — entirely through injected clocks: no sleeps, no
// tickers, no flake. The timing-dependent paths take explicit now values
// (or read Config.Now), so a test advances time by passing a later instant.

var clockBase = time.Unix(1_700_000_000, 0)

func TestLaggingFollowerDetectionInjectedClock(t *testing.T) {
	l, err := log.Open(t.TempDir(), log.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := newReplica(tp{topic: "lag", partition: 0}, l, 1)
	defer r.close()
	r.becomeLeader(1, []int32{1, 2}, []int32{1, 2}, 1)

	// Follower 2 fetches at t0 with an empty log: caught up.
	r.onFollowerFetch(2, 0, clockBase)
	if lag := r.laggingFollowers(time.Second, clockBase); len(lag) != 0 {
		t.Fatalf("caught-up follower flagged lagging: %v", lag)
	}

	// The leader appends; the follower never fetches again.
	batch := record.EncodeBatch(0, []record.Record{{Timestamp: 1, Value: []byte("x")}})
	if _, _, _, code := r.appendSealedAsLeader([][]byte{batch}, 1); code != 0 {
		t.Fatalf("append failed: %v", code)
	}
	// Within maxLag: not yet lagging.
	if lag := r.laggingFollowers(time.Second, clockBase.Add(500*time.Millisecond)); len(lag) != 0 {
		t.Fatalf("follower flagged lagging before maxLag: %v", lag)
	}
	// Past maxLag: flagged for ISR shrink.
	lag := r.laggingFollowers(time.Second, clockBase.Add(1500*time.Millisecond))
	if len(lag) != 1 || lag[0] != 2 {
		t.Fatalf("lagging = %v, want [2]", lag)
	}

	// The follower catches up: it stops being lagging, and the high
	// watermark advances to cover the replicated record.
	r.onFollowerFetch(2, 1, clockBase.Add(2*time.Second))
	if lag := r.laggingFollowers(time.Second, clockBase.Add(2*time.Second)); len(lag) != 0 {
		t.Fatalf("caught-up follower still lagging: %v", lag)
	}
	if hw := r.highWatermark(); hw != 1 {
		t.Fatalf("hw = %d after full replication, want 1", hw)
	}
}

// clockBroker builds an offline Broker shell whose Config.Now reads the
// test's clock variable — enough structure for the group coordinator's
// state machine, which needs no network.
func clockBroker(now *time.Time) *Broker {
	cfg := Config{Now: func() time.Time { return *now }}.withDefaults()
	return &Broker{
		cfg:    cfg,
		logger: slog.Default(),
	}
}

func TestOffsetCommitStampsInjectedClock(t *testing.T) {
	// Offset-commit records are sealed by the offsets manager itself, so
	// their timestamp must come from the broker's clock, not the wall clock
	// the log would stamp a zero timestamp with.
	now := clockBase
	b := clockBroker(&now)
	b.offsets = newOffsetManager(b)
	l, err := log.Open(t.TempDir(), log.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opart := groupPartition("g", b.cfg.OffsetsPartitions)
	r := newReplica(tp{topic: OffsetsTopic, partition: opart}, l, 1)
	defer r.close()
	r.becomeLeader(1, []int32{1}, []int32{1}, 1)
	b.replicas = map[tp]*replica{r.tp: r}
	b.offsets.load(opart, r)

	if code := b.offsets.commit("g", "t", 0, 7, "meta"); code != wire.ErrNone {
		t.Fatalf("commit: %v", code)
	}
	data, err := l.Read(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var stamps []int64
	record.ScanRecords(data, func(rec record.Record) error {
		stamps = append(stamps, rec.Timestamp)
		return nil
	})
	if len(stamps) != 1 || stamps[0] != clockBase.UnixMilli() {
		t.Fatalf("offsets-topic record timestamps = %v, want [%d] (the injected clock)", stamps, clockBase.UnixMilli())
	}
}

func TestGroupMemberExpiryInjectedClock(t *testing.T) {
	now := clockBase
	b := clockBroker(&now)
	g := newGroupCoordinator(b)
	grp := &group{
		name:             "g",
		state:            groupStable,
		generation:       3,
		rebalanceTimeout: 2 * time.Second,
		members: map[string]*member{
			"fast": {id: "fast", sessionTimeout: time.Second, lastHeartbeat: clockBase},
			"slow": {id: "slow", sessionTimeout: 5 * time.Second, lastHeartbeat: clockBase},
		},
	}
	g.groups["g"] = grp

	// Before any timeout: nothing changes.
	g.tick(clockBase.Add(500 * time.Millisecond))
	if len(grp.members) != 2 || grp.state != groupStable {
		t.Fatalf("premature expiry: members=%d state=%v", len(grp.members), grp.state)
	}

	// Past "fast"'s session timeout: it is evicted and the group enters a
	// rebalance for the survivor.
	now = clockBase.Add(1500 * time.Millisecond)
	g.tick(now)
	if _, ok := grp.members["fast"]; ok {
		t.Fatal("expired member still present")
	}
	if _, ok := grp.members["slow"]; !ok {
		t.Fatal("live member evicted")
	}
	if grp.state != groupPreparingRebalance {
		t.Fatalf("state = %v, want preparing-rebalance", grp.state)
	}

	// The survivor never rejoins; when the rebalance deadline passes it is
	// evicted too and the group empties.
	now = grp.rebalanceDeadline.Add(time.Millisecond)
	g.tick(now)
	if grp.state != groupEmpty || len(grp.members) != 0 {
		t.Fatalf("state=%v members=%d, want empty group", grp.state, len(grp.members))
	}
}

func TestGroupRebalanceBarrierExpiryInjectedClock(t *testing.T) {
	now := clockBase
	b := clockBroker(&now)
	g := newGroupCoordinator(b)
	grp := &group{
		name:              "g",
		state:             groupPreparingRebalance,
		generation:        1,
		rebalanceTimeout:  2 * time.Second,
		rebalanceDeadline: clockBase.Add(2 * time.Second),
		members:           map[string]*member{},
	}
	joinCh := make(chan *wire.JoinGroupResponse, 1)
	ready := &member{id: "ready", sessionTimeout: 30 * time.Second, lastHeartbeat: clockBase}
	ready.pendingJoin = joinCh
	straggler := &member{id: "straggler", sessionTimeout: 30 * time.Second, lastHeartbeat: clockBase}
	grp.members["ready"] = ready
	grp.members["straggler"] = straggler
	g.groups["g"] = grp

	// Barrier holds while the straggler is missing and the deadline is in
	// the future.
	g.tick(clockBase.Add(time.Second))
	if grp.state != groupPreparingRebalance {
		t.Fatalf("barrier released early: %v", grp.state)
	}
	select {
	case <-joinCh:
		t.Fatal("join completed before deadline with a straggler missing")
	default:
	}

	// Deadline passes: the straggler is evicted, the barrier completes for
	// the joined member, which becomes leader of the next generation.
	now = clockBase.Add(2*time.Second + time.Millisecond)
	g.tick(now)
	select {
	case resp := <-joinCh:
		if resp.Generation != 2 || resp.LeaderID != "ready" {
			t.Fatalf("join response = gen %d leader %q", resp.Generation, resp.LeaderID)
		}
	default:
		t.Fatal("barrier never completed after deadline")
	}
	if _, ok := grp.members["straggler"]; ok {
		t.Fatal("straggler survived the deadline")
	}
	if grp.state != groupCompletingRebalance {
		t.Fatalf("state = %v, want completing-rebalance", grp.state)
	}
}
