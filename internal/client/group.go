package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
)

// ErrGroupClosed reports use of a closed group consumer.
var ErrGroupClosed = errors.New("client: group consumer closed")

// GroupConfig parameterises a GroupConsumer.
type GroupConfig struct {
	// Group is the consumer group id. Groups get queue semantics within
	// and pub/sub semantics across (paper §3.1).
	Group string
	// Topics is the subscription.
	Topics []string
	// SessionTimeout bounds missed heartbeats before eviction.
	SessionTimeout time.Duration
	// RebalanceTimeout bounds the join barrier.
	RebalanceTimeout time.Duration
	// HeartbeatInterval is the background heartbeat period.
	HeartbeatInterval time.Duration
	// AutoCommit commits positions after each Poll and on rebalance, so a
	// partition changes hands at the position its previous owner reached.
	// Without it delivery across a rebalance is at-least-once: the new
	// owner resumes from the last explicit Commit (or StartFrom when there
	// is none), and everything the previous owner polled since then is
	// delivered again.
	AutoCommit bool
	// StartFrom applies when no committed offset exists.
	StartFrom int64 // StartEarliest or StartLatest
	// Annotations are attached to every offset commit (e.g. software
	// version for rewind, paper §4.2).
	Annotations map[string]string
	// OnAssigned, if set, observes each new assignment.
	OnAssigned func(map[string][]int32)
}

func (c GroupConfig) withDefaults() GroupConfig {
	if c.SessionTimeout == 0 {
		c.SessionTimeout = 10 * time.Second
	}
	if c.RebalanceTimeout == 0 {
		c.RebalanceTimeout = 3 * time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = c.SessionTimeout / 5
	}
	if c.StartFrom == 0 {
		c.StartFrom = StartEarliest
	}
	return c
}

// memberMetadata is the subscription a member sends when joining; the
// group leader uses it to compute assignments.
type memberMetadata struct {
	Topics []string `json:"topics"`
}

// assignmentData is the per-member assignment distributed via SyncGroup.
type assignmentData struct {
	Topics map[string][]int32 `json:"topics"`
}

// GroupConsumer is a consumer participating in a consumer group: it joins
// via the coordinator, receives a partition assignment (computed by the
// group leader with a range strategy), polls those partitions, and commits
// offsets through the offset manager.
type GroupConsumer struct {
	c     *Client
	cfg   GroupConfig
	inner *Consumer

	mu         sync.Mutex
	coordConn  *Conn // dedicated: joins block server-side
	coordID    int32
	memberID   string
	generation int32
	assignment map[string][]int32
	needRejoin bool
	closed     bool

	hbStop chan struct{}
	hbDone chan struct{}
}

// NewGroupConsumer creates a group consumer; it joins lazily on first Poll.
func NewGroupConsumer(c *Client, consumerCfg ConsumerConfig, cfg GroupConfig) (*GroupConsumer, error) {
	cfg = cfg.withDefaults()
	if cfg.Group == "" || len(cfg.Topics) == 0 {
		return nil, errors.New("client: group and topics are required")
	}
	return &GroupConsumer{
		c:          c,
		cfg:        cfg,
		inner:      NewConsumer(c, consumerCfg),
		coordID:    -1,
		needRejoin: true,
	}, nil
}

// Assignment returns the current assignment (topic -> partitions).
func (g *GroupConsumer) Assignment() map[string][]int32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string][]int32, len(g.assignment))
	for t, ps := range g.assignment {
		out[t] = append([]int32(nil), ps...)
	}
	return out
}

// Position returns the next offset to be fetched for an assigned
// partition, or -1 if unassigned.
func (g *GroupConsumer) Position(topic string, partition int32) int64 {
	return g.inner.Position(topic, partition)
}

// Seek moves the fetch position of an assigned partition. Consumers whose
// durable progress lives outside the offset manager (e.g. the archiver's
// manifests) use it to realign after an assignment.
func (g *GroupConsumer) Seek(topic string, partition int32, offset int64) error {
	return g.inner.Seek(topic, partition, offset)
}

// MemberID returns the coordinator-assigned member id (empty before the
// first join).
func (g *GroupConsumer) MemberID() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.memberID
}

// Generation returns the current group generation.
func (g *GroupConsumer) Generation() int32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.generation
}

// Poll ensures membership and fetches from the assigned partitions.
func (g *GroupConsumer) Poll(maxWait time.Duration) ([]Message, error) {
	return groupPoll(g, maxWait, g.inner.Poll)
}

// PollBatches is Poll delivering whole batches (Consumer.PollBatches).
func (g *GroupConsumer) PollBatches(maxWait time.Duration) ([]Batch, error) {
	return groupPoll(g, maxWait, g.inner.PollBatches)
}

// groupPoll rejoins when the group asks for it, polls the assignment with
// poll, and auto-commits after a poll that delivered anything.
func groupPoll[T any](g *GroupConsumer, maxWait time.Duration, poll func(time.Duration) ([]T, error)) ([]T, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrGroupClosed
	}
	rejoin := g.needRejoin
	g.mu.Unlock()
	if rejoin {
		if err := g.rejoin(); err != nil {
			return nil, err
		}
	}
	g.mu.Lock()
	empty := len(g.assignment) == 0
	g.mu.Unlock()
	if empty {
		time.Sleep(maxWait) // no partitions this generation
		return nil, nil
	}
	items, err := poll(maxWait)
	if g.cfg.AutoCommit && len(items) > 0 {
		if cerr := g.Commit(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return items, err
}

// Commit checkpoints the current positions with the configured
// annotations.
func (g *GroupConsumer) Commit() error {
	positions := make(map[string]map[int32]int64)
	g.mu.Lock()
	assignment := g.assignment
	g.mu.Unlock()
	for topic, parts := range assignment {
		for _, p := range parts {
			pos := g.inner.Position(topic, p)
			if pos < 0 {
				continue
			}
			if positions[topic] == nil {
				positions[topic] = make(map[int32]int64)
			}
			positions[topic][p] = pos
		}
	}
	if len(positions) == 0 {
		return nil
	}
	return g.c.CommitOffsets(g.cfg.Group, positions, g.cfg.Annotations)
}

// rejoin runs the full join/sync cycle and installs the new assignment.
func (g *GroupConsumer) rejoin() error {
	g.stopHeartbeat()
	if g.cfg.AutoCommit {
		_ = g.Commit() // best-effort revoke commit
	}

	conn, err := g.coordinatorConn()
	if err != nil {
		return err
	}
	g.mu.Lock()
	memberID := g.memberID
	g.mu.Unlock()

	joinReq := &wire.JoinGroupRequest{
		Group:              g.cfg.Group,
		SessionTimeoutMs:   int32(g.cfg.SessionTimeout / time.Millisecond),
		RebalanceTimeoutMs: int32(g.cfg.RebalanceTimeout / time.Millisecond),
		MemberID:           memberID,
		Protocol:           "range",
	}
	meta, _ := json.Marshal(memberMetadata{Topics: g.cfg.Topics})
	joinReq.Metadata = meta

	var joinResp wire.JoinGroupResponse
	if err := conn.RoundTrip(wire.APIJoinGroup, joinReq, &joinResp); err != nil {
		g.dropCoordinator()
		return err
	}
	switch joinResp.Err {
	case wire.ErrNone:
		// Keep the coordinator-assigned member id even if the rest of
		// this cycle fails: rejoining under the same id avoids leaving a
		// ghost member that stalls the next join barrier.
		g.mu.Lock()
		g.memberID = joinResp.MemberID
		g.mu.Unlock()
	case wire.ErrUnknownMemberID:
		g.mu.Lock()
		g.memberID = ""
		g.mu.Unlock()
		return joinResp.Err.Err()
	case wire.ErrNotCoordinator, wire.ErrCoordinatorNotAvailable:
		g.dropCoordinator()
		return joinResp.Err.Err()
	default:
		return joinResp.Err.Err()
	}

	syncReq := &wire.SyncGroupRequest{
		Group:      g.cfg.Group,
		Generation: joinResp.Generation,
		MemberID:   joinResp.MemberID,
	}
	if joinResp.MemberID == joinResp.LeaderID {
		assignments, err := g.computeAssignments(joinResp.Members)
		if err != nil {
			return err
		}
		syncReq.Assignments = assignments
	}
	var syncResp wire.SyncGroupResponse
	if err := conn.RoundTrip(wire.APISyncGroup, syncReq, &syncResp); err != nil {
		g.dropCoordinator()
		return err
	}
	if syncResp.Err != wire.ErrNone {
		if syncResp.Err == wire.ErrNotCoordinator {
			g.dropCoordinator()
		}
		return syncResp.Err.Err()
	}

	var assigned assignmentData
	if len(syncResp.Assignment) > 0 {
		if err := json.Unmarshal(syncResp.Assignment, &assigned); err != nil {
			return fmt.Errorf("client: bad assignment: %w", err)
		}
	}
	if assigned.Topics == nil {
		assigned.Topics = make(map[string][]int32)
	}

	// Install the assignment: resolve start offsets from commits.
	g.inner.UnassignAll()
	for topic, parts := range assigned.Topics {
		committed, err := g.c.FetchOffsets(g.cfg.Group, topic, parts)
		if err != nil {
			return err
		}
		for _, p := range parts {
			start := committed[p]
			if start < 0 {
				start = g.cfg.StartFrom
			}
			if err := g.inner.Assign(topic, p, start); err != nil {
				return err
			}
		}
	}
	g.mu.Lock()
	g.memberID = joinResp.MemberID
	g.generation = joinResp.Generation
	g.assignment = assigned.Topics
	g.needRejoin = false
	g.mu.Unlock()
	g.startHeartbeat()
	if g.cfg.OnAssigned != nil {
		g.cfg.OnAssigned(g.Assignment())
	}
	return nil
}

// computeAssignments implements the range strategy over all members'
// subscriptions: for each topic, contiguous partition ranges are dealt to
// subscribed members in member-id order.
func (g *GroupConsumer) computeAssignments(members []wire.GroupMember) ([]wire.GroupAssignment, error) {
	subs := make(map[string][]string) // topic -> member ids
	for _, m := range members {
		var meta memberMetadata
		if err := json.Unmarshal(m.Metadata, &meta); err != nil {
			continue
		}
		for _, t := range meta.Topics {
			subs[t] = append(subs[t], m.MemberID)
		}
	}
	perMember := make(map[string]map[string][]int32) // member -> topic -> parts
	for topic, memberIDs := range subs {
		sort.Strings(memberIDs)
		n, err := g.c.PartitionCount(topic)
		if err != nil {
			return nil, err
		}
		count := int32(len(memberIDs))
		base := n / count
		extra := n % count
		next := int32(0)
		for i, id := range memberIDs {
			take := base
			if int32(i) < extra {
				take++
			}
			for p := next; p < next+take; p++ {
				if perMember[id] == nil {
					perMember[id] = make(map[string][]int32)
				}
				perMember[id][topic] = append(perMember[id][topic], p)
			}
			next += take
		}
	}
	out := make([]wire.GroupAssignment, 0, len(members))
	for _, m := range members {
		data, err := json.Marshal(assignmentData{Topics: perMember[m.MemberID]})
		if err != nil {
			return nil, err
		}
		out = append(out, wire.GroupAssignment{MemberID: m.MemberID, Assignment: data})
	}
	return out, nil
}

// coordinatorConn returns (establishing if needed) the dedicated
// coordinator connection.
func (g *GroupConsumer) coordinatorConn() (*Conn, error) {
	g.mu.Lock()
	conn := g.coordConn
	g.mu.Unlock()
	if conn != nil && !conn.Closed() {
		return conn, nil
	}
	id, err := g.c.FindCoordinator(g.cfg.Group)
	if err != nil {
		return nil, err
	}
	conn, err = g.c.DialDedicated(id)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		conn.Close()
		return nil, ErrGroupClosed
	}
	if g.coordConn != nil {
		g.coordConn.Close()
	}
	g.coordConn = conn
	g.coordID = id
	return conn, nil
}

// dropCoordinator discards the coordinator connection (it moved or died).
func (g *GroupConsumer) dropCoordinator() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.coordConn != nil {
		g.coordConn.Close()
		g.coordConn = nil
	}
	g.coordID = -1
}

// startHeartbeat launches the background heartbeat for the current
// generation.
func (g *GroupConsumer) startHeartbeat() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hbStop = make(chan struct{})
	g.hbDone = make(chan struct{})
	memberID, generation := g.memberID, g.generation
	stop, done := g.hbStop, g.hbDone
	go func() {
		defer close(done)
		ticker := time.NewTicker(g.cfg.HeartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			id, err := g.c.FindCoordinator(g.cfg.Group)
			if err != nil {
				continue
			}
			conn, err := g.c.ConnTo(id)
			if err != nil {
				continue
			}
			var resp wire.HeartbeatResponse
			req := &wire.HeartbeatRequest{Group: g.cfg.Group, Generation: generation, MemberID: memberID}
			if err := g.c.ConnErr(conn.RoundTrip(wire.APIHeartbeat, req, &resp), id); err != nil {
				continue
			}
			switch resp.Err {
			case wire.ErrNone:
			case wire.ErrRebalanceInProgress, wire.ErrIllegalGeneration:
				// Flag the rejoin but KEEP heartbeating: the beats keep
				// this member alive at the coordinator while the next
				// Poll works its way to the join barrier.
				g.mu.Lock()
				g.needRejoin = true
				g.mu.Unlock()
			case wire.ErrUnknownMemberID:
				g.mu.Lock()
				g.needRejoin = true
				g.memberID = ""
				g.mu.Unlock()
				return
			case wire.ErrNotCoordinator:
				g.mu.Lock()
				g.needRejoin = true
				g.mu.Unlock()
				g.dropCoordinator()
				return
			default:
				g.mu.Lock()
				g.needRejoin = true
				g.mu.Unlock()
				return
			}
		}
	}()
}

// ConnErr drops the cached connection to id when err != nil and passes the
// error through.
func (c *Client) ConnErr(err error, id int32) error {
	if err != nil {
		c.dropConn(id)
	}
	return err
}

// stopHeartbeat halts the background heartbeat, if running.
func (g *GroupConsumer) stopHeartbeat() {
	g.mu.Lock()
	stop, done := g.hbStop, g.hbDone
	g.hbStop, g.hbDone = nil, nil
	g.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Close leaves the group and releases connections.
func (g *GroupConsumer) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	memberID := g.memberID
	conn := g.coordConn
	g.mu.Unlock()

	g.stopHeartbeat()
	if g.cfg.AutoCommit {
		_ = g.Commit()
	}
	if conn != nil && !conn.Closed() && memberID != "" {
		var resp wire.LeaveGroupResponse
		_ = conn.RoundTrip(wire.APILeaveGroup, &wire.LeaveGroupRequest{
			Group:    g.cfg.Group,
			MemberID: memberID,
		}, &resp)
		conn.Close()
	}
	g.inner.Close()
	return nil
}
