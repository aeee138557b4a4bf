package broker

// Ops plane: the labeled metric families, slow-request log, health checks
// and status report behind the per-broker observability endpoints
// (internal/obs). Everything here is stdlib-only and designed to stay off
// the hot path: families are pre-resolved once at startup so a request
// records into child metrics via one RLock map hit, and the gauge families
// that require walking broker state (replication lag, group lag, checkpoint
// age, table freshness) are rebuilt by a 1s housekeeping tick instead of
// being computed per scrape.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage/log"
	"repro/internal/wire"
)

// slowLogCapacity bounds the ring of slowest recent requests kept for
// /debug/slowlog; slowLogWindow ages entries out so the page reflects the
// recent past, not the slowest requests since boot.
const (
	slowLogCapacity = 128
	slowLogWindow   = 10 * time.Minute
)

// walHealthLag is the WAL sync lag beyond which /healthz degrades: a log
// that has carried unsynced bytes for this long means the sync loop is
// wedged or the disk has stalled.
const walHealthLag = 5 * time.Second

// brokerMetrics pre-resolves every labeled family the request path and the
// ops tick record into. Resolving the family once (instead of per request)
// keeps the per-request cost to a child lookup plus atomic adds.
type brokerMetrics struct {
	// Per-API request instrumentation, recorded by serveConn around
	// dispatch.
	apiRequests *metrics.CounterFamily   // broker.api.requests{api}
	apiLatency  *metrics.HistogramFamily // broker.api.latency.ns{api}
	apiBytesIn  *metrics.CounterFamily   // broker.api.bytes.in{api}
	apiErrors   *metrics.CounterFamily   // broker.api.errors{api,code}

	// Fetch service path: spliced hot-log range vs buffered cold-tier bytes.
	fetchServed *metrics.CounterFamily // broker.fetch.served{path}

	// Gauge families rebuilt each opsTick. Every tuple carries this
	// broker's id label so that, when several brokers share one registry
	// (the in-process core.Stack), each tick retires only its own stale
	// tuples via DeleteWhere instead of wiping its peers' with Reset.
	id                string               // this broker's id, as a label value
	replicaLagOffsets *metrics.GaugeFamily // broker.replica.lag.offsets{broker,topic,partition,follower}
	replicaLagMs      *metrics.GaugeFamily // broker.replica.lag.ms{broker,topic,partition,follower}
	groupLag          *metrics.GaugeFamily // broker.group.lag{broker,group,topic,partition}
	checkpointAgeMs   *metrics.GaugeFamily // log.checkpoint.age.ms{broker,topic,partition}
	syncLagMs         *metrics.GaugeFamily // log.sync.lag.ms{broker,topic,partition}
	tableLag          *metrics.GaugeFamily // broker.table.lag.offsets{broker,topic,partition}
	tableApplied      *metrics.GaugeFamily // broker.table.applied.offset{broker,topic,partition}

	slowlog *obs.SlowLog

	// now is the broker's injected clock, for slow-log timestamps.
	now func() time.Time
}

func newBrokerMetrics(reg *metrics.Registry, brokerID int32, now func() time.Time) *brokerMetrics {
	return &brokerMetrics{
		now:               now,
		id:                strconv.Itoa(int(brokerID)),
		apiRequests:       reg.CounterFamily("broker.api.requests", "api"),
		apiLatency:        reg.HistogramFamily("broker.api.latency.ns", "api"),
		apiBytesIn:        reg.CounterFamily("broker.api.bytes.in", "api"),
		apiErrors:         reg.CounterFamily("broker.api.errors", "api", "code"),
		fetchServed:       reg.CounterFamily("broker.fetch.served", "path"),
		replicaLagOffsets: reg.GaugeFamily("broker.replica.lag.offsets", "broker", "topic", "partition", "follower"),
		replicaLagMs:      reg.GaugeFamily("broker.replica.lag.ms", "broker", "topic", "partition", "follower"),
		groupLag:          reg.GaugeFamily("broker.group.lag", "broker", "group", "topic", "partition"),
		checkpointAgeMs:   reg.GaugeFamily("log.checkpoint.age.ms", "broker", "topic", "partition"),
		syncLagMs:         reg.GaugeFamily("log.sync.lag.ms", "broker", "topic", "partition"),
		tableLag:          reg.GaugeFamily("broker.table.lag.offsets", "broker", "topic", "partition"),
		tableApplied:      reg.GaugeFamily("broker.table.applied.offset", "broker", "topic", "partition"),
		slowlog:           obs.NewSlowLog(slowLogCapacity, slowLogWindow),
	}
}

// purge retires every gauge tuple this broker exported. Called on shutdown:
// a standalone broker's metrics endpoint dies with the process, but in an
// in-process stack the shared registry outlives the broker, and a dead
// broker's last gauge values must not linger on its peers' /metrics.
func (m *brokerMetrics) purge() {
	m.replicaLagOffsets.DeleteWhere("broker", m.id)
	m.replicaLagMs.DeleteWhere("broker", m.id)
	m.checkpointAgeMs.DeleteWhere("broker", m.id)
	m.syncLagMs.DeleteWhere("broker", m.id)
	m.groupLag.DeleteWhere("broker", m.id)
	m.tableLag.DeleteWhere("broker", m.id)
	m.tableApplied.DeleteWhere("broker", m.id)
}

// noteRequest records one dispatched request into the per-API families and
// the slow log. d includes handler time only (frame read/write excluded);
// for long-poll fetches it includes the wait budget, same as Kafka's
// request logs — a "slow" fetch is usually an idle one.
func (m *brokerMetrics) noteRequest(api wire.APIKey, principal string, reqBytes int, resp wire.Message, d time.Duration) {
	name := api.String()
	m.apiRequests.With(name).Inc()
	m.apiLatency.With(name).Observe(int64(d))
	m.apiBytesIn.With(name).Add(int64(reqBytes))
	for _, code := range respErrorCodes(resp) {
		// ErrorCode.String() is prose; the numeric code keeps label
		// values short and stable.
		m.apiErrors.With(name, strconv.Itoa(int(code))).Inc()
	}
	topic, partition := respDetail(resp)
	m.slowlog.Observe(obs.SlowLogEntry{
		API:       name,
		Principal: principal,
		Topic:     topic,
		Partition: partition,
		Duration:  d,
		At:        m.now(),
	})
}

// respDetail extracts the first topic/partition a response touches, for
// slow-log attribution. Multi-partition requests are attributed to their
// first entry — the slow log is a pointer, not an audit trail.
func respDetail(resp wire.Message) (string, int32) {
	switch r := resp.(type) {
	case *wire.ProduceResponse:
		if len(r.Topics) > 0 && len(r.Topics[0].Partitions) > 0 {
			return r.Topics[0].Name, r.Topics[0].Partitions[0].Partition
		}
	case *wire.FetchResponse:
		if len(r.Topics) > 0 && len(r.Topics[0].Partitions) > 0 {
			return r.Topics[0].Name, r.Topics[0].Partitions[0].Partition
		}
	case *wire.ListOffsetsResponse:
		if len(r.Topics) > 0 && len(r.Topics[0].Partitions) > 0 {
			return r.Topics[0].Name, r.Topics[0].Partitions[0].Partition
		}
	case *wire.OffsetCommitResponse:
		if len(r.Topics) > 0 && len(r.Topics[0].Partitions) > 0 {
			return r.Topics[0].Name, r.Topics[0].Partitions[0].Partition
		}
	case *wire.OffsetFetchResponse:
		if len(r.Topics) > 0 && len(r.Topics[0].Partitions) > 0 {
			return r.Topics[0].Name, r.Topics[0].Partitions[0].Partition
		}
	case *wire.TierStatusResponse:
		if len(r.Topics) > 0 && len(r.Topics[0].Partitions) > 0 {
			return r.Topics[0].Name, r.Topics[0].Partitions[0].Partition
		}
	case *wire.CreateTopicsResponse:
		if len(r.Results) > 0 {
			return r.Results[0].Name, -1
		}
	case *wire.DeleteTopicsResponse:
		if len(r.Results) > 0 {
			return r.Results[0].Name, -1
		}
	}
	return "", -1
}

// respErrorCodes collects the non-zero error codes a response carries, so
// broker.api.errors{api,code} counts failures by kind without the handlers
// having to thread instrumentation through every early return.
func respErrorCodes(resp wire.Message) []wire.ErrorCode {
	var out []wire.ErrorCode
	add := func(c wire.ErrorCode) {
		if c != wire.ErrNone {
			out = append(out, c)
		}
	}
	switch r := resp.(type) {
	case *wire.ProduceResponse:
		for i := range r.Topics {
			for j := range r.Topics[i].Partitions {
				add(r.Topics[i].Partitions[j].Err)
			}
		}
	case *wire.FetchResponse:
		for i := range r.Topics {
			for j := range r.Topics[i].Partitions {
				add(r.Topics[i].Partitions[j].Err)
			}
		}
	case *wire.ListOffsetsResponse:
		for i := range r.Topics {
			for j := range r.Topics[i].Partitions {
				add(r.Topics[i].Partitions[j].Err)
			}
		}
	case *wire.OffsetCommitResponse:
		for i := range r.Topics {
			for j := range r.Topics[i].Partitions {
				add(r.Topics[i].Partitions[j].Err)
			}
		}
	case *wire.OffsetFetchResponse:
		for i := range r.Topics {
			for j := range r.Topics[i].Partitions {
				add(r.Topics[i].Partitions[j].Err)
			}
		}
	case *wire.CreateTopicsResponse:
		for i := range r.Results {
			add(r.Results[i].Err)
		}
	case *wire.DeleteTopicsResponse:
		for i := range r.Results {
			add(r.Results[i].Err)
		}
	case *wire.AlterQuotasResponse:
		for i := range r.Results {
			add(r.Results[i].Err)
		}
	case *wire.OffsetQueryResponse:
		add(r.Err)
	case *wire.InitProducerResponse:
		add(r.Err)
	case *wire.FindCoordinatorResponse:
		add(r.Err)
	case *wire.JoinGroupResponse:
		add(r.Err)
	case *wire.SyncGroupResponse:
		add(r.Err)
	case *wire.HeartbeatResponse:
		add(r.Err)
	case *wire.LeaveGroupResponse:
		add(r.Err)
	case *wire.DescribeQuotasResponse:
		add(r.Err)
	case *wire.TableGetResponse:
		add(r.Err)
	case *wire.TableRangeResponse:
		add(r.Err)
	}
	return out
}

// ------------------------------------------------------------ ops tick

// opsTick rebuilds the gauge families that mirror broker state: replication
// lag per follower, consumer-group lag per committed stream, WAL sync lag and
// checkpoint age, and table-materializer freshness. Delete+rebuild (rather than
// incremental updates) is what retires tuples for partitions or groups this
// broker stopped hosting — a stale gauge is worse than a missing one. The
// deletion is scoped to this broker's own label so concurrent ticks from
// other brokers sharing the registry never wipe each other's tuples.
func (b *Broker) opsTick(now time.Time) {
	m := b.met

	m.replicaLagOffsets.DeleteWhere("broker", m.id)
	m.replicaLagMs.DeleteWhere("broker", m.id)
	m.checkpointAgeMs.DeleteWhere("broker", m.id)
	m.syncLagMs.DeleteWhere("broker", m.id)
	for _, r := range b.replicaSnapshot() {
		topic, part := r.tp.topic, strconv.Itoa(int(r.tp.partition))
		for _, f := range r.followerLags(now) {
			fl := strconv.Itoa(int(f.id))
			m.replicaLagOffsets.With(m.id, topic, part, fl).Set(f.offsets)
			m.replicaLagMs.With(m.id, topic, part, fl).Set(f.ms)
		}
		// Two clocks: how stale the on-disk recovery checkpoint is (it only
		// bounds the recovery scan) and how long the oldest unsynced append
		// has waited for its fsync (the durability promise).
		if age, ok := r.log.CheckpointAge(now); ok {
			m.checkpointAgeMs.With(m.id, topic, part).Set(age.Milliseconds())
		}
		m.syncLagMs.With(m.id, topic, part).Set(r.log.DurabilityLag(now).Milliseconds())
	}

	m.groupLag.DeleteWhere("broker", m.id)
	b.offsets.groupLags(func(k offsetKey, lag int64) {
		m.groupLag.With(m.id, k.group, k.topic, strconv.Itoa(int(k.partition))).Set(lag)
	})

	m.tableLag.DeleteWhere("broker", m.id)
	m.tableApplied.DeleteWhere("broker", m.id)
	for t, p := range b.tableSnapshot() {
		applied, hw := p.Freshness()
		part := strconv.Itoa(int(t.partition))
		lag := hw - applied
		if lag < 0 {
			lag = 0
		}
		m.tableLag.With(m.id, t.topic, part).Set(lag)
		m.tableApplied.With(m.id, t.topic, part).Set(applied)
	}
}

// ------------------------------------------------------------ health

// healthChecks builds the /healthz probes: coordination-session liveness
// (a broker whose session expired is about to lose all its leaderships),
// WAL durability (no log has carried unsynced bytes past walHealthLag),
// and counter monotonicity (metrics.NegativeAdds, which flags instrumented
// code handing negative deltas to counters).
func (b *Broker) healthChecks() []obs.HealthCheck {
	return []obs.HealthCheck{
		{Name: "coord-session", Check: func() error {
			if !b.store.SessionAlive(b.session) {
				return errSessionExpired
			}
			return nil
		}},
		{Name: "wal-durability", Check: func() error {
			if b.cfg.Durability.Policy == log.SyncNone {
				return nil // nothing is promised, nothing can be late
			}
			now := b.cfg.Now()
			for _, r := range b.replicaSnapshot() {
				if lag := r.log.DurabilityLag(now); lag > walHealthLag {
					return fmt.Errorf("%s unsynced for %s", r.tp.String(), lag.Round(time.Millisecond))
				}
			}
			return nil
		}},
		{Name: "metrics-monotone", Check: func() error {
			if n := metrics.NegativeAdds(); n > 0 {
				return fmt.Errorf("%d negative counter adds", n)
			}
			return nil
		}},
	}
}

var errSessionExpired = errors.New("coordination session expired")

// ------------------------------------------------------------ status

// statusReport is the /status document: a point-in-time JSON snapshot of
// everything an operator asks first — what this broker leads, how far its
// followers and tables are behind, how much data is hot vs tiered cold,
// and whether quotas are biting.
type statusReport struct {
	Broker     int32             `json:"broker"`
	Addr       string            `json:"addr"`
	OpsAddr    string            `json:"opsAddr"`
	Controller int32             `json:"controller"`
	Partitions []partitionStatus `json:"partitions"`
	Tables     []tableStatus     `json:"tables,omitempty"`
	Throttles  map[string]int64  `json:"quotaThrottles"`
	SlowLogLen int               `json:"slowlogLen"`
}

type partitionStatus struct {
	Topic         string  `json:"topic"`
	Partition     int32   `json:"partition"`
	Leader        bool    `json:"leader"`
	LeaderID      int32   `json:"leaderId"`
	Epoch         int32   `json:"epoch"`
	ISR           []int32 `json:"isr,omitempty"`
	StartOffset   int64   `json:"startOffset"`
	NextOffset    int64   `json:"nextOffset"`
	HighWatermark int64   `json:"highWatermark"`
	HotSegments   int     `json:"hotSegments"`
	HotBytes      int64   `json:"hotBytes"`
	ColdSegments  int     `json:"coldSegments,omitempty"`
	ColdBytes     int64   `json:"coldBytes,omitempty"`
	Producers     int     `json:"producers,omitempty"`
	SyncLagMs     int64   `json:"syncLagMs,omitempty"`
}

type tableStatus struct {
	Topic         string `json:"topic"`
	Partition     int32  `json:"partition"`
	AppliedOffset int64  `json:"appliedOffset"`
	HighWatermark int64  `json:"highWatermark"`
	Rows          int    `json:"rows"`
}

// statusReportNow assembles the /status snapshot.
func (b *Broker) statusReportNow() statusReport {
	now := b.cfg.Now()
	rep := statusReport{
		Broker:     b.cfg.ID,
		Addr:       b.Addr(),
		OpsAddr:    b.OpsAddr(),
		Controller: b.reg.ControllerID(),
		Throttles:  map[string]int64{},
	}
	for _, kind := range []string{"request", "produce", "fetch"} {
		rep.Throttles[kind] = b.cfg.Metrics.Counter("broker.quota.throttles." + kind).Value()
	}
	rep.SlowLogLen = b.met.slowlog.Len()

	for _, r := range b.replicaSnapshot() {
		r.mu.Lock()
		ps := partitionStatus{
			Topic:         r.tp.topic,
			Partition:     r.tp.partition,
			Leader:        r.isLeader,
			LeaderID:      r.leaderID,
			Epoch:         r.epoch,
			ISR:           append([]int32(nil), r.isr...),
			HighWatermark: r.hw,
		}
		t := r.tier
		r.mu.Unlock()
		ps.StartOffset = r.log.StartOffset()
		ps.NextOffset = r.log.NextOffset()
		ps.HotSegments = r.log.SegmentCount()
		ps.HotBytes = r.log.Size()
		ps.Producers = r.log.ProducerCount()
		ps.SyncLagMs = r.log.DurabilityLag(now).Milliseconds()
		if t != nil {
			st := t.TierStats()
			ps.ColdSegments = st.Segments
			ps.ColdBytes = st.Bytes
		}
		rep.Partitions = append(rep.Partitions, ps)
	}
	sort.Slice(rep.Partitions, func(i, j int) bool {
		a, c := rep.Partitions[i], rep.Partitions[j]
		if a.Topic != c.Topic {
			return a.Topic < c.Topic
		}
		return a.Partition < c.Partition
	})

	for t, p := range b.tableSnapshot() {
		applied, hw := p.Freshness()
		rep.Tables = append(rep.Tables, tableStatus{
			Topic:         t.topic,
			Partition:     t.partition,
			AppliedOffset: applied,
			HighWatermark: hw,
			Rows:          p.ApproxLen(),
		})
	}
	sort.Slice(rep.Tables, func(i, j int) bool {
		a, c := rep.Tables[i], rep.Tables[j]
		if a.Topic != c.Topic {
			return a.Topic < c.Topic
		}
		return a.Partition < c.Partition
	})
	return rep
}
