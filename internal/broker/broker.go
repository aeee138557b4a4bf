package broker

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/storage/compact"
	"repro/internal/storage/log"
	"repro/internal/table"
	"repro/internal/tier"
)

// Config parameterises one broker.
type Config struct {
	// ID is the unique broker id.
	ID int32
	// Host/Port to listen on; Port 0 picks an ephemeral port.
	Host string
	Port int32
	// DataDir holds partition logs.
	DataDir string
	// SessionTimeout bounds how long after this broker stops heartbeating
	// it is declared dead by the controller.
	SessionTimeout time.Duration
	// KeepAliveInterval is the heartbeat period (default timeout/4).
	KeepAliveInterval time.Duration
	// ReplicaMaxLag is the ISR-shrink threshold: a follower that has not
	// caught up for this long is removed from the ISR (paper §4.3).
	ReplicaMaxLag time.Duration
	// ReplicaFetchWaitMs is the long-poll budget of replica fetchers.
	ReplicaFetchWaitMs int32
	// ReplicaFetchBytes bounds one replication fetch.
	ReplicaFetchBytes int32
	// RetentionInterval is how often retention is enforced (0 disables).
	RetentionInterval time.Duration
	// CompactionInterval is how often compacted topics are cleaned
	// (0 disables).
	CompactionInterval time.Duration
	// OffsetsPartitions is the partition count of the internal offsets
	// topic.
	OffsetsPartitions int32
	// OffsetsReplication is its replication factor (capped at the live
	// broker count at creation time).
	OffsetsReplication int16
	// Default log settings for topics that do not override them.
	DefaultSegmentBytes   int32
	DefaultRetentionMs    int64
	DefaultRetentionBytes int64
	// Durability is the WAL sync discipline applied to every partition log
	// on this broker (log.Durability): when appends are fsynced, and —
	// under the group-commit policy — that produce acks are deferred until
	// the covering fdatasync lands. The zero value keeps the legacy
	// OS-buffered flushing.
	Durability log.Durability
	// TierFS is the DFS handle tiered topics offload to (internal/tier).
	// Nil disables tiering on this broker: tiered topics still work, but
	// this broker never offloads and never deletes local segments of
	// tiered logs (the offload guard stays at zero, so no data is lost).
	TierFS *dfs.FS
	// TierRoot is the DFS prefix for tiered data (default "/tier").
	TierRoot string
	// TierInterval is how often partition leaders offload sealed segments
	// and enforce the total (tiered) retention horizon (default 500ms;
	// 0 uses the default, negative disables the loop).
	TierInterval time.Duration
	// TierUploadHook is a crash-injection hook for recovery tests: it runs
	// after a cold segment is renamed into place and before its manifest
	// commit. Returning an error aborts the offload there, leaving the
	// on-DFS state a crashed leader leaves behind. Nil in production.
	TierUploadHook func(topic string, partition int32, path string) error
	// DefaultQuota is the rate quota applied to every principal
	// (client-id) that has no per-principal quota persisted in the
	// coordination service (cmd/liquid-admin `quota set`). The zero value
	// disables default governance. Replication fetches are always exempt.
	DefaultQuota cluster.QuotaConfig
	// Listen binds the broker's listener; nil means plain TCP net.Listen.
	// Chaos harnesses (internal/chaos) substitute a listener factory that
	// registers the broker on an injected network so its links can be
	// severed, delayed or corrupted per §4.3 failure experiments.
	Listen func(host string, port int32) (net.Listener, error)
	// Dial opens this broker's outbound connections (replication fetches to
	// partition leaders); nil means plain TCP. Injected together with
	// Listen so asymmetric partitions cut replication links too.
	Dial client.Dialer
	// Now is the broker's clock for liveness decisions (ISR lag, group
	// member expiry, rebalance deadlines); nil means time.Now. Tests inject
	// a fake clock to drive expiry deterministically instead of sleeping.
	Now func() time.Time
	// Logger receives operational events; nil discards them.
	Logger *slog.Logger
	// Metrics receives broker counters; nil creates a private registry.
	Metrics *metrics.Registry
	// OpsAddr, when non-empty, binds the broker's ops HTTP server
	// (internal/obs): /metrics, /healthz, /status, /debug/pprof/* and
	// /debug/slowlog. "host:0" picks an ephemeral port; the bound address
	// is advertised in cluster metadata so admin tools can find it.
	// Empty disables the server.
	OpsAddr string
}

func (c Config) withDefaults() Config {
	if c.Host == "" {
		c.Host = "127.0.0.1"
	}
	if c.SessionTimeout == 0 {
		c.SessionTimeout = 2 * time.Second
	}
	if c.KeepAliveInterval == 0 {
		c.KeepAliveInterval = c.SessionTimeout / 4
	}
	if c.ReplicaMaxLag == 0 {
		c.ReplicaMaxLag = 2 * time.Second
	}
	if c.ReplicaFetchWaitMs == 0 {
		c.ReplicaFetchWaitMs = 50
	}
	if c.ReplicaFetchBytes == 0 {
		c.ReplicaFetchBytes = 1 << 20
	}
	if c.RetentionInterval == 0 {
		c.RetentionInterval = 15 * time.Second
	}
	if c.TierRoot == "" {
		c.TierRoot = "/tier"
	}
	if c.TierInterval == 0 {
		c.TierInterval = 500 * time.Millisecond
	}
	if c.OffsetsPartitions == 0 {
		c.OffsetsPartitions = 4
	}
	if c.OffsetsReplication == 0 {
		c.OffsetsReplication = 1
	}
	if c.Listen == nil {
		c.Listen = func(host string, port int32) (net.Listener, error) {
			return net.Listen("tcp", fmt.Sprintf("%s:%d", host, port))
		}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return c
}

// Broker is one messaging-layer node.
type Broker struct {
	cfg        Config
	store      *coord.Store
	reg        *cluster.Registry
	session    coord.SessionID
	controller *cluster.Controller
	listener   net.Listener
	logger     *slog.Logger

	mu       sync.Mutex
	replicas map[tp]*replica
	tables   map[tp]*table.Partition // materialized views of led table partitions
	conns    map[net.Conn]struct{}
	stopped  bool

	fetchers *fetcherManager
	groups   *groupCoordinator
	offsets  *offsetManager
	quotas   *quotaManager

	tierCache *tier.Cache // shared cold-reader LRU (nil without TierFS)

	met *brokerMetrics // request-path families + slow log
	ops *obs.Server    // ops HTTP endpoint (nil without OpsAddr)

	stopCh      chan struct{}
	wg          sync.WaitGroup
	watchCancel func()

	timeouts func(time.Duration) <-chan time.Time // replaces after's real-time waits in tests; nil in production
}

// Start launches a broker against the shared coordination store: it binds
// its listener, registers its ephemeral liveness node, adopts replicas for
// existing topics, joins the controller election and begins serving.
func Start(store *coord.Store, cfg Config) (*Broker, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("broker: DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	ln, err := cfg.Listen(cfg.Host, cfg.Port)
	if err != nil {
		return nil, fmt.Errorf("broker: listen: %w", err)
	}
	cfg.Port = int32(ln.Addr().(*net.TCPAddr).Port)

	b := &Broker{
		cfg:      cfg,
		store:    store,
		reg:      cluster.NewRegistry(store),
		listener: ln,
		logger:   cfg.Logger.With("broker", cfg.ID),
		replicas: make(map[tp]*replica),
		tables:   make(map[tp]*table.Partition),
		conns:    make(map[net.Conn]struct{}),
		stopCh:   make(chan struct{}),
	}
	b.fetchers = newFetcherManager(b)
	b.groups = newGroupCoordinator(b)
	b.offsets = newOffsetManager(b)
	b.quotas = newQuotaManager(b, cfg.DefaultQuota)
	if cfg.TierFS != nil {
		b.tierCache = tier.NewCache(tier.DefaultCacheBytes, cfg.Metrics)
	}
	b.met = newBrokerMetrics(cfg.Metrics, cfg.ID, cfg.Now)
	if cfg.OpsAddr != "" {
		srv, err := obs.Start(obs.Config{
			Addr:     cfg.OpsAddr,
			Registry: cfg.Metrics,
			Health:   b.healthChecks(),
			Status:   func() any { return b.statusReportNow() },
			SlowLog:  b.met.slowlog,
			Logger:   b.logger,
		})
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("broker: ops server: %w", err)
		}
		b.ops = srv
	}

	b.session = store.CreateSession(cfg.SessionTimeout)
	info := cluster.BrokerInfo{ID: cfg.ID, Host: cfg.Host, Port: cfg.Port, OpsAddr: b.OpsAddr()}
	if err := b.reg.RegisterBroker(b.session, info); err != nil {
		ln.Close()
		if b.ops != nil {
			b.ops.Close()
		}
		return nil, fmt.Errorf("broker: register: %w", err)
	}

	// Adopt replicas for already-known topics, then watch for changes.
	events, cancel := store.Watch("/")
	b.watchCancel = cancel
	b.syncAllTopics()

	b.controller = cluster.NewController(b.reg, b.session, cfg.ID, cfg.Logger)
	b.controller.Start()

	b.wg.Add(3)
	go b.watchLoop(events)
	go b.acceptLoop()
	go b.housekeeping()
	if cfg.TierFS != nil && cfg.TierInterval > 0 {
		b.wg.Add(1)
		go b.tierLoop()
	}

	b.logger.Info("broker started", "addr", b.Addr())
	return b, nil
}

// Addr returns the broker's listen address.
func (b *Broker) Addr() string {
	return fmt.Sprintf("%s:%d", b.cfg.Host, b.cfg.Port)
}

// ID returns the broker id.
func (b *Broker) ID() int32 { return b.cfg.ID }

// OpsAddr returns the bound address of the ops HTTP server, or "" when the
// broker runs without one.
func (b *Broker) OpsAddr() string {
	if b.ops == nil {
		return ""
	}
	return b.ops.Addr()
}

// Metrics returns the broker's metrics registry.
func (b *Broker) Metrics() *metrics.Registry { return b.cfg.Metrics }

// clientID renders this broker's identity for replication fetches.
func (b *Broker) clientID() string { return "broker-" + strconv.Itoa(int(b.cfg.ID)) }

// brokerAddr resolves a broker id to its address via the registry.
func (b *Broker) brokerAddr(id int32) (string, bool) {
	for _, info := range b.reg.LiveBrokers() {
		if info.ID == id {
			return info.Addr(), true
		}
	}
	return "", false
}

// getReplica returns the locally hosted replica for a partition, or nil.
func (b *Broker) getReplica(t tp) *replica {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.replicas[t]
}

// coordinatesGroup reports whether this broker leads the offsets-topic
// partition for the group.
func (b *Broker) coordinatesGroup(group string) bool {
	r := b.getReplica(tp{topic: OffsetsTopic, partition: groupPartition(group, b.cfg.OffsetsPartitions)})
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.isLeader
}

// logDir renders the directory for a partition log.
func (b *Broker) logDir(t tp) string {
	return filepath.Join(b.cfg.DataDir, fmt.Sprintf("%s-%d", t.topic, t.partition))
}

// logConfigFor merges topic config with broker defaults. For tiered topics
// the log's retention settings are the HOT horizon (HotRetention*): the
// topic-level Retention* values bound the total tiered log and are enforced
// by the tier engine against the cold tier.
func (b *Broker) logConfigFor(tc cluster.TopicConfig) log.Config {
	cfg := log.Config{
		SegmentBytes:   int64(tc.SegmentBytes),
		RetentionMs:    tc.RetentionMs,
		RetentionBytes: tc.RetentionBytes,
		Compacted:      tc.Compacted,
		Tiered:         tc.Tiered,
	}
	if tc.Tiered {
		cfg.RetentionMs = tc.HotRetentionMs
		cfg.RetentionBytes = tc.HotRetentionBytes
	}
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = int64(b.cfg.DefaultSegmentBytes)
	}
	if cfg.RetentionMs == 0 {
		cfg.RetentionMs = b.cfg.DefaultRetentionMs
	}
	if cfg.RetentionBytes == 0 {
		cfg.RetentionBytes = b.cfg.DefaultRetentionBytes
	}
	cfg.Durability = b.cfg.Durability
	cfg.Metrics = b.cfg.Metrics
	return cfg
}

// tierConfigFor builds the tier engine config for a tiered topic.
func (b *Broker) tierConfigFor(t tp, tc cluster.TopicConfig) tier.Config {
	cfg := tier.Config{
		Root:                b.cfg.TierRoot,
		TotalRetentionMs:    tc.RetentionMs,
		TotalRetentionBytes: tc.RetentionBytes,
	}
	if cfg.TotalRetentionMs == 0 {
		cfg.TotalRetentionMs = b.cfg.DefaultRetentionMs
	}
	if cfg.TotalRetentionBytes == 0 {
		cfg.TotalRetentionBytes = b.cfg.DefaultRetentionBytes
	}
	if hook := b.cfg.TierUploadHook; hook != nil {
		cfg.OnUploaded = func(path string) error {
			return hook(t.topic, t.partition, path)
		}
	}
	return cfg
}

// syncAllTopics adopts replicas and roles for every topic in the registry.
func (b *Broker) syncAllTopics() {
	for _, name := range b.reg.Topics() {
		info, err := b.reg.GetTopic(name)
		if err != nil {
			continue
		}
		b.ensureTopic(info)
	}
}

// ensureTopic opens local replicas for partitions assigned to this broker
// and applies their current leadership state.
func (b *Broker) ensureTopic(info cluster.TopicInfo) {
	for p, replicas := range info.Assignment {
		hosted := false
		for _, id := range replicas {
			if id == b.cfg.ID {
				hosted = true
				break
			}
		}
		if !hosted {
			continue
		}
		t := tp{topic: info.Name, partition: int32(p)}
		b.mu.Lock()
		if b.stopped {
			b.mu.Unlock()
			return
		}
		_, exists := b.replicas[t]
		if !exists {
			l, err := log.Open(b.logDir(t), b.logConfigFor(info.Config))
			if err != nil {
				b.mu.Unlock()
				b.logger.Error("open log failed", "tp", t.String(), "err", err)
				continue
			}
			b.replicas[t] = newReplica(t, l, b.cfg.ID)
		}
		b.mu.Unlock()
		if !exists {
			b.applyPartitionState(t)
		}
	}
}

// removeTopic closes and deletes local replicas of a deleted topic.
func (b *Broker) removeTopic(name string) {
	b.mu.Lock()
	var victims []*replica
	for t, r := range b.replicas {
		if t.topic == name {
			victims = append(victims, r)
			delete(b.replicas, t)
		}
	}
	b.mu.Unlock()
	for _, r := range victims {
		b.fetchers.remove(r.tp)
		b.detachTable(r.tp)
		r.close()
		os.RemoveAll(b.logDir(r.tp))
	}
}

// applyPartitionState reads a partition's registry state and transitions
// the local replica's role accordingly.
func (b *Broker) applyPartitionState(t tp) {
	r := b.getReplica(t)
	if r == nil {
		return
	}
	st, ver, err := b.reg.PartitionState(t.topic, t.partition)
	if err != nil {
		return
	}
	info, err := b.reg.GetTopic(t.topic)
	if err != nil || int(t.partition) >= len(info.Assignment) {
		return
	}
	if st.Leader == b.cfg.ID {
		b.fetchers.remove(t)
		r.becomeLeader(st.Epoch, info.Assignment[t.partition], st.ISR, ver)
		// Re-applied state (ISR changes) keeps the existing engine; a
		// fresh promotion recovers tier state from the manifest.
		if info.Config.Tiered && r.tierPartition() == nil {
			b.adoptTierLeadership(t, info.Config, r)
		}
		// A fresh promotion materializes the table view from the local
		// log (re-applied state keeps the running materializer); the
		// offsets topic is one such table.
		if info.Config.Table && b.tableFor(t) == nil {
			b.attachTable(t, r)
		}
	} else {
		r.setTier(nil) // followers replicate only the hot log
		b.detachTable(t)
		if err := r.becomeFollower(st.Leader, st.Epoch, ver); err != nil {
			b.logger.Error("follower transition failed", "tp", t.String(), "err", err)
		}
		if st.Leader >= 0 {
			b.fetchers.assign(t, st.Leader)
		} else {
			b.fetchers.remove(t)
		}
	}
}

// adoptTierLeadership opens (or refreshes) the cold-tier engine for a
// tiered partition this broker now leads: the manifest is reloaded from the
// DFS — the source of truth for cold data across hand-overs — and orphan
// segments a crashed predecessor uploaded without committing are swept. The
// offload guard is raised to the recovered frontier so hot retention may
// resume deleting already-tiered local segments.
func (b *Broker) adoptTierLeadership(t tp, tc cluster.TopicConfig, r *replica) {
	if b.cfg.TierFS == nil {
		b.logger.Warn("tiered topic led by broker without TierFS; offload disabled", "tp", t.String())
		return
	}
	p, err := tier.Open(b.cfg.TierFS, t.topic, t.partition, b.tierConfigFor(t, tc), b.tierCache, b.cfg.Metrics)
	if err != nil {
		b.logger.Error("tier open failed", "tp", t.String(), "err", err)
		return
	}
	// Reclaim files a crash between a retention commit and its deletions
	// left behind (they sit below the committed tier start, where Open's
	// orphan sweep does not look).
	p.SweepBelowStart()
	r.log.SetOffloadedTo(p.NextOffset())
	r.setTier(p)
}

// watchLoop reacts to registry changes: topics appearing/disappearing and
// partition leadership moving.
func (b *Broker) watchLoop(events <-chan coord.Event) {
	defer b.wg.Done()
	for {
		select {
		case <-b.stopCh:
			return
		case ev, ok := <-events:
			if !ok {
				// Watch overflowed: resync everything. Register the
				// replacement watch under b.mu with a stopped check, so a
				// concurrent shutdown (which snapshots watchCancel under
				// the same lock) can never miss it and leak a watcher on
				// the store — the store outlives this broker.
				b.mu.Lock()
				if b.stopped {
					b.mu.Unlock()
					return
				}
				var cancel func()
				events, cancel = b.store.Watch("/")
				old := b.watchCancel
				b.watchCancel = cancel
				b.mu.Unlock()
				if old != nil {
					old()
				}
				b.syncAllTopics()
				b.quotas.invalidateAll()
				continue
			}
			b.handleEvent(ev)
		}
	}
}

func (b *Broker) handleEvent(ev coord.Event) {
	if topic, ok := cutTopicPath(ev.Path); ok {
		switch ev.Type {
		case coord.EventCreated:
			if info, err := b.reg.GetTopic(topic); err == nil {
				b.ensureTopic(info)
			}
		case coord.EventDeleted:
			b.removeTopic(topic)
		}
		return
	}
	if topic, partition, ok := cluster.ParseStatePath(ev.Path); ok {
		if ev.Type == coord.EventCreated || ev.Type == coord.EventUpdated {
			b.applyPartitionState(tp{topic: topic, partition: partition})
		}
		return
	}
	if principal, ok := cluster.ParseQuotaPath(ev.Path); ok {
		// Quota changed (or was removed) through any broker: drop the
		// cached governor so the next charge re-reads the registry.
		b.quotas.invalidate(principal)
		return
	}
}

// cutTopicPath extracts a topic name from a /topics/<name> path.
func cutTopicPath(path string) (string, bool) {
	if len(path) <= len(cluster.TopicsPrefix) || path[:len(cluster.TopicsPrefix)] != cluster.TopicsPrefix {
		return "", false
	}
	return path[len(cluster.TopicsPrefix):], true
}

// housekeeping runs the periodic duties: session keepalive, ISR shrink,
// group expiry, retention and compaction.
func (b *Broker) housekeeping() {
	defer b.wg.Done()
	keepalive := newTicker(b.cfg.KeepAliveInterval)
	defer keepalive.Stop()
	isr := newTicker(b.cfg.ReplicaMaxLag / 2)
	defer isr.Stop()
	groups := newTicker(250 * time.Millisecond)
	defer groups.Stop()

	// The gauge exporter walks every replica and checkpoint stream; 1s is
	// frequent enough for dashboards and cheap enough to never matter.
	gauges := newTicker(time.Second)
	defer gauges.Stop()

	var retentionC, compactionC <-chan time.Time
	if b.cfg.RetentionInterval > 0 {
		t := newTicker(b.cfg.RetentionInterval)
		defer t.Stop()
		retentionC = t.C
	}
	if b.cfg.CompactionInterval > 0 {
		t := newTicker(b.cfg.CompactionInterval)
		defer t.Stop()
		compactionC = t.C
	}
	for {
		select {
		case <-b.stopCh:
			return
		case <-keepalive.C:
			if err := b.store.KeepAlive(b.session); err != nil {
				b.logger.Warn("session lost", "err", err)
			}
		case <-isr.C:
			b.shrinkLaggingISRs()
		case <-groups.C:
			b.groups.tick(b.cfg.Now())
		case <-gauges.C:
			b.opsTick(b.cfg.Now())
		case <-retentionC:
			b.enforceRetention()
		case <-compactionC:
			b.compactLogs()
		}
	}
}

// tierLoop drives tiering on its own goroutine: offloading a large segment
// (read, compress, DFS write) can take longer than a keepalive period, so
// it must never share a loop with the session heartbeat — a busy offloader
// would otherwise expire the broker's liveness and trigger a spurious
// failover.
func (b *Broker) tierLoop() {
	defer b.wg.Done()
	t := newTicker(b.cfg.TierInterval)
	defer t.Stop()
	for {
		select {
		case <-b.stopCh:
			return
		case <-t.C:
			b.tierTick()
		}
	}
}

// tierTick runs one offload + cold-retention pass over every tiered
// partition this broker leads (paper §4.1: the offloader is what lets the
// hot log stay small while consumers rewind arbitrarily far).
func (b *Broker) tierTick() {
	now := b.cfg.Now()
	for _, r := range b.replicaSnapshot() {
		t := r.tierPartition()
		if t == nil {
			continue
		}
		if _, err := t.Offload(r.log, r.highWatermark()); err != nil {
			if errors.Is(err, tier.ErrConflict) {
				// A newer leader owns the partition; drop the stale
				// engine — the state watcher re-adopts if we lead again.
				r.setTier(nil)
				continue
			}
			b.logger.Warn("tier offload failed", "tp", r.tp.String(), "err", err)
			continue
		}
		if _, err := t.EnforceRetention(now, r.log.Size()); err != nil && !errors.Is(err, tier.ErrConflict) {
			b.logger.Warn("tier retention failed", "tp", r.tp.String(), "err", err)
		}
	}
}

// shrinkLaggingISRs removes followers that stopped keeping up from the ISR
// of partitions this broker leads (paper §4.3).
func (b *Broker) shrinkLaggingISRs() {
	now := b.cfg.Now()
	for _, r := range b.replicaSnapshot() {
		lagging := r.laggingFollowers(b.cfg.ReplicaMaxLag, now)
		for _, id := range lagging {
			b.updateISR(r, id, false)
		}
	}
}

// updateISR commits an ISR change (add or remove) through the registry
// with CAS, then installs it locally.
func (b *Broker) updateISR(r *replica, followerID int32, add bool) {
	for attempt := 0; attempt < 3; attempt++ {
		st, ver, err := b.reg.PartitionState(r.tp.topic, r.tp.partition)
		if err != nil {
			return
		}
		if st.Leader != b.cfg.ID {
			return // no longer leader; controller owns this partition now
		}
		newISR := st.ISR[:0:0]
		found := false
		for _, id := range st.ISR {
			if id == followerID {
				found = true
				if !add {
					continue
				}
			}
			newISR = append(newISR, id)
		}
		if add && !found {
			newISR = append(newISR, followerID)
		}
		if len(newISR) == len(st.ISR) && found == add {
			r.setISR(newISR, ver)
			return // already in desired shape
		}
		st.ISR = newISR
		nv, err := b.reg.SetPartitionState(r.tp.topic, r.tp.partition, st, ver)
		if err != nil {
			if errors.Is(err, coord.ErrBadVersion) {
				continue
			}
			return
		}
		r.setISR(newISR, nv)
		b.logger.Info("isr updated", "tp", r.tp.String(), "isr", newISR, "add", add, "follower", followerID)
		return
	}
}

// enforceRetention applies retention to every local log.
func (b *Broker) enforceRetention() {
	now := b.cfg.Now()
	for _, r := range b.replicaSnapshot() {
		if _, err := r.log.EnforceRetention(now); err != nil && !errors.Is(err, log.ErrClosed) {
			b.logger.Warn("retention failed", "tp", r.tp.String(), "err", err)
		}
	}
}

// compactLogs runs a compaction pass over compacted topics, each bounded at
// its replica's high watermark: a version not yet committed, or not yet
// known committed on a follower, supersedes nothing.
func (b *Broker) compactLogs() {
	for _, r := range b.replicaSnapshot() {
		if r.log.Config().Compacted {
			if _, err := compact.Compact(r.log, r.highWatermark()); err != nil && !errors.Is(err, log.ErrClosed) {
				b.logger.Warn("compaction failed", "tp", r.tp.String(), "err", err)
			}
		}
	}
}

// replicaSnapshot copies the replica list without holding the broker lock
// during per-replica work.
func (b *Broker) replicaSnapshot() []*replica {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*replica, 0, len(b.replicas))
	for _, r := range b.replicas {
		out = append(out, r)
	}
	return out
}

// Stop shuts the broker down gracefully: the session is closed so the
// controller reassigns leadership immediately.
func (b *Broker) Stop() {
	b.shutdown(true)
}

// Kill simulates a crash: the listener drops and heartbeats stop, but the
// session is left to expire on its own, exactly as a dead machine would
// behave (used by the failover experiments, paper §4.3).
func (b *Broker) Kill() {
	b.shutdown(false)
}

func (b *Broker) shutdown(graceful bool) {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.stopped = true
	b.mu.Unlock()

	close(b.stopCh)
	b.listener.Close()
	if b.ops != nil {
		b.ops.Close()
	}
	// Drop every open connection so per-connection goroutines unblock;
	// a crashed machine's sockets die with it.
	b.mu.Lock()
	for conn := range b.conns {
		conn.Close()
	}
	b.mu.Unlock()
	b.controller.Stop()
	b.fetchers.stopAll()
	b.groups.dropAll()
	// The watch loop swaps watchCancel under b.mu when its watch overflows;
	// snapshot it under the same lock.
	b.mu.Lock()
	cancel := b.watchCancel
	b.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if graceful {
		b.store.CloseSession(b.session)
	}
	b.wg.Wait()
	// Past wg.Wait no opsTick can run again, so the purge of this broker's
	// gauge tuples from the (possibly shared) registry is final.
	b.met.purge()
	// Close materializers before their replicas so run loops see a clean
	// stop instead of reads against closed logs.
	b.detachAllTables()
	for _, r := range b.replicaSnapshot() {
		r.close()
	}
	b.logger.Info("broker stopped", "graceful", graceful)
}
