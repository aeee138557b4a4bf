// Package core assembles a complete Liquid stack — coordination service,
// messaging-layer brokers, and the client/processing machinery — in one
// process, with brokers communicating over real TCP. It is the programmatic
// equivalent of deploying the two cooperating layers of the paper (§3):
// callers create feeds (topics), publish and subscribe through the
// messaging layer, and run stateful ETL jobs on the processing layer.
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/archive"
	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/processing"
	"repro/internal/storage/log"
	"repro/internal/table"
	"repro/internal/wire"
)

// FaultNetwork is the hook-and-control surface of an injectable transport
// (implemented by internal/chaos.Network). When attached via Config.Chaos,
// every broker listener, broker-to-broker replication dial and client dial
// in the stack crosses the injected network, and the Stack's chaos controls
// (IsolateBroker, HealBroker) become live.
type FaultNetwork interface {
	// BrokerListen returns the listen hook for a broker id.
	BrokerListen(id int32) func(host string, port int32) (net.Listener, error)
	// BrokerDial returns the dial hook for a broker's outbound connections.
	BrokerDial(id int32) client.Dialer
	// ClientDial returns the dial hook for stack clients.
	ClientDial() client.Dialer
	// IsolateBroker cuts a broker off from every peer and client.
	IsolateBroker(id int32)
	// HealBroker restores an isolated or severed broker's links.
	HealBroker(id int32)
}

// Config sizes a Liquid stack.
type Config struct {
	// Brokers is the messaging-layer node count (default 1).
	Brokers int
	// DataDir hosts broker logs and job state; empty creates a temp dir
	// that Shutdown removes.
	DataDir string
	// SessionTimeout is the broker liveness window; failover time is
	// bounded below by it (default 2s; tests use hundreds of ms).
	SessionTimeout time.Duration
	// ReplicaMaxLag is the ISR shrink threshold.
	ReplicaMaxLag time.Duration
	// OffsetsPartitions / OffsetsReplication size the offset manager's
	// internal topic.
	OffsetsPartitions  int32
	OffsetsReplication int16
	// RetentionInterval / CompactionInterval drive background log
	// housekeeping; zero disables each.
	RetentionInterval  time.Duration
	CompactionInterval time.Duration
	// DefaultSegmentBytes / DefaultRetentionMs / DefaultRetentionBytes
	// apply to topics that do not override them.
	DefaultSegmentBytes   int32
	DefaultRetentionMs    int64
	DefaultRetentionBytes int64
	// Durability is the WAL sync discipline every broker applies to its
	// partition logs (log.Durability): none/interval/batch/group-commit
	// fsync policies, with produce acks deferred behind the group
	// fdatasync under SyncGroup. The zero value keeps legacy OS-buffered
	// flushing.
	Durability log.Durability
	// TierInterval is how often partition leaders of tiered topics offload
	// sealed segments to the DFS and enforce the total retention horizon
	// (default 500ms; negative disables the loop). Tiered topics are
	// created with TopicSpec.Tiered; their cold tier lives on a DFS under
	// DataDir()/tier shared by every broker in the stack.
	TierInterval time.Duration
	// TierUploadHook is a crash-injection hook for recovery tests: it runs
	// on a partition leader after a cold segment upload and before its
	// manifest commit. Nil in production.
	TierUploadHook func(topic string, partition int32, path string) error
	// DefaultQuota is the rate quota every broker applies to principals
	// (client-ids) without a persisted per-principal quota — the safety
	// net of the multi-tenant story (§3.2/§4.4: a runaway producer must
	// not degrade co-located tenants). The zero value disables default
	// governance; per-principal quotas are set with Stack.SetQuota (or
	// liquid-admin `quota set`) and survive broker failover because they
	// live in the coordination service.
	DefaultQuota cluster.QuotaConfig
	// Chaos, when non-nil, routes every listener and dial in the stack
	// through the injected fault network (internal/chaos), enabling the
	// §4.3 failure experiments: severed links, asymmetric partitions,
	// delayed/dropped/duplicated/corrupted frames. Nil costs nothing.
	Chaos FaultNetwork
	// Clock is the coordination service's clock (session deadlines and
	// expiry); nil means time.Now. Failure tests inject a fake clock and
	// call Coord().ExpireSessions() to drive failover detection
	// deterministically instead of sleeping through real timeouts.
	Clock func() time.Time
	// Logger receives operational events from every component.
	Logger *slog.Logger
	// Metrics receives stack-wide counters; nil creates a registry.
	Metrics *metrics.Registry
	// OpsAddr, when non-empty, gives every broker an ops HTTP server
	// (/metrics, /healthz, /status, /debug/pprof/*, /debug/slowlog) bound
	// to this address. With more than one broker it must carry port 0
	// ("127.0.0.1:0") so each broker picks its own ephemeral port; bound
	// addresses are read back with Stack.OpsAddrs. Empty disables the
	// servers.
	OpsAddr string
}

func (c Config) withDefaults() Config {
	if c.Brokers == 0 {
		c.Brokers = 1
	}
	if c.SessionTimeout == 0 {
		c.SessionTimeout = 2 * time.Second
	}
	if c.OffsetsPartitions == 0 {
		c.OffsetsPartitions = 4
	}
	if c.OffsetsReplication == 0 {
		if c.Brokers >= 3 {
			c.OffsetsReplication = 3
		} else {
			c.OffsetsReplication = int16(c.Brokers)
		}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return c
}

// Stack is a running Liquid deployment.
type Stack struct {
	cfg        Config
	store      *coord.Store
	reg        *cluster.Registry
	stopExpiry func()
	brokers    []*broker.Broker
	brokerCfgs []broker.Config // saved for RestartBroker
	cli        *client.Client
	dataRoot   string
	ownsData   bool
	jobs       []*processing.Job
	archivers  []*archive.Archiver
	archFS     *dfs.FS
	tierFS     *dfs.FS
	stopped    bool
}

// Start boots the coordination service and brokers, waits for the cluster
// to form, and returns a ready stack.
func Start(cfg Config) (*Stack, error) {
	cfg = cfg.withDefaults()
	dataRoot := cfg.DataDir
	ownsData := false
	if dataRoot == "" {
		dir, err := os.MkdirTemp("", "liquid-")
		if err != nil {
			return nil, err
		}
		dataRoot = dir
		ownsData = true
	}
	store := coord.New(coord.Config{Now: cfg.Clock})
	s := &Stack{
		cfg:        cfg,
		store:      store,
		reg:        cluster.NewRegistry(store),
		stopExpiry: store.StartExpiry(cfg.SessionTimeout / 4),
		dataRoot:   dataRoot,
		ownsData:   ownsData,
	}
	// The tier DFS is shared by every broker (the cold tier of tiered
	// topics survives any single broker, like a real DFS would); it must
	// exist before brokers start so leaders can adopt tier state.
	tierFS, err := dfs.Open(dfs.Config{Dir: filepath.Join(dataRoot, "tier")})
	if err != nil {
		s.Shutdown()
		return nil, fmt.Errorf("core: tier fs: %w", err)
	}
	s.tierFS = tierFS
	for i := 0; i < cfg.Brokers; i++ {
		id := int32(i + 1)
		bcfg := broker.Config{
			ID:                    id,
			DataDir:               filepath.Join(dataRoot, fmt.Sprintf("broker-%d", id)),
			SessionTimeout:        cfg.SessionTimeout,
			ReplicaMaxLag:         cfg.ReplicaMaxLag,
			RetentionInterval:     cfg.RetentionInterval,
			CompactionInterval:    cfg.CompactionInterval,
			OffsetsPartitions:     cfg.OffsetsPartitions,
			OffsetsReplication:    cfg.OffsetsReplication,
			DefaultSegmentBytes:   cfg.DefaultSegmentBytes,
			DefaultRetentionMs:    cfg.DefaultRetentionMs,
			DefaultRetentionBytes: cfg.DefaultRetentionBytes,
			Durability:            cfg.Durability,
			DefaultQuota:          cfg.DefaultQuota,
			TierFS:                tierFS,
			TierInterval:          cfg.TierInterval,
			TierUploadHook:        cfg.TierUploadHook,
			Now:                   cfg.Clock,
			Logger:                cfg.Logger,
			Metrics:               cfg.Metrics,
			OpsAddr:               cfg.OpsAddr,
		}
		if cfg.Chaos != nil {
			bcfg.Listen = cfg.Chaos.BrokerListen(id)
			bcfg.Dial = cfg.Chaos.BrokerDial(id)
		}
		b, err := broker.Start(store, bcfg)
		if err != nil {
			s.Shutdown()
			return nil, fmt.Errorf("core: broker %d: %w", id, err)
		}
		s.brokers = append(s.brokers, b)
		s.brokerCfgs = append(s.brokerCfgs, bcfg)
	}
	if live := s.reg.WaitForBrokers(cfg.Brokers, 10*time.Second); len(live) < cfg.Brokers {
		s.Shutdown()
		return nil, errors.New("core: cluster did not form")
	}
	cli, err := s.NewClient("liquid-stack")
	if err != nil {
		s.Shutdown()
		return nil, err
	}
	s.cli = cli
	return s, nil
}

// Addrs returns the brokers' bootstrap addresses.
func (s *Stack) Addrs() []string {
	out := make([]string, 0, len(s.brokers))
	for _, b := range s.brokers {
		out = append(out, b.Addr())
	}
	return out
}

// OpsAddrs returns each broker's bound ops HTTP address, index-aligned
// with Addrs; entries are "" for brokers running without an ops server.
func (s *Stack) OpsAddrs() []string {
	out := make([]string, 0, len(s.brokers))
	for _, b := range s.brokers {
		out = append(out, b.OpsAddr())
	}
	return out
}

// Client returns the stack's shared client.
func (s *Stack) Client() *client.Client { return s.cli }

// Metrics returns the stack-wide metrics registry.
func (s *Stack) Metrics() *metrics.Registry { return s.cfg.Metrics }

// DataDir returns the root data directory.
func (s *Stack) DataDir() string { return s.dataRoot }

// NewClient creates an independent client against this stack. When a chaos
// network is attached the client dials through it, so client links are
// severable like broker links.
func (s *Stack) NewClient(id string) (*client.Client, error) {
	cfg := client.Config{
		Bootstrap:    s.Addrs(),
		ClientID:     id,
		MaxRetries:   40,
		RetryBackoff: 25 * time.Millisecond,
		MetadataTTL:  time.Second,
		Metrics:      s.cfg.Metrics,
	}
	if s.cfg.Chaos != nil {
		cfg.Dialer = s.cfg.Chaos.ClientDial()
	}
	return client.New(cfg)
}

// CreateTopic creates a feed. Zero-valued spec fields use broker defaults.
func (s *Stack) CreateTopic(spec wire.TopicSpec) error {
	return s.cli.CreateTopic(spec)
}

// CreateFeed is shorthand for the common case.
func (s *Stack) CreateFeed(name string, partitions int32, replication int16) error {
	return s.cli.CreateTopic(wire.TopicSpec{
		Name:              name,
		NumPartitions:     partitions,
		ReplicationFactor: replication,
	})
}

// TierStatus returns the tiered-storage status of a topic's partitions,
// each answered by its current leader.
func (s *Stack) TierStatus(topic string) ([]wire.TierStatusPartition, error) {
	return s.cli.TierStatus(topic)
}

// CreateTable creates a queryable table feed: a compacted topic whose
// partition leaders materialize the log into key→value views and serve
// point reads and range scans (internal/table, paper §2/§3.2 serve-side
// reads).
func (s *Stack) CreateTable(name string, partitions int32, replication int16) error {
	return s.cli.CreateTopic(wire.TopicSpec{
		Name:              name,
		NumPartitions:     partitions,
		ReplicationFactor: replication,
		Compacted:         true,
		Table:             true,
	})
}

// Table returns an untyped read router for a table topic: keys hash to
// partitions with the producer's partitioner and reads go to the broker
// currently materializing each partition.
func (s *Stack) Table(topic string) *table.Router {
	return table.NewRouter(s.cli, topic)
}

// TableStatus reports every partition's materializer freshness (applied
// offset vs high watermark), each answered by its current leader.
func (s *Stack) TableStatus(topic string) ([]client.TableStatusPartition, error) {
	return s.cli.TableStatus(topic)
}

// SetQuota persists a principal's (client-id's) rate quota cluster-wide:
// every broker enforces it in its produce/fetch/request paths, surfacing
// violations as ThrottleTimeMs backpressure that clients honor. Zero
// fields mean unlimited on that dimension. The config lives in the
// coordination service, so it survives broker failover.
func (s *Stack) SetQuota(principal string, q cluster.QuotaConfig) error {
	return s.cli.SetQuota(wire.QuotaEntry{
		Principal:          principal,
		ProduceBytesPerSec: q.ProduceBytesPerSec,
		FetchBytesPerSec:   q.FetchBytesPerSec,
		RequestsPerSec:     q.RequestsPerSec,
	})
}

// DeleteQuota removes a principal's quota; it falls back to the stack's
// DefaultQuota.
func (s *Stack) DeleteQuota(principal string) error {
	return s.cli.DeleteQuota(principal)
}

// DescribeQuotas returns the persisted quotas for the named principals, or
// all of them when none are named.
func (s *Stack) DescribeQuotas(principals ...string) ([]wire.QuotaEntry, error) {
	return s.cli.DescribeQuotas(principals...)
}

// NewProducer returns a producer on the shared client.
func (s *Stack) NewProducer(cfg client.ProducerConfig) *client.Producer {
	return client.NewProducer(s.cli, cfg)
}

// NewConsumer returns a partition consumer on the shared client.
func (s *Stack) NewConsumer(cfg client.ConsumerConfig) *client.Consumer {
	return client.NewConsumer(s.cli, cfg)
}

// RunJob builds, starts and tracks a processing-layer job. The job's data
// directory defaults into the stack's.
func (s *Stack) RunJob(cfg processing.JobConfig) (*processing.Job, error) {
	if cfg.DataDir == "" {
		cfg.DataDir = filepath.Join(s.dataRoot, "jobs")
	}
	if cfg.Logger == nil {
		cfg.Logger = s.cfg.Logger
	}
	job, err := processing.NewJob(s.cli, cfg)
	if err != nil {
		return nil, err
	}
	if err := job.Start(); err != nil {
		return nil, err
	}
	s.jobs = append(s.jobs, job)
	return job, nil
}

// TierFS returns the stack's tiered-storage file system (the cold tier of
// tiered topics, under DataDir()/tier). It is shared by every broker.
func (s *Stack) TierFS() *dfs.FS { return s.tierFS }

// ArchiveFS returns the stack's archive file system, opening it lazily
// under DataDir()/archive. It is the offline substrate the archival bridge
// writes to; cost charging is disabled because the stack's DFS is local.
func (s *Stack) ArchiveFS() (*dfs.FS, error) {
	if s.archFS != nil {
		return s.archFS, nil
	}
	fs, err := dfs.Open(dfs.Config{Dir: filepath.Join(s.dataRoot, "archive")})
	if err != nil {
		return nil, err
	}
	s.archFS = fs
	return fs, nil
}

// StartArchiver launches a continuous feed→DFS export task set on the
// stack (paper §3: the log layer as the single source of truth feeding the
// offline backend). The archiver's FS defaults to the stack's ArchiveFS.
func (s *Stack) StartArchiver(cfg archive.ArchiverConfig) (*archive.Archiver, error) {
	if cfg.FS == nil {
		fs, err := s.ArchiveFS()
		if err != nil {
			return nil, err
		}
		cfg.FS = fs
	}
	if cfg.Logger == nil {
		cfg.Logger = s.cfg.Logger
	}
	a, err := archive.NewArchiver(s.cli, cfg)
	if err != nil {
		return nil, err
	}
	if err := a.Start(); err != nil {
		return nil, err
	}
	s.archivers = append(s.archivers, a)
	return a, nil
}

// ArchiveSnapshot archives a feed up to its current end offsets and
// returns; re-runs export only the delta.
func (s *Stack) ArchiveSnapshot(cfg archive.SnapshotConfig) (archive.SnapshotStats, error) {
	if cfg.FS == nil {
		fs, err := s.ArchiveFS()
		if err != nil {
			return archive.SnapshotStats{}, err
		}
		cfg.FS = fs
	}
	return archive.Snapshot(s.cli, cfg)
}

// Backfill republishes archived segments into a feed at a bounded rate —
// rewind beyond the messaging layer's retention window.
func (s *Stack) Backfill(cfg archive.BackfillConfig) (archive.BackfillStats, error) {
	if cfg.FS == nil {
		fs, err := s.ArchiveFS()
		if err != nil {
			return archive.BackfillStats{}, err
		}
		cfg.FS = fs
	}
	return archive.Backfill(s.cli, cfg)
}

// Broker returns the broker with the given id, or nil.
func (s *Stack) Broker(id int32) *broker.Broker {
	for _, b := range s.brokers {
		if b.ID() == id {
			return b
		}
	}
	return nil
}

// KillBroker crashes a broker (no graceful session close): the controller
// detects the failure via session expiry and fails leadership over, as in
// paper §4.3. It returns false for unknown ids.
func (s *Stack) KillBroker(id int32) bool {
	b := s.Broker(id)
	if b == nil {
		return false
	}
	b.Kill()
	return true
}

// RestartBroker boots a previously killed or stopped broker again on its
// original data directory — the recovering machine of paper §4.3. The
// broker re-registers (on a fresh port), truncates uncommitted suffixes as
// it rejoins as a follower, and catches back up through replication. It is
// the repair half of the failure experiments: kill, observe failover,
// restart, observe the ISR grow back.
func (s *Stack) RestartBroker(id int32) error {
	idx := -1
	for i, b := range s.brokers {
		if b.ID() == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: unknown broker %d", id)
	}
	s.brokers[idx].Stop() // idempotent; a killed broker is already stopped
	b, err := broker.Start(s.store, s.brokerCfgs[idx])
	if err != nil {
		return fmt.Errorf("core: restart broker %d: %w", id, err)
	}
	s.brokers[idx] = b
	return nil
}

// Coord exposes the coordination store (the stand-in ZooKeeper ensemble):
// failure tests watch partition state through it and, with an injected
// Clock, drive session expiry deterministically.
func (s *Stack) Coord() *coord.Store { return s.store }

// ControllerID returns the broker currently holding the controller seat,
// or -1 during an election.
func (s *Stack) ControllerID() int32 { return s.reg.ControllerID() }

// PartitionState reads a partition's committed leadership state.
func (s *Stack) PartitionState(topic string, partition int32) (cluster.PartitionState, error) {
	st, _, err := s.reg.PartitionState(topic, partition)
	return st, err
}

// IsolateBroker cuts one broker off from every peer and client — the
// network analogue of KillBroker: the process lives, its links are dead.
func (s *Stack) IsolateBroker(id int32) bool {
	if s.cfg.Chaos == nil {
		return false
	}
	s.cfg.Chaos.IsolateBroker(id)
	return true
}

// HealBroker restores an isolated broker's links.
func (s *Stack) HealBroker(id int32) bool {
	if s.cfg.Chaos == nil {
		return false
	}
	s.cfg.Chaos.HealBroker(id)
	return true
}

// Shutdown stops jobs, brokers and the coordinator, removing owned data.
func (s *Stack) Shutdown() {
	if s.stopped {
		return
	}
	s.stopped = true
	for _, a := range s.archivers {
		_ = a.Stop()
	}
	for _, j := range s.jobs {
		j.Stop()
	}
	if s.archFS != nil {
		s.archFS.Close()
	}
	if s.cli != nil {
		s.cli.Close()
	}
	for _, b := range s.brokers {
		b.Stop()
	}
	if s.tierFS != nil {
		s.tierFS.Close() // after brokers: housekeeping may be offloading
	}
	if s.stopExpiry != nil {
		s.stopExpiry()
	}
	if s.ownsData {
		os.RemoveAll(s.dataRoot)
	}
}
