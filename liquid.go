// Package liquid is a from-scratch Go implementation of Liquid, the
// nearline data integration stack described in "Liquid: Unifying Nearline
// and Offline Big Data Integration" (Castro Fernandez et al., CIDR 2015).
//
// Liquid has two cooperating layers:
//
//   - a messaging layer — a distributed, highly available topic-based
//     publish/subscribe system built on partitioned, replicated,
//     append-only commit logs, with offset-based pull consumption,
//     consumer groups, per-topic retention, key-based log compaction, and
//     an offset manager that stores checkpoints with arbitrary metadata
//     annotations for rewindability;
//
//   - a processing layer — stateful stream processing jobs (one task per
//     input partition) with explicit local state backed by changelog
//     feeds, periodic annotated checkpoints enabling incremental
//     processing, windowed computation, and per-job resource isolation
//     ("ETL-as-a-service").
//
// An archival bridge unifies this nearline stack with the offline one
// (paper §1, §3): Stack.StartArchiver / Stack.ArchiveSnapshot export feed
// partitions into immutable, manifest-tracked segment files on the DFS,
// checkpointing progress through the offset manager with offset↔segment
// annotations; MapReduce jobs run directly over the archived segments
// (archive.MRInput); and Stack.Backfill republishes archived segments into
// a feed at a bounded rate for rewind beyond the retention window.
//
// # Quickstart
//
//	stack, err := liquid.Start(liquid.Config{Brokers: 1})
//	if err != nil { log.Fatal(err) }
//	defer stack.Shutdown()
//
//	stack.CreateFeed("events", 4, 1)
//	p := stack.NewProducer(liquid.ProducerConfig{})
//	p.SendSync(liquid.Message{Topic: "events", Key: []byte("user-1"), Value: []byte("hello")})
//
//	c := stack.NewConsumer(liquid.ConsumerConfig{})
//	c.Assign("events", 0, liquid.StartEarliest)
//	msgs, _ := c.Poll(time.Second)
//
// Record batches may be compressed end to end (ProducerConfig.Codec,
// flate): the producer seals each flushed batch once, brokers store,
// replicate and serve the exact bytes, and only the final reader
// decompresses — see docs/ARCHITECTURE.md for where compression sits in
// the produce→log→fetch→job→archive path.
//
// Stateful jobs implement StreamTask and are launched with Stack.RunJob;
// see the examples directory for full applications (site-speed monitoring,
// call-graph assembly, data cleaning with rewind, operational analytics).
package liquid

import (
	"repro/internal/archive"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/isolation"
	"repro/internal/mapreduce"
	"repro/internal/processing"
	"repro/internal/state"
	"repro/internal/storage/record"
	"repro/internal/table"
	"repro/internal/tier"
	"repro/internal/wire"
)

// Stack is a running Liquid deployment: coordination service, brokers and
// job runtime.
type Stack = core.Stack

// Config sizes a Liquid stack.
type Config = core.Config

// Start boots a Liquid stack.
func Start(cfg Config) (*Stack, error) { return core.Start(cfg) }

// Messaging-layer client types.
type (
	// Client is a cluster-aware messaging-layer client.
	Client = client.Client
	// ClientConfig parameterises a Client.
	ClientConfig = client.Config
	// Message is a produced or consumed message.
	Message = client.Message
	// Header is a message annotation (lineage, tracing, ...).
	Header = record.Header
	// Producer batches and publishes messages to partition leaders.
	Producer = client.Producer
	// ProducerConfig parameterises a Producer.
	ProducerConfig = client.ProducerConfig
	// Consumer pulls from explicitly assigned partitions.
	Consumer = client.Consumer
	// ConsumerConfig parameterises a Consumer.
	ConsumerConfig = client.ConsumerConfig
	// GroupConsumer participates in a consumer group.
	GroupConsumer = client.GroupConsumer
	// GroupConfig parameterises a GroupConsumer.
	GroupConfig = client.GroupConfig
	// TopicSpec configures a new feed.
	TopicSpec = wire.TopicSpec
	// Partitioner routes produced messages to partitions.
	Partitioner = client.Partitioner
	// Codec selects wire/storage compression for produced batches
	// (ProducerConfig.Codec): brokers store and replicate compressed
	// batches verbatim; consumers decompress transparently.
	Codec = client.Codec
	// QuotaConfig is one principal's (client-id's) rate quota, persisted
	// in the coordination service (Stack.SetQuota / Config.DefaultQuota):
	// brokers enforce it in their produce/fetch/request paths and answer
	// violations with ThrottleTimeMs backpressure that producers and
	// consumers honor (§3.2/§4.4 multi-tenancy).
	QuotaConfig = cluster.QuotaConfig
	// QuotaEntry is a QuotaConfig bound to its principal, as carried by
	// the quota admin APIs (Client.SetQuota / DescribeQuotas).
	QuotaEntry = wire.QuotaEntry
	// ThrottleStats reports how often (and for how long) a producer or
	// consumer delayed requests to honor broker quota verdicts.
	ThrottleStats = client.ThrottleStats
)

// ParseCodec maps a configuration string ("none", "flate") to a Codec.
func ParseCodec(s string) (Codec, error) { return client.ParseCodec(s) }

// Producer batch codecs.
const (
	// CodecNone sends batches uncompressed (the default).
	CodecNone = client.CodecNone
	// CodecFlate compresses each flushed batch with raw DEFLATE.
	CodecFlate = client.CodecFlate
)

// NewClient creates a standalone messaging-layer client.
func NewClient(cfg ClientConfig) (*Client, error) { return client.New(cfg) }

// NewProducer creates a producer on a client.
func NewProducer(c *Client, cfg ProducerConfig) *Producer { return client.NewProducer(c, cfg) }

// NewConsumer creates a partition consumer on a client.
func NewConsumer(c *Client, cfg ConsumerConfig) *Consumer { return client.NewConsumer(c, cfg) }

// NewGroupConsumer creates a group consumer on a client.
func NewGroupConsumer(c *Client, ccfg ConsumerConfig, gcfg GroupConfig) (*GroupConsumer, error) {
	return client.NewGroupConsumer(c, ccfg, gcfg)
}

// Producer durability levels (paper §4.3).
const (
	// AcksNone is fire-and-forget: minimum durability, minimum latency.
	AcksNone = client.AcksNone
	// AcksLeader acknowledges after the leader's append.
	AcksLeader int16 = 1
	// AcksAll acknowledges after the full in-sync replica set has the
	// data: maximum durability.
	AcksAll = client.AcksAll
)

// Consumer start positions.
const (
	// StartEarliest begins at the oldest retained offset.
	StartEarliest = client.StartEarliest
	// StartLatest begins at the log end (new data only).
	StartLatest = client.StartLatest
)

// Processing-layer types.
type (
	// Job is a running processing-layer job.
	Job = processing.Job
	// JobConfig declares a processing-layer job.
	JobConfig = processing.JobConfig
	// StreamTask is a job's per-message processing logic.
	StreamTask = processing.StreamTask
	// InitableTask optionally initialises with the task context.
	InitableTask = processing.InitableTask
	// WindowedTask optionally receives periodic Window calls.
	WindowedTask = processing.WindowedTask
	// ClosableTask optionally tears down on shutdown.
	ClosableTask = processing.ClosableTask
	// TaskFactory builds one StreamTask per partition.
	TaskFactory = processing.TaskFactory
	// TaskContext is a task's runtime environment.
	TaskContext = processing.TaskContext
	// Collector emits messages to derived feeds.
	Collector = processing.Collector
	// StoreSpec declares a job-local state store.
	StoreSpec = processing.StoreSpec
	// Store is keyed local state.
	Store = state.Store
	// Governor bounds a job's resources (ETL-as-a-service).
	Governor = isolation.Governor
	// GovernorConfig parameterises a Governor.
	GovernorConfig = isolation.Config
)

// NewJob builds (but does not start) a processing job on a client.
func NewJob(c *Client, cfg JobConfig) (*Job, error) { return processing.NewJob(c, cfg) }

// NewGovernor creates a resource governor for a job.
func NewGovernor(cfg GovernorConfig) *Governor { return isolation.New(cfg) }

// Archival-bridge types (feed→DFS export, offline consumption, backfill).
type (
	// Archiver continuously exports a feed into manifest-tracked DFS
	// segments via a consumer group.
	Archiver = archive.Archiver
	// ArchiverConfig parameterises an Archiver.
	ArchiverConfig = archive.ArchiverConfig
	// ArchiverStats summarises an archiver's progress.
	ArchiverStats = archive.ArchiverStats
	// SnapshotConfig parameterises a one-shot archive export.
	SnapshotConfig = archive.SnapshotConfig
	// SnapshotStats summarises a snapshot run.
	SnapshotStats = archive.SnapshotStats
	// BackfillConfig parameterises a replay of archived segments into a
	// feed.
	BackfillConfig = archive.BackfillConfig
	// BackfillStats summarises a backfill run.
	BackfillStats = archive.BackfillStats
	// ArchiveManifest is the committed state of one archived partition.
	ArchiveManifest = archive.Manifest
	// ArchiveSegmentInfo describes one committed segment.
	ArchiveSegmentInfo = archive.SegmentInfo
	// ArchiveFS is the DFS the archive tree lives on.
	ArchiveFS = dfs.FS
)

// NewArchiver creates a standalone archiver on a client (not yet running);
// prefer Stack.StartArchiver inside one process.
func NewArchiver(c *Client, cfg ArchiverConfig) (*Archiver, error) {
	return archive.NewArchiver(c, cfg)
}

// ArchiveSnapshot archives a feed up to its current end offsets through a
// standalone client.
func ArchiveSnapshot(c *Client, cfg SnapshotConfig) (SnapshotStats, error) {
	return archive.Snapshot(c, cfg)
}

// Backfill republishes archived segments into a feed through a standalone
// client.
func Backfill(c *Client, cfg BackfillConfig) (BackfillStats, error) {
	return archive.Backfill(c, cfg)
}

// OpenArchiveFS opens (or creates) an archive file system rooted at a local
// directory, for standalone archiver processes. The directory is locked
// exclusively while open; use OpenArchiveFSReadOnly for concurrent readers.
func OpenArchiveFS(dir string) (*ArchiveFS, error) {
	return dfs.Open(dfs.Config{Dir: dir})
}

// OpenArchiveFSReadOnly opens a lock-free read-only view of an archive
// directory — it can coexist with a live archiver and sees the committed
// namespace as of the open. Backfills and offline scans use it.
func OpenArchiveFSReadOnly(dir string) (*ArchiveFS, error) {
	return dfs.Open(dfs.Config{Dir: dir, ReadOnly: true})
}

// ArchiveManifests loads the newest manifest of every archived partition of
// a topic.
func ArchiveManifests(fs *ArchiveFS, root, topic string) ([]*ArchiveManifest, error) {
	return archive.ListManifests(fs, root, topic)
}

// ArchiveMRInput resolves an archived feed into MapReduce job inputs: the
// committed segment files plus their decoder, for
// mapreduce.JobSpec.InputFiles / Decode.
func ArchiveMRInput(fs *ArchiveFS, root, topic string) ([]string, func([]byte) ([]mapreduce.KV, error), error) {
	return archive.MRInput(fs, root, topic)
}

// EncodeAnnotations marshals checkpoint annotations into offset-manager
// metadata; DecodeAnnotations reverses it.
func EncodeAnnotations(a map[string]string) string { return client.EncodeAnnotations(a) }

// DecodeAnnotations parses offset-manager metadata into annotations.
func DecodeAnnotations(s string) map[string]string { return client.DecodeAnnotations(s) }

// Tiered log storage (internal/tier): topics created with
// TopicSpec.Tiered keep a small hot log on the brokers and upload sealed
// segments to the DFS byte for byte; consumers rewind past local retention
// through the same fetch API — StartEarliest and ResetEarliest mean the
// tiered-earliest offset.
type (
	// TierStatusPartition is one partition's tiered-storage status
	// (Client.TierStatus / Stack.TierStatus): hot/cold segment counts,
	// tiered bytes, and the local vs tiered start offsets.
	TierStatusPartition = wire.TierStatusPartition
	// TierManifest is the committed cold-tier state of one partition.
	TierManifest = tier.Manifest
	// TierSegmentInfo describes one committed cold segment.
	TierSegmentInfo = tier.SegmentInfo
)

// TierManifests loads the newest tier manifest of every partition of a
// topic directly from a tier DFS (cmd/liquid-admin reads a broker's tier
// directory this way; online status goes through Client.TierStatus).
func TierManifests(fs *dfs.FS, root, topic string, partitions int32) ([]*TierManifest, error) {
	out := make([]*TierManifest, 0, partitions)
	for p := int32(0); p < partitions; p++ {
		m, err := tier.LoadManifest(fs, root, topic, p)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Queryable tables (internal/table): a topic created with TopicSpec.Table
// (or Stack.CreateTable) is a compacted feed whose partition leaders
// materialize the log into key→value views and serve point reads and range
// scans — the paper's serve-side read workloads (§2, §3.2) off the same
// lineage of data the feed carries.
//
//	stack.CreateTable("profiles", 4, 2)
//	tbl := liquid.NewTable(stack.Client(), "profiles",
//		liquid.StringCodec(), liquid.JSONCodec[Profile]())
//	tbl.Put("user-1", Profile{Name: "Ada"})
//	tbl.Flush()
//	p, ok, err := tbl.GetWithin("user-1", 0) // read-your-acked-writes
type (
	// Table is the typed facade over a queryable feed: Put/Delete write
	// through a keyed producer, Get/GetWithin read from the partition
	// leader's materialized view with a staleness bound.
	Table[K any, V any] = table.Table[K, V]
	// TableCodec converts typed keys/values to their feed representation.
	TableCodec[T any] = table.Codec[T]
	// TableRouter is the untyped read router (Stack.Table): keys hash to
	// partitions with the producer's partitioner, reads go to the broker
	// materializing each partition, with retry-on-move.
	TableRouter = table.Router
	// TableGetResult is one point read: value plus the freshness
	// watermark (applied offset vs high watermark) it was served at.
	TableGetResult = client.TableGetResult
	// TableRangeResult is one range scan over a partition's view.
	TableRangeResult = client.TableRangeResult
	// TableStatusPartition is one partition's materializer freshness
	// (Client.TableStatus / Stack.TableStatus).
	TableStatusPartition = client.TableStatusPartition
	// TableEntry is one key→value pair in a range result.
	TableEntry = wire.TableEntry
)

// NewTable returns a typed table over a topic created with TopicSpec.Table.
func NewTable[K any, V any](c *Client, topic string, kc TableCodec[K], vc TableCodec[V]) *Table[K, V] {
	return table.New(c, topic, kc, vc)
}

// NewTableRouter returns the untyped read router for a table topic.
func NewTableRouter(c *Client, topic string) *TableRouter {
	return table.NewRouter(c, topic)
}

// StringCodec stores strings as raw UTF-8 bytes.
func StringCodec() TableCodec[string] { return table.StringCodec() }

// BytesCodec stores byte slices verbatim.
func BytesCodec() TableCodec[[]byte] { return table.BytesCodec() }

// JSONCodec stores values as JSON.
func JSONCodec[T any]() TableCodec[T] { return table.JSONCodec[T]() }

// TableHashKey returns the partition a table key routes to (the producer's
// FNV-1a keyed partitioner).
func TableHashKey(key []byte, numPartitions int32) int32 {
	return table.HashKey(key, numPartitions)
}
