package wire

import "fmt"

// APIKey identifies a request type.
type APIKey int16

// Request API keys. The numbering loosely follows the Kafka protocol for
// familiarity; OffsetQuery is Liquid-specific (metadata-based access to the
// offset manager, paper §4.2).
const (
	APIProduce         APIKey = 0
	APIFetch           APIKey = 1
	APIListOffsets     APIKey = 2
	APIMetadata        APIKey = 3
	APICreateTopics    APIKey = 4
	APIDeleteTopics    APIKey = 5
	APIOffsetCommit    APIKey = 8
	APIOffsetFetch     APIKey = 9
	APIFindCoordinator APIKey = 10
	APIJoinGroup       APIKey = 11
	APIHeartbeat       APIKey = 12
	APILeaveGroup      APIKey = 13
	APISyncGroup       APIKey = 14
	APIOffsetQuery     APIKey = 40
	// APITierStatus is Liquid-specific: per-partition tiered-storage
	// status (hot/cold segment counts and the local vs tiered start
	// offsets) served by each partition's leader.
	APITierStatus APIKey = 41
	// APIDescribeQuotas / APIAlterQuotas manage per-principal (client-id)
	// rate quotas. Quota configs are persisted in the coordination service
	// so every broker converges on the same limits and they survive
	// failover (§3.2/§4.4 multi-tenancy: a runaway producer must not
	// degrade co-located tenants).
	APIDescribeQuotas APIKey = 42
	APIAlterQuotas    APIKey = 43
	// APITableGet / APITableRange are Liquid-specific serve-side reads
	// (paper §2/§3.2: "who viewed my profile"-style point lookups). A
	// broker answers them from the table materializer attached to the
	// compacted-feed partitions it leads.
	APITableGet   APIKey = 44
	APITableRange APIKey = 45
	// APIInitProducer allocates an idempotent-producer identity: a cluster
	// unique producerID plus an epoch. Named producers re-registering bump
	// the epoch so earlier instances (zombies) are fenced; anonymous
	// producers get a fresh id at epoch 0.
	APIInitProducer APIKey = 46
)

// apis is the one table of API keys: each key's name (the per-API metric
// label and slowlog name; APIKey.String) and the constructor of its request
// body (the broker's decode dispatch; NewRequestBody). liquid-vet's
// wireclass analyzer rejects an APIKey constant without an entry.
var apis = [...]struct {
	name    string
	newBody func() Message
}{
	APIProduce:         {"produce", newBody[ProduceRequest]},
	APIFetch:           {"fetch", newBody[FetchRequest]},
	APIListOffsets:     {"list-offsets", newBody[ListOffsetsRequest]},
	APIMetadata:        {"metadata", newBody[MetadataRequest]},
	APICreateTopics:    {"create-topics", newBody[CreateTopicsRequest]},
	APIDeleteTopics:    {"delete-topics", newBody[DeleteTopicsRequest]},
	APIOffsetCommit:    {"offset-commit", newBody[OffsetCommitRequest]},
	APIOffsetFetch:     {"offset-fetch", newBody[OffsetFetchRequest]},
	APIFindCoordinator: {"find-coordinator", newBody[FindCoordinatorRequest]},
	APIJoinGroup:       {"join-group", newBody[JoinGroupRequest]},
	APIHeartbeat:       {"heartbeat", newBody[HeartbeatRequest]},
	APILeaveGroup:      {"leave-group", newBody[LeaveGroupRequest]},
	APISyncGroup:       {"sync-group", newBody[SyncGroupRequest]},
	APIOffsetQuery:     {"offset-query", newBody[OffsetQueryRequest]},
	APITierStatus:      {"tier-status", newBody[TierStatusRequest]},
	APIDescribeQuotas:  {"describe-quotas", newBody[DescribeQuotasRequest]},
	APIAlterQuotas:     {"alter-quotas", newBody[AlterQuotasRequest]},
	APITableGet:        {"table-get", newBody[TableGetRequest]},
	APITableRange:      {"table-range", newBody[TableRangeRequest]},
	APIInitProducer:    {"init-producer", newBody[InitProducerRequest]},
}

func newBody[T any, PT interface {
	*T
	Message
}]() Message {
	return PT(new(T))
}

// String returns the lowercase API name, used as the per-API metric label
// and in slowlog entries. Unknown keys render as "api-<n>".
func (k APIKey) String() string {
	if k >= 0 && int(k) < len(apis) && apis[k].name != "" {
		return apis[k].name
	}
	return fmt.Sprintf("api-%d", int16(k))
}

// NewRequestBody returns a zero value of the request type for an API key,
// used by the broker's dispatch loop.
func NewRequestBody(api APIKey) (Message, bool) {
	if api >= 0 && int(api) < len(apis) && apis[api].newBody != nil {
		return apis[api].newBody(), true
	}
	return nil, false
}

// Message is any protocol body that can encode and decode itself.
//
// Every message states its wire layout once, in a fields method that runs
// in either direction over a codec; its Encode and Decode are one-line
// calls of it, so the two directions cannot drift apart.
type Message interface {
	Encode(w *Writer)
	Decode(r *Reader)
}

// Special timestamp values for ListOffsets.
const (
	// TimestampEarliest asks for the log start offset.
	TimestampEarliest int64 = -2
	// TimestampLatest asks for the log end offset (next offset to be
	// assigned, also called the high watermark from a consumer's view).
	TimestampLatest int64 = -1
)

// RequestHeader precedes every request body in a frame.
type RequestHeader struct {
	API           APIKey
	CorrelationID int32
	ClientID      string
}

func (h *RequestHeader) fields(c *codec) {
	c.int16((*int16)(&h.API))
	c.int32(&h.CorrelationID)
	c.string(&h.ClientID)
}

// Encode writes the header.
func (h *RequestHeader) Encode(w *Writer) { h.fields(w.codec()) }

// Decode reads the header.
func (h *RequestHeader) Decode(r *Reader) { h.fields(r.codec()) }

// ---------------------------------------------------------------- Produce

// ProduceRequest appends record batches to partitions.
// RequiredAcks follows the durability trade-off of the paper (§4.3):
// 0 = fire-and-forget, 1 = leader ack, -1 = all in-sync replicas.
type ProduceRequest struct {
	RequiredAcks int16
	TimeoutMs    int32
	Topics       []ProduceTopic
}

// ProduceTopic carries the partitions of one topic in a ProduceRequest.
type ProduceTopic struct {
	Name       string
	Partitions []ProducePartition
}

// ProducePartition carries one partition's encoded record batches. On the
// decode side Records aliases the request frame buffer (zero-copy): brokers
// append it to the log before reading the next frame, so it must not be
// retained past the request's dispatch.
type ProducePartition struct {
	Partition int32
	Records   []byte
}

func (m *ProduceRequest) fields(c *codec) {
	c.int16(&m.RequiredAcks)
	c.int32(&m.TimeoutMs)
	array(c, &m.Topics)
}

func (t *ProduceTopic) fields(c *codec) {
	c.string(&t.Name)
	array(c, &t.Partitions)
}

func (p *ProducePartition) fields(c *codec) {
	c.int32(&p.Partition)
	c.records(&p.Records, nil)
}

func (m *ProduceRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *ProduceRequest) Decode(r *Reader) { m.fields(r.codec()) }

// ProduceResponse reports per-partition append results. ThrottleTimeMs is
// the broker's backpressure verdict: how long the principal should delay
// its next request because a quota was exceeded (0 = unthrottled). The
// broker never blocks its handler — it charges the quota, computes the
// penalty, and responds immediately; a well-behaved client honors the
// delay before its next produce.
type ProduceResponse struct {
	ThrottleTimeMs int32
	Topics         []ProduceRespTopic
}

// ProduceRespTopic groups per-partition results for one topic.
type ProduceRespTopic struct {
	Name       string
	Partitions []ProduceRespPartition
}

// ProduceRespPartition is the result of appending to one partition.
type ProduceRespPartition struct {
	Partition     int32
	Err           ErrorCode
	BaseOffset    int64
	HighWatermark int64
}

func (m *ProduceResponse) fields(c *codec) {
	c.int32(&m.ThrottleTimeMs)
	array(c, &m.Topics)
}

func (t *ProduceRespTopic) fields(c *codec) {
	c.string(&t.Name)
	array(c, &t.Partitions)
}

func (p *ProduceRespPartition) fields(c *codec) {
	c.int32(&p.Partition)
	c.errorCode(&p.Err)
	c.int64(&p.BaseOffset)
	c.int64(&p.HighWatermark)
}

func (m *ProduceResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *ProduceResponse) Decode(r *Reader) { m.fields(r.codec()) }

// ------------------------------------------------------------------ Fetch

// FetchRequest pulls record batches from partitions. Consumers use
// ReplicaID -1; follower brokers use their own broker id, which entitles
// them to read beyond the high watermark and drives ISR tracking (§4.3).
type FetchRequest struct {
	ReplicaID int32
	MaxWaitMs int32
	MinBytes  int32
	MaxBytes  int32
	Topics    []FetchTopic
}

// FetchTopic carries the partitions of one topic in a FetchRequest.
type FetchTopic struct {
	Name       string
	Partitions []FetchPartition
}

// FetchPartition requests data from one partition starting at Offset.
type FetchPartition struct {
	Partition int32
	Offset    int64
	MaxBytes  int32
}

func (m *FetchRequest) fields(c *codec) {
	c.int32(&m.ReplicaID)
	c.int32(&m.MaxWaitMs)
	c.int32(&m.MinBytes)
	c.int32(&m.MaxBytes)
	array(c, &m.Topics)
}

func (t *FetchTopic) fields(c *codec) {
	c.string(&t.Name)
	array(c, &t.Partitions)
}

func (p *FetchPartition) fields(c *codec) {
	c.int32(&p.Partition)
	c.int64(&p.Offset)
	c.int32(&p.MaxBytes)
}

func (m *FetchRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *FetchRequest) Decode(r *Reader) { m.fields(r.codec()) }

// FetchResponse returns record batches per partition. ThrottleTimeMs
// carries the broker's quota verdict, exactly as on ProduceResponse;
// replication fetches (follower ReplicaIDs) are exempt and always see 0.
type FetchResponse struct {
	ThrottleTimeMs int32
	Topics         []FetchRespTopic
}

// FetchRespTopic groups per-partition fetch results for one topic.
type FetchRespTopic struct {
	Name       string
	Partitions []FetchRespPartition
}

// FetchRespPartition is the fetch result for one partition. On the decode
// side Records aliases the response frame buffer (zero-copy): consumers and
// replica fetchers decode or append it before issuing their next request on
// the connection, so it must not be retained past that.
type FetchRespPartition struct {
	Partition      int32
	Err            ErrorCode
	HighWatermark  int64
	LogStartOffset int64
	Records        []byte
	// RecordsRange, when non-nil, takes the place of Records on the encode
	// side: the batch bytes are spliced into the response frame straight
	// from their storage (zero-copy fetch) instead of being copied through
	// the encode buffer. Encode-only — the decode side always materializes
	// Records, since the wire bytes are identical either way.
	RecordsRange ByteRange
}

func (m *FetchResponse) fields(c *codec) {
	c.int32(&m.ThrottleTimeMs)
	array(c, &m.Topics)
}

func (t *FetchRespTopic) fields(c *codec) {
	c.string(&t.Name)
	array(c, &t.Partitions)
}

func (p *FetchRespPartition) fields(c *codec) {
	c.int32(&p.Partition)
	c.errorCode(&p.Err)
	c.int64(&p.HighWatermark)
	c.int64(&p.LogStartOffset)
	c.records(&p.Records, p.RecordsRange)
}

func (m *FetchResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *FetchResponse) Decode(r *Reader) { m.fields(r.codec()) }

// ----------------------------------------------------------- ListOffsets

// ListOffsetsRequest resolves timestamps to offsets, supporting the
// rewindability property (§3.1): earliest, latest, or first offset at/after
// a given timestamp.
type ListOffsetsRequest struct {
	Topics []ListOffsetsTopic
}

// ListOffsetsTopic carries per-partition timestamp queries for one topic.
type ListOffsetsTopic struct {
	Name       string
	Partitions []ListOffsetsPartition
}

// ListOffsetsPartition queries one partition at a timestamp (or the special
// TimestampEarliest / TimestampLatest values).
type ListOffsetsPartition struct {
	Partition int32
	Timestamp int64
}

func (m *ListOffsetsRequest) fields(c *codec) { array(c, &m.Topics) }

func (t *ListOffsetsTopic) fields(c *codec) {
	c.string(&t.Name)
	array(c, &t.Partitions)
}

func (p *ListOffsetsPartition) fields(c *codec) {
	c.int32(&p.Partition)
	c.int64(&p.Timestamp)
}

func (m *ListOffsetsRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *ListOffsetsRequest) Decode(r *Reader) { m.fields(r.codec()) }

// ListOffsetsResponse returns resolved offsets.
type ListOffsetsResponse struct {
	Topics []ListOffsetsRespTopic
}

// ListOffsetsRespTopic groups per-partition results for one topic.
type ListOffsetsRespTopic struct {
	Name       string
	Partitions []ListOffsetsRespPartition
}

// ListOffsetsRespPartition is the resolved offset for one partition.
type ListOffsetsRespPartition struct {
	Partition int32
	Err       ErrorCode
	Timestamp int64
	Offset    int64
}

func (m *ListOffsetsResponse) fields(c *codec) { array(c, &m.Topics) }

func (t *ListOffsetsRespTopic) fields(c *codec) {
	c.string(&t.Name)
	array(c, &t.Partitions)
}

func (p *ListOffsetsRespPartition) fields(c *codec) {
	c.int32(&p.Partition)
	c.errorCode(&p.Err)
	c.int64(&p.Timestamp)
	c.int64(&p.Offset)
}

func (m *ListOffsetsResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *ListOffsetsResponse) Decode(r *Reader) { m.fields(r.codec()) }

// -------------------------------------------------------------- Metadata

// MetadataRequest asks for cluster metadata; an empty Topics slice means
// all topics.
type MetadataRequest struct {
	Topics []string
}

func (m *MetadataRequest) fields(c *codec) { c.strings(&m.Topics) }

func (m *MetadataRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *MetadataRequest) Decode(r *Reader) { m.fields(r.codec()) }

// BrokerMeta describes one live broker. OpsAddr is the broker's ops-plane
// HTTP address ("" when the broker runs without one); clients use it to
// reach /metrics and friends without separate discovery.
type BrokerMeta struct {
	ID      int32
	Host    string
	Port    int32
	OpsAddr string
}

// PartitionMeta describes current leadership for one partition.
type PartitionMeta struct {
	Err         ErrorCode
	ID          int32
	Leader      int32
	LeaderEpoch int32
	Replicas    []int32
	ISR         []int32
}

// TopicMeta describes one topic.
type TopicMeta struct {
	Err        ErrorCode
	Name       string
	Compacted  bool
	Partitions []PartitionMeta
}

// MetadataResponse returns the cluster view: live brokers, the controller,
// and topic/partition leadership.
type MetadataResponse struct {
	Brokers      []BrokerMeta
	ControllerID int32
	Topics       []TopicMeta
}

func (m *MetadataResponse) fields(c *codec) {
	array(c, &m.Brokers)
	c.int32(&m.ControllerID)
	array(c, &m.Topics)
}

func (b *BrokerMeta) fields(c *codec) {
	c.int32(&b.ID)
	c.string(&b.Host)
	c.int32(&b.Port)
	c.string(&b.OpsAddr)
}

func (t *TopicMeta) fields(c *codec) {
	c.errorCode(&t.Err)
	c.string(&t.Name)
	c.bool(&t.Compacted)
	array(c, &t.Partitions)
}

func (p *PartitionMeta) fields(c *codec) {
	c.errorCode(&p.Err)
	c.int32(&p.ID)
	c.int32(&p.Leader)
	c.int32(&p.LeaderEpoch)
	c.int32s(&p.Replicas)
	c.int32s(&p.ISR)
}

func (m *MetadataResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *MetadataResponse) Decode(r *Reader) { m.fields(r.codec()) }

// ---------------------------------------------------- Create/DeleteTopics

// TopicSpec configures a new topic. Zero values select broker defaults.
type TopicSpec struct {
	Name              string
	NumPartitions     int32
	ReplicationFactor int16
	RetentionMs       int64 // 0 = broker default, -1 = unlimited
	RetentionBytes    int64 // 0 = broker default, -1 = unlimited
	SegmentBytes      int32 // 0 = broker default
	Compacted         bool
	// Tiered enables tiered log storage: the partition leader offloads
	// sealed segments to the DFS and serves reads below the local log
	// start from the cold tier. RetentionMs/RetentionBytes then bound the
	// TOTAL (hot + cold) horizon and HotRetention* bound the local one.
	// Mutually exclusive with Compacted.
	Tiered            bool
	HotRetentionMs    int64 // 0 = broker default, -1 = unlimited
	HotRetentionBytes int64 // 0 = broker default, -1 = unlimited
	// Table marks the feed as queryable: each partition leader keeps a
	// materialized key→value view of the compacted log and serves
	// TableGet/TableRange from it. Requires Compacted.
	Table bool
}

func (t *TopicSpec) fields(c *codec) {
	c.string(&t.Name)
	c.int32(&t.NumPartitions)
	c.int16(&t.ReplicationFactor)
	c.int64(&t.RetentionMs)
	c.int64(&t.RetentionBytes)
	c.int32(&t.SegmentBytes)
	c.bool(&t.Compacted)
	c.bool(&t.Tiered)
	c.int64(&t.HotRetentionMs)
	c.int64(&t.HotRetentionBytes)
	c.bool(&t.Table)
}

// CreateTopicsRequest creates one or more topics cluster-wide.
type CreateTopicsRequest struct {
	Topics []TopicSpec
}

func (m *CreateTopicsRequest) fields(c *codec) { array(c, &m.Topics) }

func (m *CreateTopicsRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *CreateTopicsRequest) Decode(r *Reader) { m.fields(r.codec()) }

// TopicResult is the per-topic outcome of a create or delete request.
type TopicResult struct {
	Name string
	Err  ErrorCode
}

func (t *TopicResult) fields(c *codec) {
	c.string(&t.Name)
	c.errorCode(&t.Err)
}

// CreateTopicsResponse reports per-topic results.
type CreateTopicsResponse struct {
	Results []TopicResult
}

func (m *CreateTopicsResponse) fields(c *codec) { array(c, &m.Results) }

func (m *CreateTopicsResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *CreateTopicsResponse) Decode(r *Reader) { m.fields(r.codec()) }

// DeleteTopicsRequest removes topics cluster-wide.
type DeleteTopicsRequest struct {
	Names []string
}

func (m *DeleteTopicsRequest) fields(c *codec) { c.strings(&m.Names) }

func (m *DeleteTopicsRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *DeleteTopicsRequest) Decode(r *Reader) { m.fields(r.codec()) }

// DeleteTopicsResponse reports per-topic results.
type DeleteTopicsResponse struct {
	Results []TopicResult
}

func (m *DeleteTopicsResponse) fields(c *codec) { array(c, &m.Results) }

func (m *DeleteTopicsResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *DeleteTopicsResponse) Decode(r *Reader) { m.fields(r.codec()) }

// ---------------------------------------------------------- Offset APIs

// OffsetCommitRequest checkpoints consumed offsets with optional metadata
// annotations (the offset manager of paper §3.1/§4.2). Metadata is an
// opaque string; Liquid clients store annotation maps in it.
type OffsetCommitRequest struct {
	Group      string
	Generation int32
	MemberID   string
	Topics     []OffsetCommitTopic
}

// OffsetCommitTopic carries per-partition commits for one topic.
type OffsetCommitTopic struct {
	Name       string
	Partitions []OffsetCommitPartition
}

// OffsetCommitPartition commits one partition's offset and annotations.
type OffsetCommitPartition struct {
	Partition int32
	Offset    int64
	Metadata  string
}

func (m *OffsetCommitRequest) fields(c *codec) {
	c.string(&m.Group)
	c.int32(&m.Generation)
	c.string(&m.MemberID)
	array(c, &m.Topics)
}

func (t *OffsetCommitTopic) fields(c *codec) {
	c.string(&t.Name)
	array(c, &t.Partitions)
}

func (p *OffsetCommitPartition) fields(c *codec) {
	c.int32(&p.Partition)
	c.int64(&p.Offset)
	c.string(&p.Metadata)
}

func (m *OffsetCommitRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *OffsetCommitRequest) Decode(r *Reader) { m.fields(r.codec()) }

// OffsetCommitResponse reports per-partition commit results.
type OffsetCommitResponse struct {
	Topics []OffsetCommitRespTopic
}

// OffsetCommitRespTopic groups results for one topic.
type OffsetCommitRespTopic struct {
	Name       string
	Partitions []OffsetCommitRespPartition
}

// OffsetCommitRespPartition is the commit result for one partition.
type OffsetCommitRespPartition struct {
	Partition int32
	Err       ErrorCode
}

func (t *OffsetCommitRespTopic) fields(c *codec) {
	c.string(&t.Name)
	array(c, &t.Partitions)
}

func (p *OffsetCommitRespPartition) fields(c *codec) {
	c.int32(&p.Partition)
	c.errorCode(&p.Err)
}

func (m *OffsetCommitResponse) fields(c *codec) { array(c, &m.Topics) }

func (m *OffsetCommitResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *OffsetCommitResponse) Decode(r *Reader) { m.fields(r.codec()) }

// OffsetFetchRequest reads back the latest committed offsets for a group.
type OffsetFetchRequest struct {
	Group  string
	Topics []OffsetFetchTopic
}

// OffsetFetchTopic names the partitions to fetch for one topic.
type OffsetFetchTopic struct {
	Name       string
	Partitions []int32
}

func (m *OffsetFetchRequest) fields(c *codec) {
	c.string(&m.Group)
	array(c, &m.Topics)
}

func (t *OffsetFetchTopic) fields(c *codec) {
	c.string(&t.Name)
	c.int32s(&t.Partitions)
}

func (m *OffsetFetchRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *OffsetFetchRequest) Decode(r *Reader) { m.fields(r.codec()) }

// OffsetFetchResponse returns the latest committed offsets. Offset -1 means
// no commit exists for that partition.
type OffsetFetchResponse struct {
	Topics []OffsetFetchRespTopic
}

// OffsetFetchRespTopic groups results for one topic.
type OffsetFetchRespTopic struct {
	Name       string
	Partitions []OffsetFetchRespPartition
}

// OffsetFetchRespPartition is a committed offset with its annotations.
type OffsetFetchRespPartition struct {
	Partition int32
	Err       ErrorCode
	Offset    int64
	Metadata  string
}

func (t *OffsetFetchRespTopic) fields(c *codec) {
	c.string(&t.Name)
	array(c, &t.Partitions)
}

func (p *OffsetFetchRespPartition) fields(c *codec) {
	c.int32(&p.Partition)
	c.errorCode(&p.Err)
	c.int64(&p.Offset)
	c.string(&p.Metadata)
}

func (m *OffsetFetchResponse) fields(c *codec) { array(c, &m.Topics) }

func (m *OffsetFetchResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *OffsetFetchResponse) Decode(r *Reader) { m.fields(r.codec()) }

// OffsetQueryRequest performs metadata-based access (paper §4.2): find the
// most recent checkpoint for (Group, Topic, Partition) whose annotation
// AnnotationKey equals AnnotationValue, or — when AnnotationKey is
// "@timestamp" — the last checkpoint taken at or before the millisecond
// timestamp in AnnotationValue.
type OffsetQueryRequest struct {
	Group           string
	Topic           string
	Partition       int32
	AnnotationKey   string
	AnnotationValue string
}

func (m *OffsetQueryRequest) fields(c *codec) {
	c.string(&m.Group)
	c.string(&m.Topic)
	c.int32(&m.Partition)
	c.string(&m.AnnotationKey)
	c.string(&m.AnnotationValue)
}

func (m *OffsetQueryRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *OffsetQueryRequest) Decode(r *Reader) { m.fields(r.codec()) }

// OffsetQueryResponse returns the matched checkpoint, if any.
type OffsetQueryResponse struct {
	Err      ErrorCode
	Found    bool
	Offset   int64
	Metadata string
}

func (m *OffsetQueryResponse) fields(c *codec) {
	c.errorCode(&m.Err)
	c.bool(&m.Found)
	c.int64(&m.Offset)
	c.string(&m.Metadata)
}

func (m *OffsetQueryResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *OffsetQueryResponse) Decode(r *Reader) { m.fields(r.codec()) }

// ------------------------------------------------- Idempotent producers

// InitProducerRequest asks any broker for a producer identity. Name is
// optional: a named (transactional-style) producer that re-registers under
// the same name receives the same producerID with a bumped epoch, fencing
// its earlier instance; an anonymous producer (empty name) receives a fresh
// id at epoch 0.
type InitProducerRequest struct {
	Name string
}

func (m *InitProducerRequest) fields(c *codec) { c.string(&m.Name) }

func (m *InitProducerRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *InitProducerRequest) Decode(r *Reader) { m.fields(r.codec()) }

// InitProducerResponse carries the allocated identity. The producer stamps
// (ProducerID, Epoch, sequence) onto every sealed batch it sends.
type InitProducerResponse struct {
	Err        ErrorCode
	ProducerID int64
	Epoch      int32
}

func (m *InitProducerResponse) fields(c *codec) {
	c.errorCode(&m.Err)
	c.int64(&m.ProducerID)
	c.int32(&m.Epoch)
}

func (m *InitProducerResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *InitProducerResponse) Decode(r *Reader) { m.fields(r.codec()) }

// --------------------------------------------------------- Group APIs

// FindCoordinatorRequest locates the broker coordinating a consumer group.
type FindCoordinatorRequest struct {
	Key string // group id
}

func (m *FindCoordinatorRequest) fields(c *codec) { c.string(&m.Key) }

func (m *FindCoordinatorRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *FindCoordinatorRequest) Decode(r *Reader) { m.fields(r.codec()) }

// FindCoordinatorResponse names the coordinating broker.
type FindCoordinatorResponse struct {
	Err    ErrorCode
	NodeID int32
	Host   string
	Port   int32
}

func (m *FindCoordinatorResponse) fields(c *codec) {
	c.errorCode(&m.Err)
	c.int32(&m.NodeID)
	c.string(&m.Host)
	c.int32(&m.Port)
}

func (m *FindCoordinatorResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *FindCoordinatorResponse) Decode(r *Reader) { m.fields(r.codec()) }

// JoinGroupRequest enters a consumer group, triggering a rebalance. The
// first joiner becomes the group leader and later computes the partition
// assignment client-side (§3.1 consumer groups).
type JoinGroupRequest struct {
	Group              string
	SessionTimeoutMs   int32
	RebalanceTimeoutMs int32
	MemberID           string // empty on first join
	Protocol           string // assignment strategy name, e.g. "range"
	Metadata           []byte // subscribed topics, encoded by the client
}

func (m *JoinGroupRequest) fields(c *codec) {
	c.string(&m.Group)
	c.int32(&m.SessionTimeoutMs)
	c.int32(&m.RebalanceTimeoutMs)
	c.string(&m.MemberID)
	c.string(&m.Protocol)
	c.bytes(&m.Metadata)
}

func (m *JoinGroupRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *JoinGroupRequest) Decode(r *Reader) { m.fields(r.codec()) }

// GroupMember is a member's id and subscription metadata, sent to the group
// leader so it can compute an assignment.
type GroupMember struct {
	MemberID string
	Metadata []byte
}

func (g *GroupMember) fields(c *codec) {
	c.string(&g.MemberID)
	c.bytes(&g.Metadata)
}

// JoinGroupResponse reports the new generation. Only the leader receives
// the full member list.
type JoinGroupResponse struct {
	Err        ErrorCode
	Generation int32
	Protocol   string
	LeaderID   string
	MemberID   string
	Members    []GroupMember
}

func (m *JoinGroupResponse) fields(c *codec) {
	c.errorCode(&m.Err)
	c.int32(&m.Generation)
	c.string(&m.Protocol)
	c.string(&m.LeaderID)
	c.string(&m.MemberID)
	array(c, &m.Members)
}

func (m *JoinGroupResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *JoinGroupResponse) Decode(r *Reader) { m.fields(r.codec()) }

// GroupAssignment carries one member's partition assignment from the group
// leader to the coordinator.
type GroupAssignment struct {
	MemberID   string
	Assignment []byte
}

func (g *GroupAssignment) fields(c *codec) {
	c.string(&g.MemberID)
	c.bytes(&g.Assignment)
}

// SyncGroupRequest distributes assignments: the leader includes all
// members' assignments; followers send none and receive theirs.
type SyncGroupRequest struct {
	Group       string
	Generation  int32
	MemberID    string
	Assignments []GroupAssignment
}

func (m *SyncGroupRequest) fields(c *codec) {
	c.string(&m.Group)
	c.int32(&m.Generation)
	c.string(&m.MemberID)
	array(c, &m.Assignments)
}

func (m *SyncGroupRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *SyncGroupRequest) Decode(r *Reader) { m.fields(r.codec()) }

// SyncGroupResponse returns this member's assignment.
type SyncGroupResponse struct {
	Err        ErrorCode
	Assignment []byte
}

func (m *SyncGroupResponse) fields(c *codec) {
	c.errorCode(&m.Err)
	c.bytes(&m.Assignment)
}

func (m *SyncGroupResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *SyncGroupResponse) Decode(r *Reader) { m.fields(r.codec()) }

// HeartbeatRequest keeps a group member alive between polls.
type HeartbeatRequest struct {
	Group      string
	Generation int32
	MemberID   string
}

func (m *HeartbeatRequest) fields(c *codec) {
	c.string(&m.Group)
	c.int32(&m.Generation)
	c.string(&m.MemberID)
}

func (m *HeartbeatRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *HeartbeatRequest) Decode(r *Reader) { m.fields(r.codec()) }

// HeartbeatResponse carries the liveness verdict; ErrRebalanceInProgress
// instructs the member to rejoin.
type HeartbeatResponse struct {
	Err ErrorCode
}

func (m *HeartbeatResponse) fields(c *codec) { c.errorCode(&m.Err) }

func (m *HeartbeatResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *HeartbeatResponse) Decode(r *Reader) { m.fields(r.codec()) }

// LeaveGroupRequest removes a member, triggering an immediate rebalance.
type LeaveGroupRequest struct {
	Group    string
	MemberID string
}

func (m *LeaveGroupRequest) fields(c *codec) {
	c.string(&m.Group)
	c.string(&m.MemberID)
}

func (m *LeaveGroupRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *LeaveGroupRequest) Decode(r *Reader) { m.fields(r.codec()) }

// LeaveGroupResponse acknowledges departure.
type LeaveGroupResponse struct {
	Err ErrorCode
}

func (m *LeaveGroupResponse) fields(c *codec) { c.errorCode(&m.Err) }

func (m *LeaveGroupResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *LeaveGroupResponse) Decode(r *Reader) { m.fields(r.codec()) }

// ------------------------------------------------------------ tier status

// TierStatusRequest asks a broker for the tiered-storage status of the
// partitions it leads. An empty Topics list means every tiered topic the
// broker hosts.
type TierStatusRequest struct {
	Topics []string
}

func (m *TierStatusRequest) fields(c *codec) { c.strings(&m.Topics) }

func (m *TierStatusRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *TierStatusRequest) Decode(r *Reader) { m.fields(r.codec()) }

// TierStatusResponse carries per-partition tier state.
type TierStatusResponse struct {
	Topics []TierStatusTopic
}

// TierStatusTopic groups one topic's partition statuses.
type TierStatusTopic struct {
	Name       string
	Partitions []TierStatusPartition
}

// TierStatusPartition is one partition's tiered-storage status as seen by
// its leader. EarliestOffset is the earliest offset a consumer can rewind
// to (tiered-earliest when cold segments exist, the local log start
// otherwise); LocalStartOffset is the first offset still held locally.
type TierStatusPartition struct {
	Partition        int32
	Err              ErrorCode
	Tiered           bool
	EarliestOffset   int64
	LocalStartOffset int64
	NextOffset       int64 // log end offset
	TieredNextOffset int64 // offload frontier: offsets below are tiered
	LocalSegments    int32
	LocalBytes       int64
	TieredSegments   int32
	TieredBytes      int64
	TieredRecords    int64
}

func (t *TierStatusTopic) fields(c *codec) {
	c.string(&t.Name)
	array(c, &t.Partitions)
}

func (p *TierStatusPartition) fields(c *codec) {
	c.int32(&p.Partition)
	c.errorCode(&p.Err)
	c.bool(&p.Tiered)
	c.int64(&p.EarliestOffset)
	c.int64(&p.LocalStartOffset)
	c.int64(&p.NextOffset)
	c.int64(&p.TieredNextOffset)
	c.int32(&p.LocalSegments)
	c.int64(&p.LocalBytes)
	c.int32(&p.TieredSegments)
	c.int64(&p.TieredBytes)
	c.int64(&p.TieredRecords)
}

func (m *TierStatusResponse) fields(c *codec) { array(c, &m.Topics) }

func (m *TierStatusResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *TierStatusResponse) Decode(r *Reader) { m.fields(r.codec()) }

// ----------------------------------------------------------------- quotas

// QuotaEntry is one principal's rate quota. Zero limits mean unlimited on
// that dimension. Rates are sustained per-second budgets; brokers allow a
// one-second burst on top before throttling (token bucket).
type QuotaEntry struct {
	// Principal is the client-id the quota applies to.
	Principal string
	// ProduceBytesPerSec bounds appended record-payload bytes.
	ProduceBytesPerSec int64
	// FetchBytesPerSec bounds consumer fetch-response bytes (replication
	// fetches are exempt).
	FetchBytesPerSec int64
	// RequestsPerSec bounds the principal's total request rate.
	RequestsPerSec int64
}

func (q *QuotaEntry) fields(c *codec) {
	c.string(&q.Principal)
	c.int64(&q.ProduceBytesPerSec)
	c.int64(&q.FetchBytesPerSec)
	c.int64(&q.RequestsPerSec)
}

// DescribeQuotasRequest reads back configured quotas. An empty Principals
// list returns every persisted quota.
type DescribeQuotasRequest struct {
	Principals []string
}

func (m *DescribeQuotasRequest) fields(c *codec) { c.strings(&m.Principals) }

func (m *DescribeQuotasRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *DescribeQuotasRequest) Decode(r *Reader) { m.fields(r.codec()) }

// DescribeQuotasResponse returns the persisted quota entries. Principals
// asked for but unconfigured are omitted (they run at the broker default).
type DescribeQuotasResponse struct {
	Err     ErrorCode
	Entries []QuotaEntry
}

func (m *DescribeQuotasResponse) fields(c *codec) {
	c.errorCode(&m.Err)
	array(c, &m.Entries)
}

func (m *DescribeQuotasResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *DescribeQuotasResponse) Decode(r *Reader) { m.fields(r.codec()) }

// AlterQuotaOp sets or removes one principal's quota.
type AlterQuotaOp struct {
	Entry QuotaEntry
	// Remove deletes the principal's quota (it falls back to the broker
	// default); Entry's limits are ignored.
	Remove bool
}

func (o *AlterQuotaOp) fields(c *codec) {
	o.Entry.fields(c)
	c.bool(&o.Remove)
}

// AlterQuotasRequest upserts or removes quotas. Any broker accepts it: the
// config is written to the coordination service, and every broker converges
// through its watch.
type AlterQuotasRequest struct {
	Ops []AlterQuotaOp
}

func (m *AlterQuotasRequest) fields(c *codec) { array(c, &m.Ops) }

func (m *AlterQuotasRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *AlterQuotasRequest) Decode(r *Reader) { m.fields(r.codec()) }

// AlterQuotasResponse reports per-principal outcomes (Name = principal).
type AlterQuotasResponse struct {
	Results []TopicResult
}

func (m *AlterQuotasResponse) fields(c *codec) { array(c, &m.Results) }

func (m *AlterQuotasResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *AlterQuotasResponse) Decode(r *Reader) { m.fields(r.codec()) }

// ----------------------------------------------------------------- tables

// TableGetRequest is a point read against the materialized table of one
// compacted-feed partition, answered by the partition leader. MaxLagOffsets
// bounds acceptable staleness: if the materializer's applied offset lags the
// high watermark by more than MaxLagOffsets the broker answers ErrTableStale
// instead of a possibly-stale value. Negative means any staleness is fine;
// zero demands applied == high watermark (read-your-acked-writes).
type TableGetRequest struct {
	Topic         string
	Partition     int32
	Key           []byte
	MaxLagOffsets int64
}

func (m *TableGetRequest) fields(c *codec) {
	c.string(&m.Topic)
	c.int32(&m.Partition)
	c.bytes(&m.Key)
	c.int64(&m.MaxLagOffsets)
}

func (m *TableGetRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *TableGetRequest) Decode(r *Reader) { m.fields(r.codec()) }

// TableGetResponse carries the lookup result plus the freshness watermark
// (applied offset vs high watermark) and the leader epoch the answer was
// served under, so clients can reason about staleness and fencing.
type TableGetResponse struct {
	Err           ErrorCode
	Found         bool
	Value         []byte
	AppliedOffset int64
	HighWatermark int64
	LeaderEpoch   int32
}

func (m *TableGetResponse) fields(c *codec) {
	c.errorCode(&m.Err)
	c.bool(&m.Found)
	c.bytes(&m.Value)
	c.int64(&m.AppliedOffset)
	c.int64(&m.HighWatermark)
	c.int32(&m.LeaderEpoch)
}

func (m *TableGetResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *TableGetResponse) Decode(r *Reader) { m.fields(r.codec()) }

// TableEntry is one key→value pair in a range response.
type TableEntry struct {
	Key   []byte
	Value []byte
}

func (e *TableEntry) fields(c *codec) {
	c.bytes(&e.Key)
	c.bytes(&e.Value)
}

// TableRangeRequest scans the materialized table of one partition in
// ascending key order over [From, To). Nil bounds are open. Limit bounds the
// returned entries; Limit <= 0 returns none — a status-only probe that still
// reports the freshness watermark (TableStatus is built on it).
// MaxLagOffsets behaves as in TableGetRequest.
type TableRangeRequest struct {
	Topic         string
	Partition     int32
	From          []byte
	To            []byte
	Limit         int32
	MaxLagOffsets int64
}

func (m *TableRangeRequest) fields(c *codec) {
	c.string(&m.Topic)
	c.int32(&m.Partition)
	c.bytes(&m.From)
	c.bytes(&m.To)
	c.int32(&m.Limit)
	c.int64(&m.MaxLagOffsets)
}

func (m *TableRangeRequest) Encode(w *Writer) { m.fields(w.codec()) }
func (m *TableRangeRequest) Decode(r *Reader) { m.fields(r.codec()) }

// TableRangeResponse carries the scanned entries. More reports that the scan
// stopped at Limit with keys remaining; resume with From = last key + one
// zero byte. ApproxLen is the partition table's approximate entry count.
type TableRangeResponse struct {
	Err           ErrorCode
	Entries       []TableEntry
	More          bool
	ApproxLen     int64
	AppliedOffset int64
	HighWatermark int64
	LeaderEpoch   int32
}

func (m *TableRangeResponse) fields(c *codec) {
	c.errorCode(&m.Err)
	array(c, &m.Entries)
	c.bool(&m.More)
	c.int64(&m.ApproxLen)
	c.int64(&m.AppliedOffset)
	c.int64(&m.HighWatermark)
	c.int32(&m.LeaderEpoch)
}

func (m *TableRangeResponse) Encode(w *Writer) { m.fields(w.codec()) }
func (m *TableRangeResponse) Decode(r *Reader) { m.fields(r.codec()) }
