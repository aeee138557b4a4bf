package client

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Errors returned by the cluster client.
var (
	// ErrNoBrokers reports that no bootstrap broker was reachable.
	ErrNoBrokers = errors.New("client: no reachable brokers")
	// ErrUnknownPartition reports routing to a nonexistent partition.
	ErrUnknownPartition = errors.New("client: unknown topic or partition")
	// ErrNoLeader reports a partition without an elected leader.
	ErrNoLeader = errors.New("client: partition has no leader")
)

// Config parameterises a Client.
type Config struct {
	// Bootstrap lists broker addresses used for initial metadata.
	Bootstrap []string
	// ClientID identifies this client in requests and logs.
	ClientID string
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// RetryBackoff is the delay between retries of retriable failures.
	RetryBackoff time.Duration
	// MaxRetries bounds retries of retriable failures.
	MaxRetries int
	// MetadataTTL is how long cached metadata is trusted.
	MetadataTTL time.Duration
	// Dialer opens transport connections; nil means plain TCP. Chaos
	// harnesses inject a fault-wrapping dialer here so every connection the
	// client (and its producers/consumers) opens crosses the injected
	// network.
	Dialer Dialer
	// Metrics, when non-nil, receives client-side instrumentation: acked
	// produce records, consumed records and the end-to-end produce→consume
	// latency histogram (batch-append timestamp to fetch decode) per
	// topic. Nil disables client instrumentation entirely.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.ClientID == "" {
		c.ClientID = "liquid"
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 20 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 8
	}
	if c.MetadataTTL == 0 {
		c.MetadataTTL = 10 * time.Second
	}
	return c
}

// Client is a cluster-aware protocol client: it maintains a metadata cache
// (brokers, partition leaders) and shared connections, and offers admin
// operations. Producers, consumers and the processing layer share one
// Client.
type Client struct {
	cfg Config
	met *clientMetrics // nil unless Config.Metrics is set

	mu     sync.Mutex
	conns  map[int32]*Conn // shared request/response conns by broker id
	meta   *wire.MetadataResponse
	metaAt time.Time
	closed bool
}

// clientMetrics pre-resolves the client-side families so producers and
// consumers record into child metrics without per-record registry lookups.
type clientMetrics struct {
	produceAcked   *metrics.CounterFamily   // client.produce.acked.records{topic}
	consumeRecords *metrics.CounterFamily   // client.consume.records{topic}
	e2eLatency     *metrics.HistogramFamily // client.e2e.latency.ns{topic}
}

func newClientMetrics(reg *metrics.Registry) *clientMetrics {
	return &clientMetrics{
		produceAcked:   reg.CounterFamily("client.produce.acked.records", "topic"),
		consumeRecords: reg.CounterFamily("client.consume.records", "topic"),
		e2eLatency:     reg.HistogramFamily("client.e2e.latency.ns", "topic"),
	}
}

// New creates a client. It does not dial until first use.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Bootstrap) == 0 {
		return nil, ErrNoBrokers
	}
	c := &Client{cfg: cfg, conns: make(map[int32]*Conn)}
	if cfg.Metrics != nil {
		c.met = newClientMetrics(cfg.Metrics)
	}
	return c, nil
}

// Config returns the effective configuration.
func (c *Client) Config() Config { return c.cfg }

// dialAny opens a throwaway connection to any bootstrap broker.
func (c *Client) dialAny() (*Conn, error) {
	var lastErr error
	for _, addr := range c.cfg.Bootstrap {
		conn, err := DialWith(c.cfg.Dialer, addr, c.cfg.ClientID, c.cfg.DialTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %v", ErrNoBrokers, lastErr)
}

// RefreshMetadata fetches cluster metadata from any broker.
func (c *Client) RefreshMetadata() error {
	conn, err := c.dialAny()
	if err != nil {
		return err
	}
	defer conn.Close()
	var resp wire.MetadataResponse
	if err := conn.RoundTrip(wire.APIMetadata, &wire.MetadataRequest{}, &resp); err != nil {
		return err
	}
	c.mu.Lock()
	c.meta = &resp
	c.metaAt = time.Now()
	c.mu.Unlock()
	return nil
}

// metadata returns cached metadata, refreshing if stale or absent.
func (c *Client) metadata() (*wire.MetadataResponse, error) {
	c.mu.Lock()
	meta, at := c.meta, c.metaAt
	ttl := c.cfg.MetadataTTL
	c.mu.Unlock()
	if meta != nil && time.Since(at) < ttl {
		return meta, nil
	}
	if err := c.RefreshMetadata(); err != nil {
		if meta != nil {
			return meta, nil // stale is better than nothing
		}
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta, nil
}

// Brokers returns the known brokers.
func (c *Client) Brokers() ([]wire.BrokerMeta, error) {
	meta, err := c.metadata()
	if err != nil {
		return nil, err
	}
	return meta.Brokers, nil
}

// TopicNames lists all topics known to the cluster, sorted.
func (c *Client) TopicNames() ([]string, error) {
	meta, err := c.metadata()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(meta.Topics))
	for i := range meta.Topics {
		if meta.Topics[i].Err == wire.ErrNone {
			out = append(out, meta.Topics[i].Name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// PartitionCount returns the number of partitions of a topic.
func (c *Client) PartitionCount(topic string) (int32, error) {
	meta, err := c.metadata()
	if err != nil {
		return 0, err
	}
	for i := range meta.Topics {
		if meta.Topics[i].Name == topic && meta.Topics[i].Err == wire.ErrNone {
			return int32(len(meta.Topics[i].Partitions)), nil
		}
	}
	// Unknown topic: force one refresh in case it was just created.
	if err := c.RefreshMetadata(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	meta = c.meta
	c.mu.Unlock()
	for i := range meta.Topics {
		if meta.Topics[i].Name == topic && meta.Topics[i].Err == wire.ErrNone {
			return int32(len(meta.Topics[i].Partitions)), nil
		}
	}
	return 0, fmt.Errorf("%w: %s", ErrUnknownPartition, topic)
}

// LeaderFor returns the broker id leading a partition.
func (c *Client) LeaderFor(topic string, partition int32) (int32, error) {
	meta, err := c.metadata()
	if err != nil {
		return -1, err
	}
	for i := range meta.Topics {
		t := &meta.Topics[i]
		if t.Name != topic {
			continue
		}
		for j := range t.Partitions {
			if t.Partitions[j].ID == partition {
				leader := t.Partitions[j].Leader
				if leader < 0 {
					return -1, ErrNoLeader
				}
				return leader, nil
			}
		}
	}
	return -1, fmt.Errorf("%w: %s/%d", ErrUnknownPartition, topic, partition)
}

// brokerAddr resolves a broker id to its address.
func (c *Client) brokerAddr(id int32) (string, error) {
	meta, err := c.metadata()
	if err != nil {
		return "", err
	}
	for _, b := range meta.Brokers {
		if b.ID == id {
			return fmt.Sprintf("%s:%d", b.Host, b.Port), nil
		}
	}
	return "", fmt.Errorf("client: broker %d not in metadata", id)
}

// ConnTo returns a shared connection to a broker, dialing if needed.
// Callers must not issue blocking (long-poll) requests on shared
// connections; use DialDedicated for those.
func (c *Client) ConnTo(brokerID int32) (*Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrConnClosed
	}
	conn, ok := c.conns[brokerID]
	c.mu.Unlock()
	if ok && !conn.Closed() {
		return conn, nil
	}
	addr, err := c.brokerAddr(brokerID)
	if err != nil {
		return nil, err
	}
	nc, err := DialWith(c.cfg.Dialer, addr, c.cfg.ClientID, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		nc.Close()
		return nil, ErrConnClosed
	}
	if old, ok := c.conns[brokerID]; ok && !old.Closed() {
		nc.Close()
		return old, nil
	}
	c.conns[brokerID] = nc
	return nc, nil
}

// DialDedicated opens a new private connection to a broker, suitable for
// blocking requests (long-poll fetches, group joins).
func (c *Client) DialDedicated(brokerID int32) (*Conn, error) {
	addr, err := c.brokerAddr(brokerID)
	if err != nil {
		return nil, err
	}
	return DialWith(c.cfg.Dialer, addr, c.cfg.ClientID, c.cfg.DialTimeout)
}

// InvalidateMetadata forces the next metadata access to refresh; called
// after retriable routing errors.
func (c *Client) InvalidateMetadata() {
	c.mu.Lock()
	c.metaAt = time.Time{}
	c.mu.Unlock()
}

// dropConn discards a cached connection after an error.
func (c *Client) dropConn(brokerID int32) {
	c.mu.Lock()
	if conn, ok := c.conns[brokerID]; ok {
		conn.Close()
		delete(c.conns, brokerID)
	}
	c.mu.Unlock()
}

// CreateTopic creates a topic cluster-wide.
func (c *Client) CreateTopic(spec wire.TopicSpec) error {
	conn, err := c.dialAny()
	if err != nil {
		return err
	}
	defer conn.Close()
	var resp wire.CreateTopicsResponse
	err = conn.RoundTrip(wire.APICreateTopics, &wire.CreateTopicsRequest{Topics: []wire.TopicSpec{spec}}, &resp)
	if err != nil {
		return err
	}
	if len(resp.Results) != 1 {
		return errors.New("client: malformed create response")
	}
	c.InvalidateMetadata()
	return resp.Results[0].Err.Err()
}

// DeleteTopic deletes a topic cluster-wide.
func (c *Client) DeleteTopic(name string) error {
	conn, err := c.dialAny()
	if err != nil {
		return err
	}
	defer conn.Close()
	var resp wire.DeleteTopicsResponse
	err = conn.RoundTrip(wire.APIDeleteTopics, &wire.DeleteTopicsRequest{Names: []string{name}}, &resp)
	if err != nil {
		return err
	}
	if len(resp.Results) != 1 {
		return errors.New("client: malformed delete response")
	}
	c.InvalidateMetadata()
	return resp.Results[0].Err.Err()
}

// SetQuota persists a principal's (client-id's) rate quota cluster-wide.
// Any broker accepts the write; all brokers converge through the
// coordination service, and the quota survives broker failover. Zero
// fields mean unlimited on that dimension.
func (c *Client) SetQuota(entry wire.QuotaEntry) error {
	return c.alterQuota(wire.AlterQuotaOp{Entry: entry})
}

// DeleteQuota removes a principal's quota; the principal falls back to the
// broker default.
func (c *Client) DeleteQuota(principal string) error {
	return c.alterQuota(wire.AlterQuotaOp{Entry: wire.QuotaEntry{Principal: principal}, Remove: true})
}

func (c *Client) alterQuota(op wire.AlterQuotaOp) error {
	conn, err := c.dialAny()
	if err != nil {
		return err
	}
	defer conn.Close()
	var resp wire.AlterQuotasResponse
	if err := conn.RoundTrip(wire.APIAlterQuotas, &wire.AlterQuotasRequest{Ops: []wire.AlterQuotaOp{op}}, &resp); err != nil {
		return err
	}
	if len(resp.Results) != 1 {
		return errors.New("client: malformed alter quotas response")
	}
	return resp.Results[0].Err.Err()
}

// DescribeQuotas returns the persisted quota entries for the named
// principals, or every persisted quota when none are named. Principals
// without a persisted quota are omitted (they run at the broker default).
func (c *Client) DescribeQuotas(principals ...string) ([]wire.QuotaEntry, error) {
	conn, err := c.dialAny()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	var resp wire.DescribeQuotasResponse
	if err := conn.RoundTrip(wire.APIDescribeQuotas, &wire.DescribeQuotasRequest{Principals: principals}, &resp); err != nil {
		return nil, err
	}
	return resp.Entries, resp.Err.Err()
}

// ListOffset resolves a timestamp to an offset on the partition leader.
// Use wire.TimestampEarliest / wire.TimestampLatest for the log ends.
func (c *Client) ListOffset(topic string, partition int32, timestamp int64) (int64, error) {
	var offset int64 = -1
	err := c.withLeaderRetry(topic, partition, func(conn *Conn) (wire.ErrorCode, error) {
		req := &wire.ListOffsetsRequest{Topics: []wire.ListOffsetsTopic{{
			Name:       topic,
			Partitions: []wire.ListOffsetsPartition{{Partition: partition, Timestamp: timestamp}},
		}}}
		var resp wire.ListOffsetsResponse
		if err := conn.RoundTrip(wire.APIListOffsets, req, &resp); err != nil {
			return wire.ErrNone, err
		}
		if len(resp.Topics) != 1 || len(resp.Topics[0].Partitions) != 1 {
			return wire.ErrNone, errors.New("client: malformed list offsets response")
		}
		p := resp.Topics[0].Partitions[0]
		offset = p.Offset
		return p.Err, nil
	})
	return offset, err
}

// TierStatus returns the tiered-storage status of every partition of a
// topic, each answered by its current leader: hot/cold segment counts,
// tiered bytes, and the local vs tiered start offsets. Works on non-tiered
// topics too (the tiered fields are zero and Tiered is false). Each
// broker's response answers every partition it leads at once, so the call
// costs one round trip per leader, not per partition.
func (c *Client) TierStatus(topic string) ([]wire.TierStatusPartition, error) {
	n, err := c.PartitionCount(topic)
	if err != nil {
		return nil, err
	}
	statuses := make([]*wire.TierStatusPartition, n)
	for p := int32(0); p < n; p++ {
		if statuses[p] != nil {
			continue // already answered by an earlier leader's response
		}
		err := c.withLeaderRetry(topic, p, func(conn *Conn) (wire.ErrorCode, error) {
			req := &wire.TierStatusRequest{Topics: []string{topic}}
			var resp wire.TierStatusResponse
			if err := conn.RoundTrip(wire.APITierStatus, req, &resp); err != nil {
				return wire.ErrNone, err
			}
			// Retry p if unanswered (the leader moved between metadata
			// and the request); keep every good answer either way.
			code := wire.ErrNotLeaderForPartition
			for i := range resp.Topics {
				if resp.Topics[i].Name != topic {
					continue
				}
				for j := range resp.Topics[i].Partitions {
					q := resp.Topics[i].Partitions[j]
					if q.Partition == p {
						code = q.Err
					}
					if q.Err == wire.ErrNone && q.Partition >= 0 && q.Partition < n && statuses[q.Partition] == nil {
						statuses[q.Partition] = &q
					}
				}
			}
			return code, nil
		})
		if err != nil {
			return nil, err
		}
		if statuses[p] == nil {
			return nil, fmt.Errorf("client: no tier status for %s/%d", topic, p)
		}
	}
	out := make([]wire.TierStatusPartition, n)
	for i, s := range statuses {
		out[i] = *s
	}
	return out, nil
}

// withLeaderRetry runs fn against the partition leader, retrying retriable
// protocol codes and connection failures with metadata refreshes.
func (c *Client) withLeaderRetry(topic string, partition int32, fn func(*Conn) (wire.ErrorCode, error)) error {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.RetryBackoff)
			c.InvalidateMetadata()
		}
		leader, err := c.LeaderFor(topic, partition)
		if err != nil {
			lastErr = err
			continue
		}
		conn, err := c.ConnTo(leader)
		if err != nil {
			lastErr = err
			continue
		}
		code, err := fn(conn)
		if err != nil {
			c.dropConn(leader)
			lastErr = err
			continue
		}
		if code == wire.ErrNone {
			return nil
		}
		lastErr = code.Err()
		if !code.Retriable() {
			return lastErr
		}
	}
	return fmt.Errorf("client: retries exhausted for %s/%d: %w", topic, partition, lastErr)
}

// InitProducer obtains an idempotent-producer identity (id + epoch) from
// any broker. A named producer gets its stable id back with a bumped epoch,
// fencing any earlier instance still sending under the old one; an empty
// name allocates a fresh id at epoch 0.
func (c *Client) InitProducer(name string) (int64, int32, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.RetryBackoff)
		}
		conn, err := c.dialAny()
		if err != nil {
			lastErr = err
			continue
		}
		var resp wire.InitProducerResponse
		err = conn.RoundTrip(wire.APIInitProducer, &wire.InitProducerRequest{Name: name}, &resp)
		conn.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Err != wire.ErrNone {
			lastErr = resp.Err.Err()
			if !resp.Err.Retriable() {
				return -1, -1, lastErr
			}
			continue
		}
		return resp.ProducerID, resp.Epoch, nil
	}
	return -1, -1, fmt.Errorf("client: init producer: %w", lastErr)
}

// FindCoordinator locates the group coordinator broker.
func (c *Client) FindCoordinator(group string) (int32, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.RetryBackoff)
		}
		conn, err := c.dialAny()
		if err != nil {
			lastErr = err
			continue
		}
		var resp wire.FindCoordinatorResponse
		err = conn.RoundTrip(wire.APIFindCoordinator, &wire.FindCoordinatorRequest{Key: group}, &resp)
		conn.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Err == wire.ErrNone {
			return resp.NodeID, nil
		}
		lastErr = resp.Err.Err()
		if !resp.Err.Retriable() {
			return -1, lastErr
		}
	}
	return -1, fmt.Errorf("client: coordinator lookup failed: %w", lastErr)
}

// CommitOffsets checkpoints offsets with annotations through the offset
// manager (paper §4.2). Annotations are marshalled into the checkpoint
// metadata; pass nil for a plain commit.
func (c *Client) CommitOffsets(group string, offsets map[string]map[int32]int64, annotations map[string]string) error {
	metadata := EncodeAnnotations(annotations)
	req := &wire.OffsetCommitRequest{Group: group}
	for topic, parts := range offsets {
		t := wire.OffsetCommitTopic{Name: topic}
		for p, off := range parts {
			t.Partitions = append(t.Partitions, wire.OffsetCommitPartition{
				Partition: p, Offset: off, Metadata: metadata,
			})
		}
		req.Topics = append(req.Topics, t)
	}
	return c.withCoordinatorRetry(group, func(conn *Conn) (wire.ErrorCode, error) {
		var resp wire.OffsetCommitResponse
		if err := conn.RoundTrip(wire.APIOffsetCommit, req, &resp); err != nil {
			return wire.ErrNone, err
		}
		for _, t := range resp.Topics {
			for _, p := range t.Partitions {
				if p.Err != wire.ErrNone {
					return p.Err, nil
				}
			}
		}
		return wire.ErrNone, nil
	})
}

// FetchOffsets returns the latest committed offsets for a group; absent
// partitions map to -1.
func (c *Client) FetchOffsets(group, topic string, partitions []int32) (map[int32]int64, error) {
	out := make(map[int32]int64, len(partitions))
	err := c.withCoordinatorRetry(group, func(conn *Conn) (wire.ErrorCode, error) {
		req := &wire.OffsetFetchRequest{
			Group:  group,
			Topics: []wire.OffsetFetchTopic{{Name: topic, Partitions: partitions}},
		}
		var resp wire.OffsetFetchResponse
		if err := conn.RoundTrip(wire.APIOffsetFetch, req, &resp); err != nil {
			return wire.ErrNone, err
		}
		for _, t := range resp.Topics {
			for _, p := range t.Partitions {
				if p.Err != wire.ErrNone {
					return p.Err, nil
				}
				out[p.Partition] = p.Offset
			}
		}
		return wire.ErrNone, nil
	})
	return out, err
}

// QueryOffset performs metadata-based access: the most recent checkpoint
// whose annotation matches, or — with key "@timestamp" — the last
// checkpoint at or before the timestamp (milliseconds, as a string).
func (c *Client) QueryOffset(group, topic string, partition int32, key, value string) (offset int64, found bool, err error) {
	offset = -1
	err = c.withCoordinatorRetry(group, func(conn *Conn) (wire.ErrorCode, error) {
		req := &wire.OffsetQueryRequest{
			Group: group, Topic: topic, Partition: partition,
			AnnotationKey: key, AnnotationValue: value,
		}
		var resp wire.OffsetQueryResponse
		if err := conn.RoundTrip(wire.APIOffsetQuery, req, &resp); err != nil {
			return wire.ErrNone, err
		}
		if resp.Err != wire.ErrNone {
			return resp.Err, nil
		}
		found = resp.Found
		offset = resp.Offset
		return wire.ErrNone, nil
	})
	return offset, found, err
}

// withCoordinatorRetry runs fn against the group coordinator with retries.
func (c *Client) withCoordinatorRetry(group string, fn func(*Conn) (wire.ErrorCode, error)) error {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.RetryBackoff)
			c.InvalidateMetadata()
		}
		coord, err := c.FindCoordinator(group)
		if err != nil {
			lastErr = err
			continue
		}
		conn, err := c.ConnTo(coord)
		if err != nil {
			lastErr = err
			continue
		}
		code, err := fn(conn)
		if errors.Is(err, wire.ErrEncode) {
			return err // no retry can encode it
		}
		if err != nil {
			c.dropConn(coord)
			lastErr = err
			continue
		}
		if code == wire.ErrNone {
			return nil
		}
		lastErr = code.Err()
		if !code.Retriable() {
			return lastErr
		}
	}
	return fmt.Errorf("client: coordinator retries exhausted for group %s: %w", group, lastErr)
}

// Close closes all shared connections.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for id, conn := range c.conns {
		conn.Close()
		delete(c.conns, id)
	}
}
