// Package workload generates the synthetic input data of the paper's
// production use cases (§5.1): real-user-monitoring page-load events,
// REST call-graph traces, zipf-keyed user profile updates, and operational
// metrics. Generators are deterministic under a seed so experiments are
// reproducible, and their statistical shape (zipf key popularity, call
// fan-out, latency distributions) matches the narratives in the paper.
package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// RUMEvent is a real-user-monitoring page-load event (§5.1 "site speed
// monitoring"): timestamp, page, load time, client region and serving CDN.
type RUMEvent struct {
	Timestamp int64  `json:"ts"` // ms since epoch
	Page      string `json:"page"`
	Region    string `json:"region"`
	CDN       string `json:"cdn"`
	LoadMs    int64  `json:"loadMs"`
	SessionID string `json:"session"`
}

// Encode marshals the event for the messaging layer.
func (e RUMEvent) Encode() []byte {
	b, _ := json.Marshal(e)
	return b
}

// DecodeRUM parses an encoded RUMEvent.
func DecodeRUM(b []byte) (RUMEvent, error) {
	var e RUMEvent
	err := json.Unmarshal(b, &e)
	return e, err
}

// Regions and CDNs used by the RUM generator.
var (
	Regions = []string{"us-east", "us-west", "eu-west", "eu-central", "ap-south", "ap-east"}
	CDNs    = []string{"cdn-alpha", "cdn-beta", "cdn-gamma"}
	Pages   = []string{"/feed", "/profile", "/jobs", "/messaging", "/search", "/notifications"}
)

// RUMConfig shapes the RUM generator.
type RUMConfig struct {
	Seed int64
	// BaseLoadMs is the median healthy load time (default 200).
	BaseLoadMs int64
	// SlowCDN, if non-empty, makes one CDN degrade: its load times are
	// multiplied by SlowFactor — the anomaly the paper's monitoring
	// pipeline detects and reroutes around.
	SlowCDN    string
	SlowFactor float64
	// Sessions is the session-id cardinality (default 1000).
	Sessions int
}

// RUMGenerator produces a deterministic RUM event stream.
type RUMGenerator struct {
	cfg RUMConfig
	rng *rand.Rand
	now int64
}

// NewRUM creates a generator starting at startMs.
func NewRUM(cfg RUMConfig, startMs int64) *RUMGenerator {
	if cfg.BaseLoadMs == 0 {
		cfg.BaseLoadMs = 200
	}
	if cfg.SlowFactor == 0 {
		cfg.SlowFactor = 5
	}
	if cfg.Sessions == 0 {
		cfg.Sessions = 1000
	}
	return &RUMGenerator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), now: startMs}
}

// Next returns the next event, advancing simulated time ~1ms per event.
func (g *RUMGenerator) Next() RUMEvent {
	g.now += int64(g.rng.Intn(3))
	cdn := CDNs[g.rng.Intn(len(CDNs))]
	// Log-normal-ish load time: base + exponential tail.
	load := g.cfg.BaseLoadMs + int64(g.rng.ExpFloat64()*float64(g.cfg.BaseLoadMs)/2)
	if cdn == g.cfg.SlowCDN {
		load = int64(float64(load) * g.cfg.SlowFactor)
	}
	return RUMEvent{
		Timestamp: g.now,
		Page:      Pages[g.rng.Intn(len(Pages))],
		Region:    Regions[g.rng.Intn(len(Regions))],
		CDN:       cdn,
		LoadMs:    load,
		SessionID: fmt.Sprintf("s-%d", g.rng.Intn(g.cfg.Sessions)),
	}
}

// TenantSpec declares one tenant of a multi-tenant workload (§3.2/§4.4
// "ETL-as-a-service": many teams share one nearline stack). Weight sets
// the tenant's share of the event stream; ValueBytes its payload size —
// a noisy neighbor is simply a tenant with a large weight and large
// payloads.
type TenantSpec struct {
	// ID is the tenant's principal (used as the client-id, so broker
	// quotas key on it).
	ID string
	// Weight is the tenant's relative share of generated events
	// (default 1).
	Weight float64
	// ValueBytes sizes the tenant's payloads (default 100).
	ValueBytes int
}

// TenantEvent is one tenant's produced record.
type TenantEvent struct {
	// Tenant is the generating tenant's ID.
	Tenant string
	// Seq is the tenant-local sequence number (dense per tenant, so
	// conservation checks can detect loss per principal).
	Seq int64
	// Payload is the deterministic value body.
	Payload []byte
}

// MultiTenantConfig shapes the multi-tenant generator.
type MultiTenantConfig struct {
	Seed int64
	// Tenants lists the sharing tenants; empty defaults to one "tenant-0".
	Tenants []TenantSpec
}

// MultiTenantGenerator interleaves the event streams of several tenants,
// weighted and deterministic under a seed (aggressor/victim quota mixes).
type MultiTenantGenerator struct {
	cfg    MultiTenantConfig
	rng    *rand.Rand
	cum    []float64 // cumulative weights for tenant selection
	total  float64
	seq    []int64
	counts map[string]int64
}

// NewMultiTenant creates a generator.
func NewMultiTenant(cfg MultiTenantConfig) *MultiTenantGenerator {
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = []TenantSpec{{ID: "tenant-0"}}
	}
	for i := range cfg.Tenants {
		if cfg.Tenants[i].Weight <= 0 {
			cfg.Tenants[i].Weight = 1
		}
		if cfg.Tenants[i].ValueBytes <= 0 {
			cfg.Tenants[i].ValueBytes = 100
		}
	}
	g := &MultiTenantGenerator{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		seq:    make([]int64, len(cfg.Tenants)),
		counts: make(map[string]int64, len(cfg.Tenants)),
	}
	for _, t := range cfg.Tenants {
		g.total += t.Weight
		g.cum = append(g.cum, g.total)
	}
	return g
}

// Next returns the next event: a weighted tenant pick with a dense
// per-tenant sequence and a deterministic payload of the tenant's size.
func (g *MultiTenantGenerator) Next() TenantEvent {
	x := g.rng.Float64() * g.total
	idx := 0
	for idx < len(g.cum)-1 && x >= g.cum[idx] {
		idx++
	}
	t := g.cfg.Tenants[idx]
	seq := g.seq[idx]
	g.seq[idx]++
	g.counts[t.ID]++
	payload := make([]byte, t.ValueBytes)
	header := fmt.Sprintf("%s/%08d/", t.ID, seq)
	copy(payload, header)
	for i := len(header); i < len(payload); i++ {
		payload[i] = byte('a' + (seq+int64(i))%26)
	}
	return TenantEvent{Tenant: t.ID, Seq: seq, Payload: payload}
}

// Counts returns how many events each tenant has generated so far.
func (g *MultiTenantGenerator) Counts() map[string]int64 {
	out := make(map[string]int64, len(g.counts))
	for k, v := range g.counts {
		out[k] = v
	}
	return out
}

// CallEvent is one REST call of a front-end request (§5.1 "call graph
// assembly"). All calls of one page view share a RequestID; ParentSpan
// links the tree.
type CallEvent struct {
	RequestID  string `json:"reqId"`
	SpanID     int    `json:"span"`
	ParentSpan int    `json:"parent"` // -1 for the root
	Service    string `json:"service"`
	DurMs      int64  `json:"durMs"`
	Timestamp  int64  `json:"ts"`
}

// Encode marshals the event.
func (e CallEvent) Encode() []byte {
	b, _ := json.Marshal(e)
	return b
}

// DecodeCall parses an encoded CallEvent.
func DecodeCall(b []byte) (CallEvent, error) {
	var e CallEvent
	err := json.Unmarshal(b, &e)
	return e, err
}

// Services in the call-graph generator.
var Services = []string{
	"frontend", "profile-svc", "feed-svc", "search-svc", "ads-svc",
	"graph-svc", "media-svc", "notif-svc",
}

// CallGraphConfig shapes the trace generator.
type CallGraphConfig struct {
	Seed int64
	// FanOut is the mean child calls per span (default 2).
	FanOut int
	// MaxDepth bounds the call tree (default 3).
	MaxDepth int
	// SlowService, if non-empty, gets pathological latencies — the slow
	// call the paper's pipeline pinpoints within seconds.
	SlowService string
}

// CallGraphGenerator produces whole request traces.
type CallGraphGenerator struct {
	cfg     CallGraphConfig
	rng     *rand.Rand
	nextReq int
	now     int64
}

// NewCallGraph creates a generator starting at startMs.
func NewCallGraph(cfg CallGraphConfig, startMs int64) *CallGraphGenerator {
	if cfg.FanOut == 0 {
		cfg.FanOut = 2
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 3
	}
	return &CallGraphGenerator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), now: startMs}
}

// NextTrace returns all call events of one request. Events arrive
// interleaved in production; callers may shuffle them.
func (g *CallGraphGenerator) NextTrace() []CallEvent {
	g.nextReq++
	g.now += int64(1 + g.rng.Intn(5))
	reqID := fmt.Sprintf("req-%08d", g.nextReq)
	var events []CallEvent
	span := 0
	var gen func(parent, depth int)
	gen = func(parent, depth int) {
		id := span
		span++
		svc := Services[g.rng.Intn(len(Services))]
		if parent == -1 {
			svc = "frontend"
		}
		dur := int64(1 + g.rng.Intn(20))
		if svc == g.cfg.SlowService {
			dur += 200 + int64(g.rng.Intn(300))
		}
		events = append(events, CallEvent{
			RequestID:  reqID,
			SpanID:     id,
			ParentSpan: parent,
			Service:    svc,
			DurMs:      dur,
			Timestamp:  g.now,
		})
		if depth >= g.cfg.MaxDepth {
			return
		}
		children := g.rng.Intn(g.cfg.FanOut + 1)
		for i := 0; i < children; i++ {
			gen(id, depth+1)
		}
	}
	gen(-1, 0)
	return events
}

// ProfileUpdate is a user-profile field change (§5.1 "data cleaning and
// normalization" and §4.2's motivating workload: only a small share of
// profiles change per period).
type ProfileUpdate struct {
	UserID string `json:"user"`
	Field  string `json:"field"`
	Value  string `json:"value"`
	Ts     int64  `json:"ts"`
}

// Encode marshals the update.
func (e ProfileUpdate) Encode() []byte {
	b, _ := json.Marshal(e)
	return b
}

// DecodeProfile parses an encoded ProfileUpdate.
func DecodeProfile(b []byte) (ProfileUpdate, error) {
	var e ProfileUpdate
	err := json.Unmarshal(b, &e)
	return e, err
}

// ProfileFields that updates touch.
var ProfileFields = []string{"headline", "position", "company", "location", "skills"}

// ProfileConfig shapes the update generator.
type ProfileConfig struct {
	Seed int64
	// Users is the user-id cardinality (default 10000).
	Users int
	// ZipfS is the skew parameter (>1; default 1.2): few users update
	// constantly, most rarely.
	ZipfS float64
}

// ProfileGenerator produces zipf-keyed profile updates.
type ProfileGenerator struct {
	cfg  ProfileConfig
	rng  *rand.Rand
	zipf *rand.Zipf
	now  int64
}

// NewProfile creates a generator starting at startMs.
func NewProfile(cfg ProfileConfig, startMs int64) *ProfileGenerator {
	if cfg.Users == 0 {
		cfg.Users = 10000
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &ProfileGenerator{
		cfg:  cfg,
		rng:  rng,
		zipf: rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Users-1)),
		now:  startMs,
	}
}

// Next returns the next update.
func (g *ProfileGenerator) Next() ProfileUpdate {
	g.now += int64(g.rng.Intn(4))
	field := ProfileFields[g.rng.Intn(len(ProfileFields))]
	return ProfileUpdate{
		UserID: fmt.Sprintf("user-%06d", g.zipf.Uint64()),
		Field:  field,
		Value:  fmt.Sprintf("%s-v%d", field, g.rng.Intn(1000)),
		Ts:     g.now,
	}
}

// MetricEvent is an operational metric sample (§5.1 "operational
// analysis"): host, metric name, value.
type MetricEvent struct {
	Host  string  `json:"host"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Ts    int64   `json:"ts"`
}

// Encode marshals the sample.
func (e MetricEvent) Encode() []byte {
	b, _ := json.Marshal(e)
	return b
}

// DecodeMetric parses an encoded MetricEvent.
func DecodeMetric(b []byte) (MetricEvent, error) {
	var e MetricEvent
	err := json.Unmarshal(b, &e)
	return e, err
}

// MetricNames emitted by the generator.
var MetricNames = []string{"cpu.util", "mem.used", "disk.io", "net.rx", "errors.rate"}

// MetricsConfig shapes the generator.
type MetricsConfig struct {
	Seed  int64
	Hosts int // default 50
	// SpikeHost, if non-empty, emits anomalous error rates for one host.
	SpikeHost string
}

// MetricsGenerator produces operational metric samples.
type MetricsGenerator struct {
	cfg MetricsConfig
	rng *rand.Rand
	now int64
}

// NewMetrics creates a generator starting at startMs.
func NewMetrics(cfg MetricsConfig, startMs int64) *MetricsGenerator {
	if cfg.Hosts == 0 {
		cfg.Hosts = 50
	}
	return &MetricsGenerator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), now: startMs}
}

// Next returns the next sample.
func (g *MetricsGenerator) Next() MetricEvent {
	g.now += int64(g.rng.Intn(3))
	host := fmt.Sprintf("host-%03d", g.rng.Intn(g.cfg.Hosts))
	name := MetricNames[g.rng.Intn(len(MetricNames))]
	value := g.rng.Float64() * 100
	if name == "errors.rate" {
		value = g.rng.Float64() * 2
		if host == g.cfg.SpikeHost {
			value = 50 + g.rng.Float64()*50
		}
	}
	return MetricEvent{Host: host, Name: name, Value: value, Ts: g.now}
}
