package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCodecPrimitivesRoundTrip(t *testing.T) {
	var w Writer
	w.Int8(-3)
	w.Bool(true)
	w.Int16(-1234)
	w.Int32(1 << 30)
	w.Int64(-(1 << 60))
	w.String("héllo")
	w.Bytes32([]byte{1, 2, 3})
	w.Bytes32(nil)
	w.StringArray([]string{"a", "", "c"})
	w.Int32Array([]int32{7, -8})

	r := NewReader(w.Bytes())
	if got := r.Int8(); got != -3 {
		t.Fatalf("Int8 = %d", got)
	}
	if !r.Bool() {
		t.Fatal("Bool = false")
	}
	if got := r.Int16(); got != -1234 {
		t.Fatalf("Int16 = %d", got)
	}
	if got := r.Int32(); got != 1<<30 {
		t.Fatalf("Int32 = %d", got)
	}
	if got := r.Int64(); got != -(1 << 60) {
		t.Fatalf("Int64 = %d", got)
	}
	if got := r.String(); got != "héllo" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Bytes32(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes32 = %v", got)
	}
	if got := r.Bytes32(); got != nil {
		t.Fatalf("nil Bytes32 = %v", got)
	}
	if got := r.StringArray(); !reflect.DeepEqual(got, []string{"a", "", "c"}) {
		t.Fatalf("StringArray = %v", got)
	}
	if got := r.Int32Array(); !reflect.DeepEqual(got, []int32{7, -8}) {
		t.Fatalf("Int32Array = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{0x00}) // too short for Int32
	_ = r.Int32()
	if r.Err() == nil {
		t.Fatal("expected error after short read")
	}
	// All further reads return zero values without panicking.
	if r.Int64() != 0 || r.String() != "" || r.Bytes32() != nil {
		t.Fatal("post-error reads should return zero values")
	}
}

// TestWriterRefusesLongString: a string longer than its int16 length prefix
// can say is not cut (which could split a rune and still decode cleanly):
// the Writer's sticky error reports it, and the framed write sends nothing.
func TestWriterRefusesLongString(t *testing.T) {
	long := strings.Repeat("é", 20000) // 40 000 bytes
	var w Writer
	w.String(long)
	if !errors.Is(w.Err(), ErrEncode) || w.Len() != 0 {
		t.Fatalf("String(%d bytes): err %v, %d bytes written", len(long), w.Err(), w.Len())
	}
	hdr := &RequestHeader{API: APIOffsetCommit, CorrelationID: 1}
	req := &OffsetCommitRequest{Group: "g", Topics: []OffsetCommitTopic{{
		Name: "t", Partitions: []OffsetCommitPartition{{Partition: 0, Offset: 1, Metadata: long}},
	}}}
	var out bytes.Buffer
	if err := WriteRequestFrame(&out, hdr, req); !errors.Is(err, ErrEncode) || out.Len() != 0 {
		t.Fatalf("WriteRequestFrame: err %v, %d bytes written", err, out.Len())
	}
	if b := EncodeRequest(hdr, req); b != nil {
		t.Fatalf("EncodeRequest returned %d bytes", len(b))
	}
	// The pooled writer that failed carries no error into the next frame.
	for i := 0; i < 4; i++ {
		if err := WriteRequestFrame(&out, hdr, &MetadataRequest{}); err != nil {
			t.Fatalf("next frame: %v", err)
		}
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	var w Writer
	w.Int32(1)
	w.Int32(2)
	r := NewReader(w.Bytes())
	_ = r.Int32()
	if err := r.Done(); err == nil {
		t.Fatal("Done should report trailing bytes")
	}
}

func TestCorruptArrayLenRejected(t *testing.T) {
	var w Writer
	w.Int32(1 << 30) // absurd count with no payload
	r := NewReader(w.Bytes())
	n := r.ArrayLen()
	if n != 0 || r.Err() == nil {
		t.Fatalf("ArrayLen = %d, err = %v; want 0 and error", n, r.Err())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame = %q", got)
	}
}

func TestFrameTooLargeRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB length prefix
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// roundTrip encodes a message and decodes it into out, failing on error.
func roundTrip(t *testing.T, in, out Message) {
	t.Helper()
	var w Writer
	in.Encode(&w)
	r := NewReader(w.Bytes())
	out.Decode(r)
	if err := r.Done(); err != nil {
		t.Fatalf("decode %T: %v", in, err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// goldenCases pins the wire bytes of every message type and the request
// header: hex is what the codec produced before each message's field list
// was declared once, and every case must still encode to exactly those
// bytes and decode back to msg.
var goldenCases = []struct {
	hex string
	msg Message
}{
	{"ffff000013880000000100066576656e747300000002000000000000000a6261746368627974657300000003ffffffff", &ProduceRequest{
		RequiredAcks: -1,
		TimeoutMs:    5000,
		Topics: []ProduceTopic{{
			Name: "events",
			Partitions: []ProducePartition{
				{Partition: 0, Records: []byte("batchbytes")},
				{Partition: 3, Records: nil},
			},
		}},
	}},
	{"000000fa0000000100066576656e74730000000200000000000000000000000000110000000000000014000000010005ffffffffffffffff0000000000000000", &ProduceResponse{
		ThrottleTimeMs: 250,
		Topics: []ProduceRespTopic{{
			Name: "events",
			Partitions: []ProduceRespPartition{
				{Partition: 0, Err: ErrNone, BaseOffset: 17, HighWatermark: 20},
				{Partition: 1, Err: ErrNotLeaderForPartition, BaseOffset: -1},
			},
		}},
	}},
	{"ffffffff0000006400000001001000000000000100066576656e74730000000100000002000000000000006300001000", &FetchRequest{
		ReplicaID: -1, MaxWaitMs: 100, MinBytes: 1, MaxBytes: 1 << 20,
		Topics: []FetchTopic{{
			Name:       "events",
			Partitions: []FetchPartition{{Partition: 2, Offset: 99, MaxBytes: 4096}},
		}},
	}},
	{"0000007d0000000100066576656e7473000000010000000200000000000000000078000000000000000500000003010203", &FetchResponse{
		ThrottleTimeMs: 125,
		Topics: []FetchRespTopic{{
			Name: "events",
			Partitions: []FetchRespPartition{{
				Partition: 2, Err: ErrNone, HighWatermark: 120,
				LogStartOffset: 5, Records: []byte{1, 2, 3},
			}},
		}},
	}},
	{"000000010001740000000100000000ffffffffffffffff", &ListOffsetsRequest{
		Topics: []ListOffsetsTopic{{
			Name:       "t",
			Partitions: []ListOffsetsPartition{{Partition: 0, Timestamp: TimestampLatest}},
		}},
	}},
	{"000000010001740000000100000000000000000000000000580000000000000003", &ListOffsetsResponse{
		Topics: []ListOffsetsRespTopic{{
			Name:       "t",
			Partitions: []ListOffsetsRespPartition{{Partition: 0, Timestamp: 88, Offset: 3}},
		}},
	}},
	{"00000002000161000162", &MetadataRequest{Topics: []string{"a", "b"}}},
	{"000000010000000100096c6f63616c686f7374000023840000000000010000000100000001610100000001000000000000000000010000000400000003000000010000000200000003000000020000000100000002", &MetadataResponse{
		Brokers:      []BrokerMeta{{ID: 1, Host: "localhost", Port: 9092}},
		ControllerID: 1,
		Topics: []TopicMeta{{
			Err: ErrNone, Name: "a", Compacted: true,
			Partitions: []PartitionMeta{{
				ID: 0, Leader: 1, LeaderEpoch: 4,
				Replicas: []int32{1, 2, 3}, ISR: []int32{1, 2},
			}},
		}},
	}},
	{"0000000100036e6577000000080003000000000036ee80ffffffffffffffff0010000001000000000000000000000000000000000000", &CreateTopicsRequest{
		Topics: []TopicSpec{{
			Name: "new", NumPartitions: 8, ReplicationFactor: 3,
			RetentionMs: 3600_000, RetentionBytes: -1, SegmentBytes: 1 << 20, Compacted: true,
		}},
	}},
	{"0000000100036e6577000e", &CreateTopicsResponse{
		Results: []TopicResult{{Name: "new", Err: ErrTopicAlreadyExists}},
	}},
	{"0000000100036f6c64", &DeleteTopicsRequest{Names: []string{"old"}}},
	{"0000000100036f6c640000", &DeleteTopicsResponse{
		Results: []TopicResult{{Name: "old", Err: ErrNone}},
	}},
	{"0001670000000200036d2d31000000010001740000000100000000000000000000002a00107b2276657273696f6e223a227632227d", &OffsetCommitRequest{
		Group: "g", Generation: 2, MemberID: "m-1",
		Topics: []OffsetCommitTopic{{
			Name: "t",
			Partitions: []OffsetCommitPartition{
				{Partition: 0, Offset: 42, Metadata: `{"version":"v2"}`},
			},
		}},
	}},
	{"0000000100017400000001000000000000", &OffsetCommitResponse{
		Topics: []OffsetCommitRespTopic{{
			Name:       "t",
			Partitions: []OffsetCommitRespPartition{{Partition: 0, Err: ErrNone}},
		}},
	}},
	{"00016700000001000174000000020000000000000001", &OffsetFetchRequest{
		Group:  "g",
		Topics: []OffsetFetchTopic{{Name: "t", Partitions: []int32{0, 1}}},
	}},
	{"0000000100017400000002000000000000000000000000002a00016d000000010000ffffffffffffffff0000", &OffsetFetchResponse{
		Topics: []OffsetFetchRespTopic{{
			Name: "t",
			Partitions: []OffsetFetchRespPartition{
				{Partition: 0, Offset: 42, Metadata: "m"},
				{Partition: 1, Offset: -1},
			},
		}},
	}},
	{"00016700017400000001000776657273696f6e00027631", &OffsetQueryRequest{
		Group: "g", Topic: "t", Partition: 1,
		AnnotationKey: "version", AnnotationValue: "v1",
	}},
	{"000001000000000000001f00107b2276657273696f6e223a227631227d", &OffsetQueryResponse{
		Found: true, Offset: 31, Metadata: `{"version":"v1"}`,
	}},
	{"000167", &FindCoordinatorRequest{Key: "g"}},
	{"00000000000200016800000001", &FindCoordinatorResponse{NodeID: 2, Host: "h", Port: 1}},
	{"00016700002710000075300000000572616e676500000006746f70696373", &JoinGroupRequest{
		Group: "g", SessionTimeoutMs: 10000, RebalanceTimeoutMs: 30000,
		MemberID: "", Protocol: "range", Metadata: []byte("topics"),
	}},
	{"000000000001000572616e676500036d2d3100036d2d310000000100036d2d3100000006746f70696373", &JoinGroupResponse{
		Generation: 1, Protocol: "range", LeaderID: "m-1", MemberID: "m-1",
		Members: []GroupMember{{MemberID: "m-1", Metadata: []byte("topics")}},
	}},
	{"0001670000000100036d2d310000000100036d2d3100000005743a302c31", &SyncGroupRequest{
		Group: "g", Generation: 1, MemberID: "m-1",
		Assignments: []GroupAssignment{{MemberID: "m-1", Assignment: []byte("t:0,1")}},
	}},
	{"000000000005743a302c31", &SyncGroupResponse{Assignment: []byte("t:0,1")}},
	{"0001670000000100016d", &HeartbeatRequest{Group: "g", Generation: 1, MemberID: "m"}},
	{"000c", &HeartbeatResponse{Err: ErrRebalanceInProgress}},
	{"00016700016d", &LeaveGroupRequest{Group: "g", MemberID: "m"}},
	{"0000", &LeaveGroupResponse{}},
	{"00000001000374626c000000040002000000000000000000000000000000000000000001000000000000000000000000000000000001", &CreateTopicsRequest{
		Topics: []TopicSpec{{
			Name: "tbl", NumPartitions: 4, ReplicationFactor: 2,
			Compacted: true, Table: true,
		}},
	}},
	{"000374626c0000000200000007757365722d3137ffffffffffffffff", &TableGetRequest{
		Topic: "tbl", Partition: 2, Key: []byte("user-17"), MaxLagOffsets: -1,
	}},
	{"00000100000001760000000000000029000000000000002900000003", &TableGetResponse{
		Err: ErrNone, Found: true, Value: []byte("v"),
		AppliedOffset: 41, HighWatermark: 41, LeaderEpoch: 3,
	}},
	{"001600ffffffff000000000000000a000000000000002800000001", &TableGetResponse{
		Err: ErrTableStale, AppliedOffset: 10, HighWatermark: 40, LeaderEpoch: 1,
	}},
	{"000374626c000000000000000161ffffffff000000640000000000000000", &TableRangeRequest{
		Topic: "tbl", Partition: 0, From: []byte("a"), To: nil,
		Limit: 100, MaxLagOffsets: 0,
	}},
	{"00000000000200000001610000000131000000016200000001320100000000000004d20000000000000009000000000000000900000002", &TableRangeResponse{
		Err: ErrNone,
		Entries: []TableEntry{
			{Key: []byte("a"), Value: []byte("1")},
			{Key: []byte("b"), Value: []byte("2")},
		},
		More: true, ApproxLen: 1234,
		AppliedOffset: 9, HighWatermark: 9, LeaderEpoch: 2,
	}},
	{"002e000000070008636c69656e742d61", &RequestHeader{API: APIInitProducer, CorrelationID: 7, ClientID: "client-a"}},
	{"0000000100066576656e7473", &TierStatusRequest{Topics: []string{"events"}}},
	{"0000000100066576656e747300000001000000010000010000000000000000000000000000012c000000000000038400000000000001400000000200000000000010000000000500000000000100000000000000000140", &TierStatusResponse{
		Topics: []TierStatusTopic{{
			Name: "events",
			Partitions: []TierStatusPartition{{
				Partition: 1, Err: ErrNone, Tiered: true,
				EarliestOffset: 0, LocalStartOffset: 300, NextOffset: 900,
				TieredNextOffset: 320, LocalSegments: 2, LocalBytes: 4096,
				TieredSegments: 5, TieredBytes: 65536, TieredRecords: 320,
			}},
		}},
	}},
	{"00000001000874656e616e742d61", &DescribeQuotasRequest{Principals: []string{"tenant-a"}}},
	{"000000000001000874656e616e742d61000000000010000000000000002000000000000000000032", &DescribeQuotasResponse{
		Err: ErrNone,
		Entries: []QuotaEntry{
			{Principal: "tenant-a", ProduceBytesPerSec: 1 << 20, FetchBytesPerSec: 2 << 20, RequestsPerSec: 50},
		},
	}},
	{"00000002000874656e616e742d6100000000000000000000000000000000000000000000000a00000874656e616e742d6200000000000000000000000000000000000000000000000001", &AlterQuotasRequest{
		Ops: []AlterQuotaOp{
			{Entry: QuotaEntry{Principal: "tenant-a", RequestsPerSec: 10}},
			{Entry: QuotaEntry{Principal: "tenant-b"}, Remove: true},
		},
	}},
	{"00000002000874656e616e742d610000000874656e616e742d620010", &AlterQuotasResponse{Results: []TopicResult{{Name: "tenant-a"}, {Name: "tenant-b", Err: ErrInvalidRequest}}}},
	{"000d6f72646572732d777269746572", &InitProducerRequest{Name: "orders-writer"}},
	{"0000000000020000000000000004", &InitProducerResponse{Err: ErrNone, ProducerID: 1 << 33, Epoch: 4}},
}

func TestMessageRoundTrips(t *testing.T) {
	for _, tc := range goldenCases {
		var w Writer
		tc.msg.Encode(&w)
		if got := hex.EncodeToString(w.Bytes()); got != tc.hex {
			t.Errorf("%T encodes to\n %s\nwant\n %s", tc.msg, got, tc.hex)
		}
		roundTrip(t, tc.msg, reflect.New(reflect.TypeOf(tc.msg).Elem()).Interface().(Message))
	}
}

// TestGoldenCoversEveryMessage holds goldenCases to the whole protocol: the
// request body of every API, its response and the request header.
func TestGoldenCoversEveryMessage(t *testing.T) {
	have := map[string]bool{}
	for _, tc := range goldenCases {
		have[reflect.TypeOf(tc.msg).Elem().Name()] = true
	}
	apiCount := 0
	for k := range apis {
		body, ok := NewRequestBody(APIKey(k))
		if !ok {
			continue
		}
		apiCount++
		req := reflect.TypeOf(body).Elem().Name()
		resp := strings.TrimSuffix(req, "Request") + "Response"
		if !have[req] || !have[resp] {
			t.Errorf("API %v: golden case for %s: %v, for %s: %v", APIKey(k), req, have[req], resp, have[resp])
		}
	}
	if !have["RequestHeader"] || len(have) != 2*apiCount+1 {
		t.Errorf("golden cases cover %d types, want %d messages and the request header", len(have), 2*apiCount)
	}
}

func TestRequestEnvelope(t *testing.T) {
	hdr := RequestHeader{API: APIProduce, CorrelationID: 7, ClientID: "test"}
	body := &MetadataRequest{Topics: []string{"x"}}
	payload := EncodeRequest(&hdr, body)
	gotHdr, r, err := DecodeRequest(payload)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if gotHdr != hdr {
		t.Fatalf("header = %+v, want %+v", gotHdr, hdr)
	}
	var gotBody MetadataRequest
	gotBody.Decode(r)
	if err := r.Done(); err != nil {
		t.Fatalf("body decode: %v", err)
	}
	if !reflect.DeepEqual(&gotBody, body) {
		t.Fatalf("body = %+v", gotBody)
	}
}

func TestResponseEnvelope(t *testing.T) {
	payload := EncodeResponse(99, &HeartbeatResponse{Err: ErrNone})
	id, r, err := DecodeResponse(payload)
	if err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if id != 99 {
		t.Fatalf("correlation id = %d", id)
	}
	var resp HeartbeatResponse
	resp.Decode(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRequestBodyCoversAllAPIs(t *testing.T) {
	for _, api := range []APIKey{
		APIProduce, APIFetch, APIListOffsets, APIMetadata, APICreateTopics,
		APIDeleteTopics, APIOffsetCommit, APIOffsetFetch, APIFindCoordinator,
		APIJoinGroup, APIHeartbeat, APILeaveGroup, APISyncGroup, APIOffsetQuery,
		APITierStatus, APIDescribeQuotas, APIAlterQuotas, APITableGet,
		APITableRange, APIInitProducer,
	} {
		if _, ok := NewRequestBody(api); !ok {
			t.Errorf("NewRequestBody(%d) not implemented", api)
		}
	}
	if _, ok := NewRequestBody(APIKey(99)); ok {
		t.Error("unknown API key should not resolve")
	}
}

func TestErrorCodes(t *testing.T) {
	if ErrNone.Err() != nil {
		t.Fatal("ErrNone.Err() should be nil")
	}
	err := ErrNotLeaderForPartition.Err()
	if err == nil || Code(err) != ErrNotLeaderForPartition {
		t.Fatalf("code round trip failed: %v", err)
	}
	if Code(nil) != ErrNone {
		t.Fatal("Code(nil) != ErrNone")
	}
	if !ErrNotLeaderForPartition.Retriable() {
		t.Fatal("NotLeader should be retriable")
	}
	if ErrOffsetOutOfRange.Retriable() {
		t.Fatal("OffsetOutOfRange should not be retriable")
	}
	if ErrorCode(999).String() == "" {
		t.Fatal("unknown code should still render")
	}
}

// TestIdempotentProduceCodeClassification pins the client-visible contract
// of the idempotent-produce codes, through the same Code() unwrapping the
// client applies to wrapped errors: ErrDuplicateSequence is
// success-equivalent (the retry's records are already in the log — the
// producer takes the returned base offset as its ack and MUST NOT resend),
// while ErrOutOfOrderSequence and ErrFencedEpoch are terminal — resending
// cannot recover a lost predecessor batch or un-fence a zombie epoch.
func TestIdempotentProduceCodeClassification(t *testing.T) {
	cases := []struct {
		code      ErrorCode
		retriable bool
		terminal  bool // delivery failed for good; the producer must re-init
	}{
		{ErrDuplicateSequence, false, false}, // success-equivalent, not a failure at all
		{ErrOutOfOrderSequence, false, true},
		{ErrFencedEpoch, false, true},
		// Contrast rows: the codes the produce retry loop does spin on.
		{ErrNotLeaderForPartition, true, false},
		{ErrLeaderNotAvailable, true, false},
	}
	for _, tc := range cases {
		if got := tc.code.Retriable(); got != tc.retriable {
			t.Errorf("%v.Retriable() = %v, want %v", tc.code, got, tc.retriable)
		}
		// The client sees these codes through wrapped errors; Code must
		// recover them through %w chains.
		wrapped := fmt.Errorf("client: produce t/0: %w", tc.code.Err())
		if got := Code(wrapped); got != tc.code {
			t.Errorf("Code(wrapped %v) = %v", tc.code, got)
		}
		if tc.terminal && (tc.code.Retriable() || tc.code == ErrNone) {
			t.Errorf("%v classified terminal but retriable", tc.code)
		}
	}
}

// TestQuickStringRoundTrip property-checks string codec over arbitrary
// content including NULs and invalid UTF-8.
func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 1<<15-1 {
			s = s[:1<<15-1]
		}
		var w Writer
		w.String(s)
		r := NewReader(w.Bytes())
		got := r.String()
		return got == s && r.Done() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickProduceRequestRoundTrip property-checks a nested message type.
func TestQuickProduceRequestRoundTrip(t *testing.T) {
	f := func(acks int16, topic string, part int32, records []byte) bool {
		in := &ProduceRequest{
			RequiredAcks: acks,
			Topics: []ProduceTopic{{
				Name:       topic,
				Partitions: []ProducePartition{{Partition: part, Records: records}},
			}},
		}
		if len(topic) > 1000 {
			return true
		}
		var w Writer
		in.Encode(&w)
		out := &ProduceRequest{}
		r := NewReader(w.Bytes())
		out.Decode(r)
		return r.Done() == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaMessageRoundTrips(t *testing.T) {
	roundTrip(t, &DescribeQuotasRequest{Principals: []string{"tenant-a", "tenant-b"}}, &DescribeQuotasRequest{})
	roundTrip(t, &DescribeQuotasResponse{
		Entries: []QuotaEntry{
			{Principal: "tenant-a", ProduceBytesPerSec: 1 << 20, FetchBytesPerSec: 4 << 20, RequestsPerSec: 100},
			{Principal: "tenant-b", RequestsPerSec: 10},
		},
	}, &DescribeQuotasResponse{})
	roundTrip(t, &AlterQuotasRequest{
		Ops: []AlterQuotaOp{
			{Entry: QuotaEntry{Principal: "tenant-a", ProduceBytesPerSec: 1 << 20}},
			{Entry: QuotaEntry{Principal: "tenant-b"}, Remove: true},
		},
	}, &AlterQuotasRequest{})
	roundTrip(t, &AlterQuotasResponse{
		Results: []TopicResult{{Name: "tenant-a"}, {Name: "", Err: ErrInvalidRequest}},
	}, &AlterQuotasResponse{})
}

func TestTierMessageRoundTrips(t *testing.T) {
	roundTrip(t, &TierStatusRequest{Topics: []string{"events", "logs"}}, &TierStatusRequest{})
	roundTrip(t, &TierStatusResponse{
		Topics: []TierStatusTopic{{
			Name: "events",
			Partitions: []TierStatusPartition{{
				Partition:        2,
				Err:              ErrNotLeaderForPartition,
				Tiered:           true,
				EarliestOffset:   7,
				LocalStartOffset: 4000,
				NextOffset:       9000,
				TieredNextOffset: 4200,
				LocalSegments:    3,
				LocalBytes:       1 << 20,
				TieredSegments:   40,
				TieredBytes:      9 << 20,
				TieredRecords:    123456,
			}},
		}},
	}, &TierStatusResponse{})
	roundTrip(t, &CreateTopicsRequest{Topics: []TopicSpec{{
		Name:              "tiered",
		NumPartitions:     4,
		ReplicationFactor: 3,
		RetentionMs:       -1,
		RetentionBytes:    1 << 40,
		SegmentBytes:      1 << 20,
		Tiered:            true,
		HotRetentionMs:    3600_000,
		HotRetentionBytes: 64 << 20,
	}}}, &CreateTopicsRequest{})
}
