package broker

import (
	"testing"

	"repro/internal/storage/log"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// A follower's high watermark trails the leader's by a fetch round. When it
// is elected, ListOffsets latest must not answer that trailing value, which
// would move the committed end backwards: until its own high watermark
// reaches its log end at election, the new leader answers the retriable
// ErrLeaderNotAvailable (KIP-207).
func TestListOffsetsLatestNeverGoesBackAcrossHandOver(t *testing.T) {
	l, err := log.Open(t.TempDir(), log.Config{})
	if err != nil {
		t.Fatal(err)
	}
	part := tp{topic: "ho", partition: 0}
	r := newReplica(part, l, 2)
	defer r.close()
	b := &Broker{replicas: map[tp]*replica{part: r}}
	latest := func() wire.ListOffsetsRespPartition {
		resp := b.handleListOffsets(&wire.ListOffsetsRequest{Topics: []wire.ListOffsetsTopic{{
			Name:       part.topic,
			Partitions: []wire.ListOffsetsPartition{{Partition: 0, Timestamp: wire.TimestampLatest}},
		}}})
		return resp.Topics[0].Partitions[0]
	}

	// Broker 2 follows broker 1 and holds offsets 0-9, but learned only HW
	// 4. The old leader had since published HW 7 when it died.
	if err := r.becomeFollower(1, 1, 1); err != nil {
		t.Fatal(err)
	}
	recs := make([]record.Record, 10)
	for i := range recs {
		recs[i] = record.Record{Timestamp: int64(i), Value: []byte("v")}
	}
	if err := r.appendAsFollower(record.EncodeBatch(0, recs), 4, 1); err != nil {
		t.Fatal(err)
	}
	const oldHW = 7

	r.becomeLeader(2, []int32{1, 2, 3}, []int32{2, 3}, 2)
	check := func(step string, wantOffset int64) {
		t.Helper()
		p := latest()
		switch {
		case wantOffset < 0 && (p.Err != wire.ErrLeaderNotAvailable || !p.Err.Retriable()):
			t.Errorf("%s: ListOffsets latest = %d, %v; want retriable %v", step, p.Offset, p.Err, wire.ErrLeaderNotAvailable)
		case wantOffset >= 0 && (p.Err != wire.ErrNone || p.Offset != wantOffset):
			t.Errorf("%s: ListOffsets latest = %d, %v; want %d", step, p.Offset, p.Err, wantOffset)
		}
		if p.Err == wire.ErrNone && p.Offset < oldHW {
			t.Errorf("%s: ListOffsets latest = %d, below the old leader's HW %d", step, p.Offset, oldHW)
		}
	}
	check("elected, follower 3 not fetched", -1)
	r.onFollowerFetch(3, 8, clockBase)
	check("HW 8, below the epoch start 10", -1)
	r.onFollowerFetch(3, 10, clockBase)
	check("HW at the epoch start", 10)
}
