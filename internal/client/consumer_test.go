package client

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage/record"
	"repro/internal/wire"
)

// One fetch is decoded once, into a slice sized once: four partitions of
// flate batches, each requested from the middle of a batch, come back as
// exactly the records at or after the requested offsets, in order, in a
// slice whose capacity is the count in the batch headers — allocated once,
// handed through Poll uncopied — not whatever doubling would have reached.
func TestPollDecodesIntoSliceSizedFromBatchHeaders(t *testing.T) {
	const (
		partitions = 4
		batches    = 5
		perBatch   = 40
	)
	start := [partitions]int64{70, 41, 0, 199} // mid-batch, just past a boundary, on one, the last record

	// Each partition's log: batches of perBatch records from offset 0. A
	// fetch at offset o is answered, as a broker would, from the start of
	// the batch holding o.
	var logs [partitions][batches][]byte
	for p := range logs {
		for b := range logs[p] {
			recs := make([]record.Record, perBatch)
			for i := range recs {
				off := b*perBatch + i
				recs[i] = record.Record{
					Timestamp: 1,
					Key:       []byte(fmt.Sprintf("p%d", p)),
					Value:     []byte(fmt.Sprintf("p%d-o%d", p, off)),
				}
			}
			sealed, err := record.Compress(record.EncodeBatch(int64(b*perBatch), recs), record.CodecFlate)
			if err != nil {
				t.Fatal(err)
			}
			logs[p][b] = sealed
		}
	}
	f := startFakeBroker(t)
	f.partitions = partitions
	f.fetch = func(req *wire.FetchRequest) *wire.FetchResponse {
		resp := &wire.FetchResponse{}
		for _, rt := range req.Topics {
			out := wire.FetchRespTopic{Name: rt.Name}
			for _, rp := range rt.Partitions {
				var data []byte
				for b := int(rp.Offset) / perBatch; b < batches; b++ {
					data = append(data, logs[rp.Partition][b]...)
				}
				out.Partitions = append(out.Partitions, wire.FetchRespPartition{
					Partition: rp.Partition, HighWatermark: batches * perBatch, Records: data,
				})
			}
			resp.Topics = append(resp.Topics, out)
		}
		return resp
	}

	c, err := New(Config{Bootstrap: []string{f.addr}, MetadataTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cons := NewConsumer(c, ConsumerConfig{})
	defer cons.Close()
	inHeaders, wantLen := 0, 0
	for p, off := range start {
		if err := cons.Assign("t", int32(p), off); err != nil {
			t.Fatal(err)
		}
		inHeaders += (batches - int(off)/perBatch) * perBatch
		wantLen += batches*perBatch - int(off)
	}

	msgs, err := cons.Poll(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != wantLen || cap(msgs) != inHeaders {
		t.Fatalf("Poll returned len %d cap %d, want len %d (records at or after the requested offsets) cap %d (records in the batch headers)",
			len(msgs), cap(msgs), wantLen, inHeaders)
	}
	next := start
	for _, m := range msgs {
		if m.Offset != next[m.Partition] {
			t.Fatalf("partition %d: got offset %d, want %d", m.Partition, m.Offset, next[m.Partition])
		}
		if want := fmt.Sprintf("p%d-o%d", m.Partition, m.Offset); string(m.Value) != want || string(m.Key) != fmt.Sprintf("p%d", m.Partition) {
			t.Fatalf("partition %d offset %d: key %q value %q, want value %q", m.Partition, m.Offset, m.Key, m.Value, want)
		}
		if cap(m.Value) != len(m.Value) || cap(m.Key) != len(m.Key) {
			t.Fatalf("partition %d offset %d: value cap %d len %d, key cap %d len %d: fields must be capacity-clipped",
				m.Partition, m.Offset, cap(m.Value), len(m.Value), cap(m.Key), len(m.Key))
		}
		next[m.Partition]++
	}
	for p := range next {
		if next[p] != batches*perBatch || cons.Position("t", int32(p)) != batches*perBatch {
			t.Fatalf("partition %d: delivered to %d, position %d, want %d", p, next[p], cons.Position("t", int32(p)), batches*perBatch)
		}
	}
}

// A partition whose payload fails to decode contributes nothing: the
// messages already appended for earlier partitions stay, none of its own do,
// and its position does not move.
func TestDecodeFetchedErrorLeavesEarlierPartitionsIntact(t *testing.T) {
	good := record.EncodeBatch(0, []record.Record{{Value: []byte("a")}, {Value: []byte("b")}})
	bad := append(append([]byte(nil), good...), good...)
	bad[len(bad)-1] ^= 1 // second batch fails its CRC after the first decoded

	out, next, err := decodeFetched(nil, "t", 0, good, 0)
	if err != nil || len(out) != 2 || next != 2 {
		t.Fatalf("good payload: %d messages, next %d, %v", len(out), next, err)
	}
	out, next, err = decodeFetched(out, "t", 1, bad, 0)
	if err == nil || len(out) != 2 || next != 0 {
		t.Fatalf("corrupt payload: %d messages, next %d, %v; want the 2 earlier messages, next 0 and an error", len(out), next, err)
	}
	if out[0].Partition != 0 || out[1].Partition != 0 {
		t.Fatalf("earlier partition's messages were overwritten: %+v", out)
	}
}

// PollBatches hands out the log's batches verbatim, CRC-checked and never
// inflated: only the batch straddling the requested offset is re-sealed,
// over its records at or after it, and the position advances past the last
// batch. A batch failing its CRC fails its partition and leaves it where it
// was.
func TestPollBatchesResealsOnlyTheStraddle(t *testing.T) {
	const batches, perBatch, start = 4, 10, 13
	var logged [][]byte
	for b := range batches {
		recs := make([]record.Record, perBatch)
		for i := range recs {
			recs[i] = record.Record{Timestamp: int64(b*perBatch + i + 1), Value: []byte(fmt.Sprintf("o%d", b*perBatch+i))}
		}
		sealed, err := record.Compress(record.EncodeBatch(int64(b*perBatch), recs), record.CodecFlate)
		if err != nil {
			t.Fatal(err)
		}
		logged = append(logged, sealed)
	}
	var corrupt atomic.Bool
	f := startFakeBroker(t)
	f.fetch = func(req *wire.FetchRequest) *wire.FetchResponse {
		rp := req.Topics[0].Partitions[0]
		var data []byte
		for b := int(rp.Offset) / perBatch; b < batches; b++ {
			data = append(data, logged[b]...)
		}
		if corrupt.Load() {
			data[len(data)-1] ^= 0xFF
		}
		return &wire.FetchResponse{Topics: []wire.FetchRespTopic{{Name: req.Topics[0].Name, Partitions: []wire.FetchRespPartition{
			{Partition: rp.Partition, HighWatermark: batches * perBatch, Records: data},
		}}}}
	}
	c, err := New(Config{Bootstrap: []string{f.addr}, MetadataTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cons := NewConsumer(c, ConsumerConfig{})
	defer cons.Close()
	if err := cons.Assign("t", 0, start); err != nil {
		t.Fatal(err)
	}

	corrupt.Store(true)
	if got, err := cons.PollBatches(time.Second); err == nil || len(got) != 0 || cons.Position("t", 0) != start {
		t.Fatalf("corrupt fetch: %d batches, position %d, err %v; want none, %d and an error", len(got), cons.Position("t", 0), err, start)
	}
	corrupt.Store(false)
	got, err := cons.PollBatches(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != batches-start/perBatch || cons.Position("t", 0) != batches*perBatch {
		t.Fatalf("got %d batches, position %d; want %d, %d", len(got), cons.Position("t", 0), batches-start/perBatch, batches*perBatch)
	}
	first := got[0]
	if first.Info.BaseOffset != start || first.Info.LastOffset != 2*perBatch-1 || first.Info.RecordCount != 2*perBatch-start {
		t.Fatalf("straddle re-sealed as %+v, want offsets [%d, %d]", first.Info, start, 2*perBatch-1)
	}
	b, _, err := record.DecodeBatch(first.Data)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range b.Records {
		if off := int64(start + i); r.Offset != off || string(r.Value) != fmt.Sprintf("o%d", off) || r.Timestamp != off+1 {
			t.Fatalf("re-sealed record %d = %v, want offset %d", i, r, off)
		}
	}
	for i, g := range got[1:] {
		if want := logged[start/perBatch+1+i]; !bytes.Equal(g.Data, want) || g.Topic != "t" || g.Partition != 0 {
			t.Fatalf("batch %d is not the log's batch verbatim", i+1)
		}
	}
}
