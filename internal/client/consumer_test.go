package client

import (
	"fmt"
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
