package broker_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// rawConn dials a dedicated wire connection to the leader of topic/0.
func rawConn(t *testing.T, c *client.Client, topic string) *client.Conn {
	t.Helper()
	leader, err := c.LeaderFor(topic, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.DialDedicated(leader)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// rawProduce sends one sealed payload to topic/0 and returns the assigned
// base offset.
func rawProduce(t *testing.T, conn *client.Conn, topic string, payload []byte) (int64, wire.ErrorCode) {
	t.Helper()
	var resp wire.ProduceResponse
	err := conn.RoundTrip(wire.APIProduce, &wire.ProduceRequest{
		RequiredAcks: 1,
		TimeoutMs:    5000,
		Topics: []wire.ProduceTopic{{
			Name:       topic,
			Partitions: []wire.ProducePartition{{Partition: 0, Records: payload}},
		}},
	}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	p := resp.Topics[0].Partitions[0]
	return p.BaseOffset, p.Err
}

// rawFetch pulls raw stored bytes from topic/0 at offset, optionally as a
// follower (replicaID >= 0 reads beyond the high watermark).
func rawFetch(t *testing.T, conn *client.Conn, topic string, offset int64, replicaID int32) []byte {
	t.Helper()
	var resp wire.FetchResponse
	err := conn.RoundTrip(wire.APIFetch, &wire.FetchRequest{
		ReplicaID: replicaID,
		MaxWaitMs: 1000,
		MinBytes:  1,
		MaxBytes:  1 << 20,
		Topics: []wire.FetchTopic{{
			Name:       topic,
			Partitions: []wire.FetchPartition{{Partition: 0, Offset: offset, MaxBytes: 1 << 20}},
		}},
	}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	p := resp.Topics[0].Partitions[0]
	if p.Err != wire.ErrNone {
		t.Fatalf("fetch error: %v", p.Err.Err())
	}
	// Records aliases the connection's frame buffer; copy before the next
	// round trip on this conn.
	return append([]byte(nil), p.Records...)
}

func sealedBatch(t *testing.T, codec record.Codec, base int, values ...string) []byte {
	t.Helper()
	recs := make([]record.Record, len(values))
	for i, v := range values {
		recs[i] = record.Record{Timestamp: int64(base + i + 1), Value: []byte(v)}
	}
	sealed, err := record.Compress(record.EncodeBatch(0, recs), codec)
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// TestCompressedBatchStoredAndServedByteIdentical is the zero-recompression
// contract: the broker stores a producer's compressed batch with only its
// base offset restamped, and serves the same bytes to consumers and
// followers.
func TestCompressedBatchStoredAndServedByteIdentical(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "sealed", 1, 1)
	conn := rawConn(t, c, "sealed")

	b1 := sealedBatch(t, record.CodecFlate, 0, "alpha", "beta", "gamma")
	b2 := sealedBatch(t, record.CodecFlate, 3, strings32())
	if base, code := rawProduce(t, conn, "sealed", b1); base != 0 || code != wire.ErrNone {
		t.Fatalf("produce b1: base=%d err=%v", base, code)
	}
	if base, code := rawProduce(t, conn, "sealed", b2); base != 3 || code != wire.ErrNone {
		t.Fatalf("produce b2: base=%d err=%v", base, code)
	}

	// The expected stored form is the produced bytes with the assigned
	// base offset stamped in — nothing else may change.
	want1 := append([]byte(nil), b1...)
	record.RestampBase(want1, 0)
	want2 := append([]byte(nil), b2...)
	record.RestampBase(want2, 3)
	want := append(append([]byte(nil), want1...), want2...)

	got := rawFetch(t, conn, "sealed", 0, -1)
	if !bytes.Equal(got, want) {
		t.Fatalf("consumer fetch returned %dB != produced %dB (recompression or rewrite happened)", len(got), len(want))
	}
	// Followers replicate through the same read path; their fetch must see
	// the identical bytes (this is what AppendBatch stores verbatim on the
	// follower's log).
	gotF := rawFetch(t, conn, "sealed", 0, 99)
	if !bytes.Equal(gotF, want) {
		t.Fatal("follower fetch differs from produced bytes")
	}
}

// strings32 returns one compressible 32-byte-ish value.
func strings32() string {
	return "delta-delta-delta-delta-delta-32"
}

// TestCorruptCompressedProduceRejected flips a byte inside a compressed
// batch: the broker must reject it with a corrupt-message error, not store
// it.
func TestCorruptCompressedProduceRejected(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "corrupt", 1, 1)
	conn := rawConn(t, c, "corrupt")

	bad := sealedBatch(t, record.CodecFlate, 0, "payload-payload-payload")
	bad[len(bad)-2] ^= 0xFF
	if _, code := rawProduce(t, conn, "corrupt", bad); code != wire.ErrCorruptMessage {
		t.Fatalf("corrupt produce accepted: err=%v", code)
	}
	// Nothing may have been stored.
	if got := rawFetch(t, conn, "corrupt", 0, 99); len(got) != 0 {
		t.Fatalf("corrupt batch was stored: %dB readable", len(got))
	}
}

// TestCompressedReplicationByteIdentical produces compressed batches with
// acks=all on an RF=2 topic and asserts the leader's and follower's
// partition logs are byte-for-byte identical on disk.
func TestCompressedReplicationByteIdentical(t *testing.T) {
	tc := startCluster(t, 2)
	c := tc.newClient(t)
	createTopic(t, c, "mirrored", 1, 2)

	p := client.NewProducer(c, client.ProducerConfig{
		Acks:  client.AcksAll,
		Codec: client.CodecFlate,
	})
	defer p.Close()
	for i := 0; i < 20; i++ {
		if _, err := p.SendSync(client.Message{
			Topic: "mirrored",
			Value: bytes.Repeat([]byte(fmt.Sprintf("value-%d-", i)), 64),
		}); err != nil {
			t.Fatalf("produce %d: %v", i, err)
		}
	}

	// acks=all means the full ISR has every batch; compare the two
	// brokers' on-disk partition logs.
	read := func(dir string) []byte {
		var all []byte
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".log" {
				continue
			}
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		a := read(filepath.Join(tc.dataDirs[0], "mirrored-0"))
		b := read(filepath.Join(tc.dataDirs[1], "mirrored-0"))
		if len(a) > 0 && bytes.Equal(a, b) {
			// Both replicas hold compressed batches, verbatim.
			codec, err := record.PeekCodec(a)
			if err != nil || codec != record.CodecFlate {
				t.Fatalf("stored batch codec = %v, %v", codec, err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica logs never converged: leader %dB follower %dB", len(a), len(b))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestMixedCodecTopic interleaves uncompressed and flate batches on
// one partition — the shape of a topic whose producers enabled compression
// at different times — and consumes them back in order.
func TestMixedCodecTopic(t *testing.T) {
	tc := startCluster(t, 1)
	c := tc.newClient(t)
	createTopic(t, c, "mixed", 1, 1)

	codecs := []client.Codec{client.CodecNone, client.CodecFlate}
	var want []string
	for round := 0; round < 3; round++ {
		p := client.NewProducer(c, client.ProducerConfig{Codec: codecs[round%len(codecs)]})
		for i := 0; i < 10; i++ {
			v := fmt.Sprintf("round-%d-msg-%d", round, i)
			want = append(want, v)
			if err := p.Send(client.Message{Topic: "mixed", Value: []byte(v)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}

	cons := client.NewConsumer(c, client.ConsumerConfig{})
	defer cons.Close()
	if err := cons.Assign("mixed", 0, client.StartEarliest); err != nil {
		t.Fatal(err)
	}
	var got []string
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < len(want) && time.Now().Before(deadline) {
		msgs, err := cons.Poll(200 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if m.Offset != int64(len(got)) {
				t.Fatalf("offset %d out of order (want %d)", m.Offset, len(got))
			}
			got = append(got, string(m.Value))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("consumed %d/%d messages", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("msg %d = %q, want %q", i, got[i], want[i])
		}
	}
}
