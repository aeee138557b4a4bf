package broker

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/state"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
	"repro/internal/table"
	"repro/internal/wire"
)

// offsetsLeader opens a one-replica offsets-topic partition for group "g",
// led by this broker, on a fresh log in dir.
func offsetsLeader(t *testing.T, b *Broker, dir string) (*replica, int32) {
	t.Helper()
	l, err := log.Open(dir, log.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opart := groupPartition("g", b.cfg.OffsetsPartitions)
	r := newReplica(tp{topic: OffsetsTopic, partition: opart}, l, 1)
	t.Cleanup(func() { r.close() })
	r.becomeLeader(1, []int32{1}, []int32{1}, 1)
	b.replicas = map[tp]*replica{r.tp: r}
	return r, opart
}

// loadWithin runs the offset manager's load and fails the test if it has
// not returned by the deadline.
func loadWithin(t *testing.T, o *offsetManager, opart int32, r *replica, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		o.load(opart, r)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("offsetManager.load still running after %v", d)
	}
}

// TestOffsetsLoadStopsAtCorruptBatch: a batch of the offsets topic whose CRC
// fails must stop load, not spin it. The partition is then led but
// unloaded — its groups get the retriable ErrCoordinatorNotAvailable — and
// the failure is logged and counted.
func TestOffsetsLoadStopsAtCorruptBatch(t *testing.T) {
	now := clockBase
	b := clockBroker(&now)
	var logs bytes.Buffer
	b.logger = slog.New(slog.NewTextHandler(&logs, nil))
	b.offsets = newOffsetManager(b)
	dir := t.TempDir()
	r, opart := offsetsLeader(t, b, dir)
	loadWithin(t, b.offsets, opart, r, 5*time.Second)
	for i := int64(0); i < 3; i++ {
		if code := b.offsets.commit("g", "t", 0, 10+i, "meta"); code != wire.ErrNone {
			t.Fatalf("commit %d: %v", i, code)
		}
	}

	// Flip one byte inside the last batch of the segment file.
	seg := filepath.Join(dir, fmt.Sprintf("%020d.log", 0))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	if err := record.WalkBatches(raw, func(pos int, _ record.BatchInfo) error {
		last = pos
		return nil
	}); err != nil || last < 0 {
		t.Fatalf("walk segment: last batch at %d, %v", last, err)
	}
	raw[last+recordsAt] ^= 0x40 // its first record, under its CRC
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	b.offsets.unload(opart)
	loadWithin(t, b.offsets, opart, r, 5*time.Second)

	b.offsets.mu.Lock()
	st, led := b.offsets.byPart[opart]
	b.offsets.mu.Unlock()
	if !led || st != nil {
		t.Fatalf("byPart[%d] = %v (present %v), want led but unloaded (nil)", opart, st, led)
	}
	if n := b.cfg.Metrics.Counter("broker.offsets.load_failures").Value(); n != 1 {
		t.Fatalf("broker.offsets.load_failures = %d, want 1", n)
	}
	wantLog := fmt.Sprintf("partition=%d offset=2", opart)
	if out := logs.String(); !strings.Contains(out, "level=ERROR") || !strings.Contains(out, wantLog) {
		t.Fatalf("load failure log does not name %q:\n%s", wantLog, out)
	}
	if code := b.offsets.commit("g", "t", 0, 20, "meta"); code != wire.ErrCoordinatorNotAvailable {
		t.Fatalf("commit on an unloaded partition = %v, want ErrCoordinatorNotAvailable", code)
	}
	if _, _, code := b.offsets.fetch("g", "t", 0); code != wire.ErrCoordinatorNotAvailable {
		t.Fatalf("fetch on an unloaded partition = %v, want ErrCoordinatorNotAvailable", code)
	}
	q := b.offsets.query(&wire.OffsetQueryRequest{Group: "g", Topic: "t", AnnotationKey: "@timestamp", AnnotationValue: "0"})
	if q.Err != wire.ErrCoordinatorNotAvailable {
		t.Fatalf("query on an unloaded partition = %v, want ErrCoordinatorNotAvailable", q.Err)
	}
}

// The record package's batch layout: the CRC-32C at byte crcAt covers
// everything from byte crcFrom on, and the records start at byte recordsAt.
const crcAt, crcFrom, recordsAt = 32, 36, 62

// fixCRC recomputes the CRC of a (possibly garbled) batch in place.
func fixCRC(b []byte) {
	binary.BigEndian.PutUint32(b[crcAt:], crc32.Checksum(b[crcFrom:], crc32.MakeTable(crc32.Castagnoli)))
}

// foldLog encodes batches of offsets-topic records: keys are offset keys,
// values checkpoint histories, and each batch after the first rewrites one
// key of the batch before and deletes another. Batch garbled is CRC-valid
// but its last record does not parse (its header count runs past the
// batch). It returns the batches and their base offsets.
func foldLog(t *testing.T, codec record.Codec, n, garbled int) ([][]byte, []int64) {
	t.Helper()
	var batches [][]byte
	var bases []int64
	base := int64(0)
	for i := 0; i < n; i++ {
		var recs []record.Record
		for j := 0; j < 4; j++ {
			k := offsetKey{group: "g", topic: "t", partition: int32(i + j)}
			v := fmt.Appendf(nil, `[{"offset":%d,"metadata":"b%d","committedAt":1}]`, 100*i+j, i)
			recs = append(recs, record.Record{Key: k.encode(), Value: v, Timestamp: 1})
		}
		if i > 0 {
			recs = append(recs, record.Record{Key: offsetKey{group: "g", topic: "t", partition: int32(i - 1)}.encode(), Timestamp: 1})
		}
		batch := record.EncodeBatch(base, recs)
		if i == garbled {
			binary.BigEndian.PutUint32(batch[len(batch)-4:], 0x7fffffff)
			fixCRC(batch)
		}
		batch, err := record.Compress(batch, codec)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, batch)
		bases = append(bases, base)
		base += int64(len(recs))
	}
	return batches, bases
}

// referenceFold is the changelog rule applied by hand to whole decoded
// batches: latest value per key, a nil value deletes.
func referenceFold(t *testing.T, batches [][]byte) map[string]string {
	t.Helper()
	m := make(map[string]string)
	for _, raw := range batches {
		b, _, err := record.DecodeBatch(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Records {
			if r.Value == nil {
				delete(m, string(r.Key))
			} else {
				m[string(r.Key)] = string(r.Value)
			}
		}
	}
	return m
}

// storeContents reads every pair of a store or table partition.
func storeContents(t *testing.T, rng func(from, to []byte, fn func(k, v []byte) bool) error) map[string]string {
	t.Helper()
	m := make(map[string]string)
	if err := rng(nil, nil, func(k, v []byte) bool {
		m[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFoldAppliesBatchWholeOrNotAtAll holds the three consumers of the
// changelog fold — state.ApplyBatches itself, a table partition and the
// offset manager's load — to one rule over a log whose batch k is CRC-valid
// but holds a record that does not parse: each ends with exactly batches
// 0..k-1 applied (the offset manager, which must not serve a partial log,
// with nothing published), none with the records of batch k before the
// garbled one.
func TestFoldAppliesBatchWholeOrNotAtAll(t *testing.T) {
	const n = 5
	for _, codec := range []record.Codec{record.CodecNone, record.CodecFlate} {
		for _, k := range []int{0, n / 2, n - 1} {
			t.Run(fmt.Sprintf("%s/k=%d", codec, k), func(t *testing.T) {
				batches, bases := foldLog(t, codec, n, k)
				want := referenceFold(t, batches[:k])
				data := bytes.Join(batches, nil)

				mem := state.NewMem()
				next, _, err := state.ApplyBatches(mem, data, 0)
				if err == nil || next != bases[k] {
					t.Fatalf("fold: next %d, err %v; want batch %d's base %d and an error", next, err, k, bases[k])
				}
				if got := storeContents(t, mem.Range); !maps.Equal(got, want) {
					t.Fatalf("fold: store %v, want batches 0..%d: %v", got, k-1, want)
				}

				now := clockBase
				b := clockBroker(&now)
				b.logger = slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
				b.offsets = newOffsetManager(b)
				r, opart := offsetsLeader(t, b, t.TempDir())
				_, ack, _, code := r.appendSealedAsLeader(batches, -1)
				if code != wire.ErrNone || <-ack != wire.ErrNone {
					t.Fatalf("append: %v", code)
				}

				p := table.NewPartition(replicaSource{r: r}, state.NewMem())
				defer p.Close()
				deadline := time.Now().Add(5 * time.Second)
				for p.Err() == nil && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if p.Err() == nil {
					t.Fatal("table: no failure within 5s")
				}
				if applied, _ := p.Freshness(); applied != bases[k] {
					t.Errorf("table: applied %d, want batch %d's base %d", applied, k, bases[k])
				}
				if got := storeContents(t, p.Range); !maps.Equal(got, want) {
					t.Errorf("table: store %v, want batches 0..%d: %v", got, k-1, want)
				}

				loadWithin(t, b.offsets, opart, r, 5*time.Second)
				if st, led := b.offsets.byPart[opart]; !led || st != nil {
					t.Fatalf("offsets: published %v (present %v), want nothing", st, led)
				}
			})
		}
	}
}
