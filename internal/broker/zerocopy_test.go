package broker

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
	"repro/internal/tier"
	"repro/internal/wire"
)

// These tests hold replica.read — the one read path behind consumer
// fetches, follower fetches, table materialization and offsets replay — to
// a reference model that walks the raw segment bytes: same guard outcomes
// and byte-identical payloads across codecs, segment boundaries, mid-batch
// offsets, both views and every high-watermark position.

// sealedBatch producer-encodes vals as one batch under codec, exactly like
// a client produce request.
func sealedBatch(t *testing.T, codec record.Codec, vals ...string) []byte {
	t.Helper()
	recs := make([]record.Record, len(vals))
	for i, v := range vals {
		recs[i] = record.Record{Key: []byte(fmt.Sprintf("k-%s", v)), Value: []byte(v), Timestamp: int64(i + 1)}
	}
	sealed, err := record.Compress(record.EncodeBatch(0, recs), codec)
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// leaderReplica builds a leader replica (broker 1, follower 2 in the ISR, so
// the high watermark starts at 0 and moves only with onFollowerFetch) over a
// fresh log with small segments.
func leaderReplica(t *testing.T, cfg log.Config) *replica {
	t.Helper()
	l, err := log.Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := newReplica(tp{topic: "rd", partition: 0}, l, 1)
	t.Cleanup(func() { r.close() })
	r.becomeLeader(1, []int32{1, 2}, []int32{1, 2}, 1)
	return r
}

// appendBatches appends n 3-record batches cycling through all codecs, so
// reads cross segment boundaries, compressed bodies and mid-batch offsets.
func appendBatches(t *testing.T, r *replica, n int) {
	t.Helper()
	codecs := []record.Codec{record.CodecNone, record.CodecFlate}
	for i := 0; i < n; i++ {
		b := sealedBatch(t, codecs[i%len(codecs)],
			fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i))
		if _, _, _, code := r.appendSealedAsLeader([][]byte{b}, 1); code != wire.ErrNone {
			t.Fatalf("append %d: %v", i, code)
		}
	}
}

// refBatch is one stored batch as the reference model sees it.
type refBatch struct {
	last    int64
	segment int
	data    []byte
}

// refBatches walks every segment's raw bytes into the hot log's batch list.
func refBatches(t *testing.T, l *log.Log) []refBatch {
	t.Helper()
	var out []refBatch
	for si, seg := range l.Segments() {
		data, err := l.ReadSegment(seg.BaseOffset)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) > 0 {
			info, err := record.PeekBatchInfo(data)
			if err != nil {
				t.Fatalf("segment %d: %v", seg.BaseOffset, err)
			}
			out = append(out, refBatch{last: info.LastOffset, segment: si, data: data[:info.Length]})
			data = data[info.Length:]
		}
	}
	return out
}

// refRead is the specification read implements on the hot log: whole
// batches from the first one ending at or beyond offset, within one
// segment, up to maxBytes but at least one batch, all ending below bound.
// nil means caught up; an empty non-nil slice means the first batch is not
// visible yet.
func refRead(batches []refBatch, offset int64, maxBytes int, bound int64) []byte {
	if offset >= bound {
		return nil
	}
	for i, first := range batches {
		if first.last < offset {
			continue
		}
		out := []byte{}
		for _, b := range batches[i:] {
			if b.segment != first.segment || b.last >= bound || (len(out) > 0 && len(out)+len(b.data) > maxBytes) {
				break
			}
			out = append(out, b.data...)
		}
		return out
	}
	return nil
}

// assertRead holds one read to the reference model's outcome.
func assertRead(t *testing.T, r *replica, batches []refBatch, offset int64, maxBytes int, view readView) {
	t.Helper()
	what := fmt.Sprintf("view %d offset %d maxBytes %d hw %d", view, offset, maxBytes, r.highWatermark())
	start, end, hw := r.log.StartOffset(), r.log.NextOffset(), r.highWatermark()
	res, code := r.read(offset, maxBytes, view)
	got, err := res.bytes()
	if err != nil {
		t.Fatalf("%s: materialize: %v", what, err)
	}
	if res.hw != hw || res.earliest != start {
		t.Fatalf("%s: hw=%d earliest=%d, want %d/%d", what, res.hw, res.earliest, hw, start)
	}
	if offset < start || offset > end {
		if code != wire.ErrOffsetOutOfRange || got != nil {
			t.Fatalf("%s: code=%v bytes=%d, want out-of-range", what, code, len(got))
		}
		return
	}
	bound := hw
	if view == viewReplication {
		bound = end
	}
	want := refRead(batches, offset, maxBytes, bound)
	if code != wire.ErrNone {
		t.Fatalf("%s: code=%v", what, code)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: nil-ness diverges: got nil=%v want nil=%v", what, got == nil, want == nil)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: payload diverges: got %d bytes, want %d", what, len(got), len(want))
	}
}

func TestReadMatchesSegmentWalk(t *testing.T) {
	r := leaderReplica(t, log.Config{SegmentBytes: 1 << 10})
	appendBatches(t, r, 12)
	end := r.log.NextOffset()
	batches := refBatches(t, r.log)
	if len(r.log.Segments()) < 2 {
		t.Fatal("log did not roll; segment boundaries not exercised")
	}
	// HW positions: nothing committed, inside the first batch, on a batch
	// boundary, mid-log inside a batch, everything committed. The follower's
	// fetch offset is what moves it.
	for _, hw := range []int64{0, 1, 3, 16, end} {
		r.onFollowerFetch(2, hw, clockBase)
		if got := r.highWatermark(); got != hw {
			t.Fatalf("hw = %d, want %d", got, hw)
		}
		for _, view := range []readView{viewCommitted, viewReplication} {
			for offset := int64(-1); offset <= end+1; offset++ {
				for _, maxBytes := range []int{1, 100, 700, 1 << 20} {
					assertRead(t, r, batches, offset, maxBytes, view)
				}
			}
		}
	}
}

func TestReadFirstBatchNotYetCommitted(t *testing.T) {
	// A follower stuck mid-batch pins the high watermark inside the first
	// batch: consumers see an empty but present record set (a zero-length
	// range, not "caught up"), followers see the data.
	r := leaderReplica(t, log.Config{})
	appendBatches(t, r, 2)
	r.onFollowerFetch(2, 1, clockBase) // hw = 1: mid-batch
	res, code := r.read(0, 1<<20, viewCommitted)
	if code != wire.ErrNone || res.rng == nil || res.rng.Len() != 0 {
		t.Fatalf("committed read below a straddling batch: code=%v rng=%v", code, res.rng)
	}
	res.rng.Close()
	// At the high watermark itself the consumer is caught up: no range.
	if res, code := r.read(1, 1<<20, viewCommitted); code != wire.ErrNone || res.rng != nil || res.hw != 1 {
		t.Fatalf("caught-up read: code=%v rng=%v hw=%d", code, res.rng, res.hw)
	}
	res, code = r.read(0, 1<<20, viewReplication)
	if code != wire.ErrNone || res.rng == nil || res.rng.Len() == 0 {
		t.Fatalf("replication read: code=%v rng=%v", code, res.rng)
	}
	res.rng.Close()
}

func TestReadGuardsLeadershipAndClose(t *testing.T) {
	r := leaderReplica(t, log.Config{})
	appendBatches(t, r, 1)
	if err := r.becomeFollower(2, 2, 2); err != nil {
		t.Fatal(err)
	}
	for _, view := range []readView{viewCommitted, viewReplication} {
		if res, code := r.read(0, 1<<20, view); code != wire.ErrNotLeaderForPartition || res.rng != nil {
			t.Fatalf("follower read: code=%v", code)
		}
	}
	r.close()
	for _, view := range []readView{viewCommitted, viewReplication} {
		if res, code := r.read(0, 1<<20, view); code != wire.ErrBrokerNotAvailable || res.rng != nil {
			t.Fatalf("closed read: code=%v", code)
		}
	}
}

func TestReadSplicedFrameBytes(t *testing.T) {
	// The wire contract: a response frame carrying spliced file ranges is
	// byte-identical to the frame encoding the same batches from memory —
	// including a multi-partition response mixing spliced, empty and absent
	// record sets.
	r := leaderReplica(t, log.Config{SegmentBytes: 1 << 10})
	appendBatches(t, r, 12)
	end := r.log.NextOffset()
	r.onFollowerFetch(2, end, clockBase)
	batches := refBatches(t, r.log)

	spliced := &wire.FetchResponse{Topics: []wire.FetchRespTopic{{Name: "rd"}}}
	buffered := &wire.FetchResponse{Topics: []wire.FetchRespTopic{{Name: "rd"}}}
	for _, offset := range []int64{0, 5, end} { // base, mid-batch, caught-up
		res, code := r.read(offset, 700, viewCommitted)
		p := wire.FetchRespPartition{Partition: int32(offset), Err: code, HighWatermark: res.hw, LogStartOffset: res.earliest}
		q := p
		if res.rng != nil {
			p.RecordsRange = res.rng
		}
		q.Records = refRead(batches, offset, 700, end)
		spliced.Topics[0].Partitions = append(spliced.Topics[0].Partitions, p)
		buffered.Topics[0].Partitions = append(buffered.Topics[0].Partitions, q)
	}
	defer closeFetchRanges(spliced)
	var got, want bytes.Buffer
	if err := wire.WriteResponseFrame(&got, 42, spliced); err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteResponseFrame(&want, 42, buffered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("frames diverge: spliced %d bytes, buffered %d bytes", got.Len(), want.Len())
	}

	// And the spliced frame must decode like any other fetch response.
	rd := wire.NewReader(got.Bytes()[4:]) // skip the length prefix
	if corr := rd.Int32(); corr != 42 {
		t.Fatalf("correlation = %d", corr)
	}
	var decoded wire.FetchResponse
	decoded.Decode(rd)
	if err := rd.Err(); err != nil {
		t.Fatalf("decode spliced frame: %v", err)
	}
	parts := decoded.Topics[0].Partitions
	if len(parts) != 3 {
		t.Fatalf("decoded %d partitions, want 3", len(parts))
	}
	if len(parts[0].Records) == 0 || len(parts[1].Records) == 0 {
		t.Fatal("spliced partitions decoded without records")
	}
	if parts[2].Records != nil {
		t.Fatal("caught-up partition decoded non-nil records")
	}
}

func TestReadColdThroughSameFunction(t *testing.T) {
	// Offload sealed segments to the cold tier and expire them locally: a
	// committed read below the local start is served by the tier through the
	// same function, the replication view stays hot-only, and hot offsets
	// keep resolving to ranges.
	r := leaderReplica(t, log.Config{SegmentBytes: 4 << 10, Tiered: true, RetentionMs: -1, RetentionBytes: 1})
	appendBatches(t, r, 150)
	l := r.log
	r.onFollowerFetch(2, l.NextOffset(), clockBase)
	fs, err := dfs.Open(dfs.Config{Dir: filepath.Join(t.TempDir(), "tierfs")})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	p, err := tier.Open(fs, "rd", 0, tier.Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Offload(l, r.highWatermark()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.EnforceRetention(time.Now()); err != nil {
		t.Fatal(err)
	}
	r.setTier(p)
	start := l.StartOffset()
	if start == 0 {
		t.Fatal("retention kept everything local; cold path not reachable")
	}

	// Cold offset, committed view: bytes from the tier, earliest is tiered.
	res, code := r.read(0, 2048, viewCommitted)
	if code != wire.ErrNone || res.rng != nil || len(res.cold) == 0 || res.earliest != 0 {
		t.Fatalf("cold read: code=%v rng=%v bytes=%d earliest=%d", code, res.rng, len(res.cold), res.earliest)
	}
	next := int64(0)
	if err := record.ScanRecords(res.cold, func(rec record.Record) error {
		if rec.Offset != next {
			return fmt.Errorf("cold record offset %d, want %d", rec.Offset, next)
		}
		next++
		return nil
	}); err != nil || next == 0 {
		t.Fatalf("cold payload: %d records, err %v", next, err)
	}
	// Below even the tier: out of range, naming the tiered earliest.
	if res, code := r.read(-1, 2048, viewCommitted); code != wire.ErrOffsetOutOfRange || res.earliest != 0 {
		t.Fatalf("below-tier read: code=%v earliest=%d", code, res.earliest)
	}
	// Followers replicate only the hot log: the same offset is out of range
	// for them, and their earliest is the local start.
	if res, code := r.read(0, 2048, viewReplication); code != wire.ErrOffsetOutOfRange || res.earliest != start {
		t.Fatalf("replication read below local start: code=%v earliest=%d, want out-of-range/%d", code, res.earliest, start)
	}

	// Hot offsets still match the segment walk in both views.
	batches := refBatches(t, l)
	for _, view := range []readView{viewCommitted, viewReplication} {
		res, code := r.read(start, 2048, view)
		got, err := res.bytes()
		if code != wire.ErrNone || err != nil || res.rng == nil {
			t.Fatalf("hot read view %d: code=%v err=%v rng=%v", view, code, err, res.rng)
		}
		if want := refRead(batches, start, 2048, l.NextOffset()); !bytes.Equal(got, want) {
			t.Fatalf("hot read view %d: got %d bytes, want %d", view, len(got), len(want))
		}
	}
}

func TestReadConcurrentAppendServe(t *testing.T) {
	// Readers in both views race a leader append loop and a follower that
	// keeps advancing the high watermark: every result must be whole,
	// contiguous batches starting at the batch holding the wanted offset, and
	// the committed view must never expose an offset at or above the high
	// watermark observed after the read (it only grows).
	r := leaderReplica(t, log.Config{SegmentBytes: 2 << 10})
	const total = 200
	sealed := make([][]byte, total)
	for i := range sealed {
		sealed[i] = sealedBatch(t, record.CodecNone, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, b := range sealed {
			if _, _, _, code := r.appendSealedAsLeader([][]byte{b}, 1); code != wire.ErrNone {
				t.Errorf("append %d: %v", i, code)
				return
			}
			if i%3 == 0 {
				r.onFollowerFetch(2, r.log.NextOffset()-3, clockBase)
			}
		}
	}()

	var wg sync.WaitGroup
	for _, view := range []readView{viewCommitted, viewReplication} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			offset := int64(0)
			for offset < 3*total {
				select {
				case <-done:
					if view == viewCommitted && offset >= r.highWatermark() {
						return
					}
				default:
				}
				res, code := r.read(offset, 300, view)
				data, err := res.bytes()
				if code != wire.ErrNone || err != nil {
					t.Errorf("view %d offset %d: code=%v err=%v", view, offset, code, err)
					return
				}
				for len(data) > 0 {
					info, err := record.CheckBatch(data)
					if err != nil || info.BaseOffset > offset || info.LastOffset < offset {
						t.Errorf("view %d offset %d: batch %+v err %v", view, offset, info, err)
						return
					}
					if view == viewCommitted && info.LastOffset >= r.highWatermark() {
						t.Errorf("offset %d served above the high watermark", info.LastOffset)
						return
					}
					offset = info.LastOffset + 1
					data = data[info.Length:]
				}
			}
		}()
	}
	wg.Wait()
	<-done
}
