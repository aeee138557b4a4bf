package tier

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
)

// openTestLog builds a tiered log with small segments and appends n records
// ("v-%05d" payloads), returning the log.
func openTestLog(t *testing.T, dir string, n int) *log.Log {
	t.Helper()
	l, err := log.Open(dir, log.Config{
		SegmentBytes: 4 << 10,
		Tiered:       true,
		RetentionMs:  -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append([]record.Record{{
			Key:   []byte(fmt.Sprintf("k-%05d", i)),
			Value: []byte(fmt.Sprintf("v-%05d", i)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func openTestFS(t testing.TB) *dfs.FS {
	t.Helper()
	fs, err := dfs.Open(dfs.Config{Dir: filepath.Join(t.TempDir(), "tierfs")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func TestOffloadAndColdRead(t *testing.T) {
	const n = 500
	l := openTestLog(t, t.TempDir(), n)
	defer l.Close()
	if l.SegmentCount() < 3 {
		t.Fatalf("want several segments, got %d", l.SegmentCount())
	}
	fs := openTestFS(t)
	p, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	hw := l.NextOffset()
	up, err := p.Offload(l, hw)
	if err != nil {
		t.Fatal(err)
	}
	if up != l.SegmentCount()-1 {
		t.Fatalf("offloaded %d segments, want %d (all sealed)", up, l.SegmentCount()-1)
	}
	segs := l.Segments()
	frontier := segs[len(segs)-1].BaseOffset // active segment's base
	if got := p.NextOffset(); got != frontier {
		t.Fatalf("offload frontier %d, want %d", got, frontier)
	}
	if got := l.OffloadedTo(); got != frontier {
		t.Fatalf("offload guard %d, want %d", got, frontier)
	}
	if e, ok := p.Earliest(); !ok || e != 0 {
		t.Fatalf("tiered earliest = %d,%v; want 0,true", e, ok)
	}

	// Read everything tiered back through the cold path and verify
	// offsets and values.
	assertColdOnce(t, p)

	// Above the frontier the hot log owns the offsets.
	if _, err := p.Read(frontier, 2048); !errors.Is(err, ErrNotCovered) {
		t.Fatalf("read at frontier: %v, want ErrNotCovered", err)
	}
}

func TestOffloadSkipsUncommitted(t *testing.T) {
	l := openTestLog(t, t.TempDir(), 300)
	defer l.Close()
	fs := openTestFS(t)
	p, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With the high watermark pinned at 0 (no replication ack yet),
	// nothing may be offloaded.
	if up, err := p.Offload(l, 0); err != nil || up != 0 {
		t.Fatalf("offload below hw: %d,%v; want 0,nil", up, err)
	}
	// A watermark mid-segment keeps that segment hot.
	segs := l.Segments()
	hw := segs[1].BaseOffset + 1 // one record into the second segment
	up, err := p.Offload(l, hw)
	if err != nil {
		t.Fatal(err)
	}
	if up != 1 {
		t.Fatalf("offloaded %d segments, want 1 (only the first is fully below hw)", up)
	}
	if got := p.NextOffset(); got != segs[1].BaseOffset {
		t.Fatalf("frontier %d, want %d", got, segs[1].BaseOffset)
	}
}

// TestOffloadRecoversAcrossReopen proves the manifest is the source of
// truth: a fresh engine (a new leader) resumes from the committed frontier
// and never duplicates a tiered offset, even though its own log holds the
// same batches under different roll points, so one of its segments
// straddles the frontier.
func TestOffloadRecoversAcrossReopen(t *testing.T) {
	batches := sealedBatches(t, 60, 5)
	l1 := openSealedLog(t, t.TempDir(), 4<<10, batches)
	defer l1.Close()
	fs := openTestFS(t)
	p1, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	segs := l1.Segments()
	// Offload only the first two segments, as if the leader died mid-way.
	if _, err := p1.Offload(l1, segs[2].BaseOffset); err != nil {
		t.Fatal(err)
	}
	frontier := p1.NextOffset()

	l2 := openSealedLog(t, t.TempDir(), 3<<10, batches)
	defer l2.Close()
	straddles := false
	for _, s := range l2.Segments() {
		straddles = straddles || (s.BaseOffset < frontier && frontier < s.NextOffset)
	}
	if !straddles {
		t.Fatalf("no segment of the second log straddles frontier %d; pick other roll points", frontier)
	}
	p2, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.NextOffset(); got != frontier {
		t.Fatalf("recovered frontier %d, want %d", got, frontier)
	}
	if _, err := p2.Offload(l2, l2.NextOffset()); err != nil {
		t.Fatal(err)
	}
	assertContiguous(t, fs, p2)
	assertColdOnce(t, p2)
}

// assertColdOnce reads every tiered offset back through the cold path and
// fails on a gap, a duplicate or a wrong value.
func assertColdOnce(t *testing.T, p *Partition) {
	t.Helper()
	next, end := p.manifest().StartOffset, p.NextOffset()
	for next < end {
		data, err := p.Read(next, 2048)
		if err != nil {
			t.Fatalf("cold read at %d: %v", next, err)
		}
		from := next
		err = record.ScanRecords(data, func(r record.Record) error {
			if r.Offset < next {
				return nil // leading records of the covering batch
			}
			if r.Offset != next {
				return fmt.Errorf("offset %d, want %d (gap or duplicate)", r.Offset, next)
			}
			if want := fmt.Sprintf("v-%05d", r.Offset); string(r.Value) != want {
				return fmt.Errorf("offset %d value %q, want %q", r.Offset, r.Value, want)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if next == from {
			t.Fatalf("cold read at %d returned no new records", from)
		}
	}
}

// assertContiguous verifies the manifest's segments are gapless,
// duplicate-free, and exactly match the committed files on the DFS.
func assertContiguous(t *testing.T, fs *dfs.FS, p *Partition) {
	t.Helper()
	man := p.manifest()
	want := man.StartOffset
	for _, s := range man.Segments {
		if s.BaseOffset != want {
			t.Fatalf("segment %s starts at %d, want %d (gap or duplicate)", s.Path, s.BaseOffset, want)
		}
		if s.Records != s.LastOffset-s.BaseOffset+1 {
			t.Fatalf("segment %s record count %d != offset span %d", s.Path, s.Records, s.LastOffset-s.BaseOffset+1)
		}
		want = s.LastOffset + 1
	}
	if man.NextOffset != want {
		t.Fatalf("NextOffset %d, want %d", man.NextOffset, want)
	}
	inManifest := make(map[string]bool, len(man.Segments))
	for _, s := range man.Segments {
		inManifest[s.Path] = true
	}
	for _, info := range fs.List(SegmentsPrefix(p.cfg.Root, p.topic)) {
		if pn, _, _, ok := parseSegmentPath(info.Path); ok && pn == p.partition && !inManifest[info.Path] {
			t.Fatalf("orphan segment on DFS: %s", info.Path)
		}
	}
}

// The idempotent producer identity the sealed test batches carry.
const (
	testPID   int64 = 7
	testEpoch int32 = 2
)

// sealedBatches builds n flate-sealed batches of per records each ("v-%05d"
// values, numbered from 0), stamped by an idempotent producer: the shape a
// compressing, idempotent client hands the leader.
func sealedBatches(t testing.TB, n, per int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		recs := make([]record.Record, per)
		for j := range recs {
			o := i*per + j
			recs[j] = record.Record{
				Timestamp: 1_000 + int64(o),
				Key:       []byte(fmt.Sprintf("k-%05d", o)),
				Value:     []byte(fmt.Sprintf("v-%05d", o)),
			}
		}
		b, err := record.Compress(record.EncodeBatch(0, recs), record.CodecFlate)
		if err != nil {
			t.Fatal(err)
		}
		if err := record.StampProducer(b, testPID, testEpoch, int64(i*per)); err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// openSealedLog opens a tiered log rolling at segmentBytes and appends the
// batches through AppendSealed, as a leader stores a produce.
func openSealedLog(t testing.TB, dir string, segmentBytes int64, batches [][]byte) *log.Log {
	t.Helper()
	l, err := log.Open(dir, log.Config{SegmentBytes: segmentBytes, Tiered: true, RetentionMs: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := l.AppendSealed(append([]byte(nil), b...)); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestColdReadIsHotBytes pins the one-container contract: a cold read
// returns the bytes the hot segment held, so the producer's codec, its
// idempotence stamps and the batch CRC survive offload.
func TestColdReadIsHotBytes(t *testing.T) {
	l := openSealedLog(t, t.TempDir(), 2<<10, sealedBatches(t, 40, 8))
	defer l.Close()
	fs := openTestFS(t)
	p, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Offload(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	segs := l.Segments()
	if len(segs) < 3 || p.NextOffset() != segs[len(segs)-1].BaseOffset {
		t.Fatalf("frontier %d over %d segments; want every sealed segment tiered", p.NextOffset(), len(segs))
	}
	for _, s := range segs[:len(segs)-1] {
		hot, err := l.ReadSegment(s.BaseOffset)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := p.Read(s.BaseOffset, len(hot))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold, hot) {
			t.Fatalf("segment %d: cold read is not the hot segment's bytes (%d vs %d bytes)", s.BaseOffset, len(cold), len(hot))
		}
		// One batch at a time, from an offset inside it.
		for pos := 0; pos < len(hot); {
			info, err := record.PeekBatchInfo(hot[pos:])
			if err != nil {
				t.Fatal(err)
			}
			one, err := p.Read(info.LastOffset, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(one, hot[pos:pos+info.Length]) {
				t.Fatalf("cold read at %d is not the hot batch [%d, %d]", info.LastOffset, info.BaseOffset, info.LastOffset)
			}
			got, err := record.CheckBatch(one)
			if err != nil {
				t.Fatalf("cold batch [%d, %d]: %v", info.BaseOffset, info.LastOffset, err)
			}
			if codec, _ := record.PeekCodec(one); codec != record.CodecFlate {
				t.Fatalf("cold batch [%d, %d] codec %v, want flate", info.BaseOffset, info.LastOffset, codec)
			}
			if got.ProducerID != testPID || got.ProducerEpoch != testEpoch || got.BaseSequence != info.BaseOffset {
				t.Fatalf("cold batch [%d, %d] producer %d/%d/%d, want %d/%d/%d", info.BaseOffset, info.LastOffset,
					got.ProducerID, got.ProducerEpoch, got.BaseSequence, testPID, testEpoch, info.BaseOffset)
			}
			pos += info.Length
		}
	}
	assertColdOnce(t, p)
}

// TestOffloadRefusesStraddlingFrontier: a frontier inside a batch can only
// mean corruption (replicas share batch boundaries), so the offload fails
// before uploading anything and the manifest stays as it was.
func TestOffloadRefusesStraddlingFrontier(t *testing.T) {
	l := openSealedLog(t, t.TempDir(), 2<<10, sealedBatches(t, 40, 5))
	defer l.Close()
	fs := openTestFS(t)
	if err := commitManifest(fs, "/tier", &Manifest{Topic: "feed", Partition: 0, NextOffset: 3}); err != nil {
		t.Fatal(err)
	}
	p, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if up, err := p.Offload(l, l.NextOffset()); err == nil || up != 0 {
		t.Fatalf("offload across a straddled frontier: %d segments, err %v; want 0 and an error", up, err)
	}
	if files := fs.List(SegmentsPrefix("/tier", "feed")); len(files) != 0 {
		t.Fatalf("refused offload left %d files, first %s", len(files), files[0].Path)
	}
	man, err := LoadManifest(fs, "/tier", "feed", 0)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 1 || man.NextOffset != 3 || len(man.Segments) != 0 {
		t.Fatalf("manifest changed: seq %d, frontier %d, %d segments", man.Seq, man.NextOffset, len(man.Segments))
	}
	if got := l.OffloadedTo(); got != 0 {
		t.Fatalf("offload guard %d, want 0", got)
	}
}

func TestColdRetentionAdvancesTierStart(t *testing.T) {
	l := openTestLog(t, t.TempDir(), 500)
	defer l.Close()
	fs := openTestFS(t)
	p, err := Open(fs, "feed", 0, Config{TotalRetentionBytes: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Offload(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	before := p.TierStats()
	if before.Segments < 2 {
		t.Fatalf("want >= 2 cold segments, got %d", before.Segments)
	}
	// A 1-byte total horizon expires every cold segment.
	dropped, err := p.EnforceRetention(time.Now(), l.Size())
	if err != nil {
		t.Fatal(err)
	}
	if dropped != before.Segments {
		t.Fatalf("dropped %d, want %d", dropped, before.Segments)
	}
	if _, ok := p.Earliest(); ok {
		t.Fatal("cold tier should be empty after retention")
	}
	st := p.TierStats()
	if st.StartOffset != st.NextOffset {
		t.Fatalf("empty tier start %d != frontier %d", st.StartOffset, st.NextOffset)
	}
	// The files are gone too.
	for _, info := range fs.List(SegmentsPrefix(p.cfg.Root, "feed")) {
		if _, _, _, ok := parseSegmentPath(info.Path); ok {
			t.Fatalf("cold segment file survived retention: %s", info.Path)
		}
	}
	// Reads below the tier start are gone for good.
	if _, err := p.Read(0, 1024); !errors.Is(err, ErrNotCovered) && !errors.Is(err, ErrOffsetBelowTier) {
		t.Fatalf("read of expired offset: %v", err)
	}
}

func TestOffsetForTimestamp(t *testing.T) {
	dir := t.TempDir()
	l, err := log.Open(dir, log.Config{SegmentBytes: 2 << 10, Tiered: true, RetentionMs: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	base := time.Now().UnixMilli()
	for i := 0; i < 200; i++ {
		if _, err := l.Append([]record.Record{{
			Timestamp: base + int64(i)*1000,
			Value:     []byte(fmt.Sprintf("v-%05d", i)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	fs := openTestFS(t)
	p, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Offload(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	off, ok, err := p.OffsetForTimestamp(base + 42*1000)
	if err != nil || !ok || off != 42 {
		t.Fatalf("OffsetForTimestamp = %d,%v,%v; want 42,true,nil", off, ok, err)
	}
	// A timestamp beyond every tiered record defers to the hot log.
	if _, ok, err := p.OffsetForTimestamp(base + 10_000*1000); err != nil || ok {
		t.Fatalf("future timestamp resolved in cold tier: ok=%v err=%v", ok, err)
	}
}

func TestCacheEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCache(1<<10, reg) // tiny: every reader evicts the previous one
	mk := func(name string, size int) func() (*segReader, error) {
		return func() (*segReader, error) {
			return &segReader{path: name, data: make([]byte, size)}, nil
		}
	}
	if _, err := c.get("a", mk("a", 800)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.get("b", mk("b", 800)); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.Stats(); n != 1 {
		t.Fatalf("cache holds %d readers, want 1 after eviction", n)
	}
	if got := reg.Counter("tier.cache.evict").Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// A re-get of the evicted reader is a miss and reloads.
	if _, err := c.get("a", mk("a", 100)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("tier.cache.miss").Value(); got != 3 {
		t.Fatalf("misses = %d, want 3", got)
	}
}
