package tier

import (
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

func openTestFS(t *testing.T) *dfs.FS {
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
	// offsets, keys and values survive the LIQARCH2 round trip.
	var next int64
	for next < frontier {
		data, err := p.Read(next, 2048)
		if err != nil {
			t.Fatalf("cold read at %d: %v", next, err)
		}
		got := 0
		err = record.ScanRecords(data, func(r record.Record) error {
			if r.Offset < next {
				return nil // leading records of the covering batch
			}
			if want := fmt.Sprintf("v-%05d", r.Offset); string(r.Value) != want {
				return fmt.Errorf("offset %d value %q, want %q", r.Offset, r.Value, want)
			}
			next = r.Offset + 1
			got++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got == 0 {
			t.Fatalf("cold read at %d returned no new records", next)
		}
	}

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
// and never duplicates a tiered offset, even when its local segment
// boundaries straddle the frontier.
func TestOffloadRecoversAcrossReopen(t *testing.T) {
	l := openTestLog(t, t.TempDir(), 400)
	defer l.Close()
	fs := openTestFS(t)
	p1, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	segs := l.Segments()
	// Offload only the first two segments, as if the leader died mid-way.
	if _, err := p1.Offload(l, segs[2].BaseOffset); err != nil {
		t.Fatal(err)
	}
	frontier := p1.NextOffset()

	p2, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.NextOffset(); got != frontier {
		t.Fatalf("recovered frontier %d, want %d", got, frontier)
	}
	if _, err := p2.Offload(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	assertContiguous(t, fs, p2)
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
