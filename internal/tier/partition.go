package tier

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dfs"
	"repro/internal/metrics"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
)

// Partition is one partition's tier engine, owned by the partition's
// current leader. It offloads sealed local segments to the DFS, serves
// reads below the local log start from the cold tier, and enforces the
// total (tiered) retention horizon. The manifest it commits is the source
// of truth: a new leader opens the partition and recovers the exact tier
// state, sweeping any orphan segment a crashed predecessor left between
// upload and commit.
type Partition struct {
	fs        *dfs.FS
	cfg       Config
	topic     string
	partition int32
	cache     *Cache
	reg       *metrics.Registry

	mu  sync.Mutex
	man *Manifest // treated as immutable; replaced wholesale on commit
}

// Stats is a point-in-time summary of one partition's cold tier.
type Stats struct {
	Segments    int
	Records     int64
	Bytes       int64
	StartOffset int64 // earliest tiered offset (== NextOffset when empty)
	NextOffset  int64 // offload frontier
}

// Open loads the partition's tier manifest and sweeps orphans — segment
// files a crashed leader renamed into place before committing the manifest,
// and stray .tmp files. Orphans start at or beyond NextOffset, exactly the
// range the new leader will re-offload from its own log, so sweeping them
// is what guarantees no duplicate tiered segments after recovery.
func Open(fs *dfs.FS, topic string, partition int32, cfg Config, cache *Cache, reg *metrics.Registry) (*Partition, error) {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if cache == nil {
		cache = NewCache(0, reg)
	}
	man, err := LoadManifest(fs, cfg.Root, topic, partition)
	if err != nil {
		return nil, err
	}
	for _, info := range fs.List(SegmentsPrefix(cfg.Root, topic)) {
		if trimmed := strings.TrimSuffix(info.Path, ".tmp"); trimmed != info.Path {
			if p, _, _, ok := parseSegmentPath(trimmed); ok && p == partition {
				_ = fs.Delete(info.Path)
			}
			continue
		}
		p, base, _, ok := parseSegmentPath(info.Path)
		if ok && p == partition && base >= man.NextOffset {
			_ = fs.Delete(info.Path)
		}
	}
	return &Partition{
		fs: fs, cfg: cfg, topic: topic, partition: partition,
		cache: cache, reg: reg,
		man: man,
	}, nil
}

// manifest snapshots the current (immutable) manifest.
func (p *Partition) manifest() *Manifest {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.man
}

// NextOffset returns the offload frontier: every offset below it is tiered.
func (p *Partition) NextOffset() int64 { return p.manifest().NextOffset }

// Earliest returns the earliest tiered offset; ok is false when the cold
// tier holds no segments (nothing has been offloaded, or total retention
// deleted everything).
func (p *Partition) Earliest() (int64, bool) {
	m := p.manifest()
	if len(m.Segments) == 0 {
		return 0, false
	}
	return m.StartOffset, true
}

// TierStats summarises the cold tier for status APIs and the admin tool.
func (p *Partition) TierStats() Stats {
	m := p.manifest()
	s := Stats{
		Segments:    len(m.Segments),
		Records:     m.Records(),
		Bytes:       m.Bytes(),
		StartOffset: m.NextOffset,
		NextOffset:  m.NextOffset,
	}
	if len(m.Segments) > 0 {
		s.StartOffset = m.StartOffset
	}
	return s
}

// Offload uploads every sealed local segment fully below the high watermark
// and not yet tiered, committing the manifest after each segment and
// raising the log's offload guard so hot retention may delete the local
// copy. It returns the number of segments uploaded. Records already tiered
// (a new leader whose local segment boundaries straddle the frontier) are
// filtered out, so the cold tier never holds an offset twice.
func (p *Partition) Offload(l *log.Log, hw int64) (int, error) {
	uploaded := 0
	for _, s := range l.Segments() {
		if s.Active || s.NextOffset > hw {
			continue // only sealed, fully committed segments are tiered
		}
		man := p.manifest()
		if s.NextOffset <= man.NextOffset {
			// Fully tiered already; raise the guard in case this leader
			// just recovered the manifest.
			l.SetOffloadedTo(man.NextOffset)
			continue
		}
		if err := p.offloadSegment(l, s, man); err != nil {
			return uploaded, err
		}
		uploaded++
	}
	return uploaded, nil
}

// offloadSegment uploads one local segment's batches byte for byte,
// starting at the first batch at or beyond the offload frontier, and
// commits the manifest. Batches wholly below the frontier are skipped. A
// batch straddling it is corruption: replicas append the leader's batches
// verbatim and a tiered topic is never compacted, so every replica shares
// batch boundaries and the frontier always falls on one.
func (p *Partition) offloadSegment(l *log.Log, s log.SegmentInfo, man *Manifest) error {
	raw, err := l.ReadSegment(s.BaseOffset)
	if err != nil {
		return err
	}
	var start int
	var records, maxTS int64
	base, last := int64(-1), int64(-1)
	err = record.WalkBatches(raw, func(pos int, b record.BatchInfo) error {
		switch {
		case b.LastOffset < man.NextOffset && base < 0:
			start = pos + b.Length // already tiered
		case b.BaseOffset < man.NextOffset:
			return fmt.Errorf("batch [%d, %d] straddles the offload frontier %d", b.BaseOffset, b.LastOffset, man.NextOffset)
		default:
			if base < 0 {
				base = b.BaseOffset
			}
			last = b.LastOffset
			records += int64(b.RecordCount)
			maxTS = max(maxTS, b.MaxTimestamp)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("tier: local segment %d of %s/%d: %w", s.BaseOffset, p.topic, p.partition, err)
	}
	if base < 0 {
		return nil
	}
	data := raw[start:]
	final := segmentPath(p.cfg.Root, p.topic, p.partition, base, last)
	tmp := final + ".tmp"
	// Sweep a tmp leftover from a crashed upload of the same range; the
	// final path is never pre-deleted — an existing one means a newer
	// leader owns this range and this instance is stale.
	_ = p.fs.Delete(tmp)
	if err := p.fs.WriteFile(tmp, data); err != nil {
		return err
	}
	if err := p.fs.Rename(tmp, final); err != nil {
		_ = p.fs.Delete(tmp)
		if errors.Is(err, dfs.ErrExists) {
			return fmt.Errorf("%w: segment %s", ErrConflict, final)
		}
		return err
	}
	if p.cfg.OnUploaded != nil {
		// Injected crash between segment upload and manifest commit.
		if err := p.cfg.OnUploaded(final); err != nil {
			return err
		}
	}
	info := SegmentInfo{
		Path:          final,
		BaseOffset:    base,
		LastOffset:    last,
		Records:       records,
		Bytes:         int64(len(data)),
		LastTimestamp: maxTS,
	}
	next := *man
	next.Segments = append(append([]SegmentInfo(nil), man.Segments...), info)
	next.NextOffset = last + 1
	if len(man.Segments) == 0 {
		next.StartOffset = base
	}
	if err := commitManifest(p.fs, p.cfg.Root, &next); err != nil {
		// Withdraw the uploaded segment only when the commit failed for a
		// non-conflict reason (IO): the file is ours and would linger as
		// an orphan. On ErrConflict the file at this path may no longer
		// be ours at all — a newer leader can have swept our upload and
		// re-uploaded the same range to the same path before committing —
		// so deleting it would destroy manifest-referenced cold data.
		if !errors.Is(err, ErrConflict) {
			_ = p.fs.Delete(final)
		}
		return err
	}
	p.mu.Lock()
	p.man = &next
	p.mu.Unlock()
	// Only now may hot retention delete the local copy: the records are
	// durably tiered and the manifest points at them.
	l.SetOffloadedTo(next.NextOffset)
	p.reg.Counter("tier.segments.offloaded").Inc()
	p.reg.Counter("tier.bytes.offloaded").Add(info.Bytes)
	p.reg.Counter("tier.records.offloaded").Add(info.Records)
	return nil
}

// Read serves a cold fetch: whole batches, as the log stored them, starting
// at the batch containing offset, up to maxBytes (at least one batch). It
// returns ErrOffsetBelowTier when total retention already dropped the
// offset and ErrNotCovered when the offset is above the offload frontier
// (the hot log owns it).
func (p *Partition) Read(offset int64, maxBytes int) ([]byte, error) {
	p.mu.Lock()
	man := p.man
	p.mu.Unlock()
	if len(man.Segments) == 0 {
		return nil, ErrNotCovered
	}
	if offset < man.StartOffset {
		return nil, fmt.Errorf("%w: offset %d below tier start %d", ErrOffsetBelowTier, offset, man.StartOffset)
	}
	idx := sort.Search(len(man.Segments), func(i int) bool {
		return man.Segments[i].LastOffset >= offset
	})
	if idx == len(man.Segments) {
		return nil, ErrNotCovered
	}
	info := man.Segments[idx]
	r, err := p.hydrate(info)
	if err != nil {
		return nil, err
	}
	data := r.read(offset, maxBytes)
	if data == nil {
		return nil, ErrNotCovered
	}
	p.reg.Counter("tier.reads.cold").Inc()
	p.reg.Counter("tier.reads.cold.bytes").Add(int64(len(data)))
	return data, nil
}

// hydrate fetches a cold segment through the shared LRU, indexing its
// batches on a miss.
func (p *Partition) hydrate(info SegmentInfo) (*segReader, error) {
	return p.cache.get(info.Path, func() (*segReader, error) {
		raw, err := p.fs.ReadFile(info.Path)
		if err != nil {
			return nil, err
		}
		return buildSegReader(info, raw)
	})
}

// buildSegReader indexes a cold segment file by walking its batch headers;
// nothing is decoded. The file comes from the DFS, so it is refused unless
// every batch is whole, offsets ascend, and they span exactly the manifest's
// [BaseOffset, LastOffset]. CRCs are left to the consumers that decode the
// batches, as on a hot read.
func buildSegReader(info SegmentInfo, raw []byte) (*segReader, error) {
	r := &segReader{path: info.Path, base: info.BaseOffset, last: info.LastOffset, data: raw}
	err := record.WalkBatches(raw, func(pos int, b record.BatchInfo) error {
		if b.LastOffset < b.BaseOffset || len(r.index) > 0 && b.BaseOffset <= r.index[len(r.index)-1].lastOffset {
			return fmt.Errorf("%w: batch [%d, %d] out of order", record.ErrCorrupt, b.BaseOffset, b.LastOffset)
		}
		r.index = append(r.index, batchIdx{firstOffset: b.BaseOffset, lastOffset: b.LastOffset, pos: pos, length: b.Length})
		return nil
	})
	if n := len(r.index); err == nil && (n == 0 || r.index[0].firstOffset != info.BaseOffset || r.index[n-1].lastOffset != info.LastOffset) {
		err = fmt.Errorf("%w: batches do not span [%d, %d]", record.ErrCorrupt, info.BaseOffset, info.LastOffset)
	}
	if err != nil {
		return nil, fmt.Errorf("tier: cold segment %s: %w", info.Path, err)
	}
	return r, nil
}

// OffsetForTimestamp returns the offset of the first tiered record whose
// timestamp is at or after ts; ok is false when no tiered record qualifies
// (the hot log should be consulted instead).
func (p *Partition) OffsetForTimestamp(ts int64) (int64, bool, error) {
	man := p.manifest()
	for _, info := range man.Segments {
		if info.LastTimestamp < ts {
			continue
		}
		r, err := p.hydrate(info)
		if err != nil {
			return 0, false, err
		}
		found, err := record.OffsetForTimestamp(r.data, ts)
		if err != nil {
			return 0, false, err
		}
		if found >= 0 {
			return found, true, nil
		}
	}
	return 0, false, nil
}

// EnforceRetention applies the total (tiered) horizon to the cold tier:
// cold segments older than TotalRetentionMs, or the oldest cold segments
// while hot+cold bytes exceed TotalRetentionBytes, are deleted and the tier
// start offset advances. localBytes is the partition's current hot log
// size. It returns the number of cold segments deleted.
func (p *Partition) EnforceRetention(now time.Time, localBytes int64) (int, error) {
	man := p.manifest()
	nowMs := now.UnixMilli()
	coldBytes := man.Bytes()
	drop := 0
	for drop < len(man.Segments) {
		old := man.Segments[drop]
		expired := p.cfg.TotalRetentionMs > 0 && old.LastTimestamp > 0 &&
			nowMs-old.LastTimestamp > p.cfg.TotalRetentionMs
		oversize := p.cfg.TotalRetentionBytes > 0 && coldBytes+localBytes > p.cfg.TotalRetentionBytes
		if !expired && !oversize {
			break
		}
		coldBytes -= old.Bytes
		drop++
	}
	if drop == 0 {
		return 0, nil
	}
	next := *man
	next.Segments = append([]SegmentInfo(nil), man.Segments[drop:]...)
	if len(next.Segments) > 0 {
		next.StartOffset = next.Segments[0].BaseOffset
	} else {
		next.StartOffset = next.NextOffset
	}
	if err := commitManifest(p.fs, p.cfg.Root, &next); err != nil {
		return 0, err
	}
	p.mu.Lock()
	p.man = &next
	p.mu.Unlock()
	// Delete the files only after the manifest stopped referencing them. A
	// crash between the commit and these deletions leaks unreachable files
	// below the committed tier start; SweepBelowStart (run at the next
	// leadership adoption) reclaims them.
	for i := 0; i < drop; i++ {
		_ = p.fs.Delete(man.Segments[i].Path)
		p.cache.invalidate(man.Segments[i].Path)
		p.reg.Counter("tier.segments.expired").Inc()
	}
	return drop, nil
}

// SweepBelowStart deletes cold segment files below the committed tier start
// (leaked by a crash between a retention commit and its file deletions).
// Best-effort; invoked opportunistically by the broker's housekeeping.
func (p *Partition) SweepBelowStart() {
	man := p.manifest()
	if len(man.Segments) == 0 && man.NextOffset == 0 {
		return
	}
	for _, info := range p.fs.List(SegmentsPrefix(p.cfg.Root, p.topic)) {
		pn, _, last, ok := parseSegmentPath(info.Path)
		if ok && pn == p.partition && last < man.StartOffset {
			_ = p.fs.Delete(info.Path)
			p.cache.invalidate(info.Path)
		}
	}
}
