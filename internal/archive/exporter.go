package archive

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/dfs"
	"repro/internal/storage/record"
)

// exporter drains one feed partition into rolled segment files. It owns the
// partition's manifest: add buffers fetched batches verbatim, roll writes a
// cut of them as one immutable segment (a DFS create commits it at its
// final path) and commits the manifest. The commit order — segment,
// manifest, then offset checkpoint by the caller — means a crash at any
// point leaves the manifest's NextOffset as the exact resume position with
// no record lost or archived twice.
type exporter struct {
	fs        *dfs.FS
	root      string
	topic     string
	partition int32
	cfg       exporterConfig

	man      *Manifest
	buf      []byte             // buffered batches, as the log stored them
	batches  []record.BatchInfo // their headers, in buf order
	records  int                // records in the buffered batches
	openedAt time.Time          // when the first buffered batch arrived
}

// exporterConfig sizes one partition exporter. Segments are cut at batch
// boundaries, so both bounds are met at batch granularity.
type exporterConfig struct {
	segmentBytes   int64 // stored (possibly compressed) batch bytes
	segmentRecords int
	flushAge       time.Duration
	// onSealed is a crash-injection hook for recovery tests: it runs after
	// a segment is committed at its path and before the manifest commit —
	// the exact window a SIGKILL leaves an orphan segment. Returning an
	// error aborts the roll there, reproducing the on-DFS state a crashed
	// archiver leaves behind. Nil in production.
	onSealed func(path string) error
}

// openExporter loads the partition's manifest and removes orphan segments —
// files a crashed exporter committed before committing the manifest.
// Orphans start at or beyond NextOffset, exactly the range the restarted
// exporter will re-export.
func openExporter(fs *dfs.FS, root, topic string, partition int32, cfg exporterConfig) (*exporter, error) {
	man, err := LoadManifest(fs, root, topic, partition)
	if err != nil {
		return nil, err
	}
	for _, info := range fs.List(SegmentsPrefix(root, topic)) {
		p, base, _, ok := parseSegmentPath(info.Path)
		if ok && p == partition && base >= man.NextOffset {
			_ = fs.Delete(info.Path)
		}
	}
	return &exporter{
		fs: fs, root: root, topic: topic, partition: partition,
		cfg: cfg,
		man: man,
	}, nil
}

// nextOffset returns the first feed offset not yet archived or buffered.
func (e *exporter) nextOffset() int64 {
	if n := len(e.batches); n > 0 {
		return e.batches[n-1].LastOffset + 1
	}
	return e.man.NextOffset
}

// add buffers one fetched batch. It refuses a batch that starts below
// nextOffset — a redelivery after a rebalance or a seek, whole or
// straddling — so the caller can realign its consumer at nextOffset, where
// the consumer re-seals a straddling batch; it reports whether the batch
// was accepted.
func (e *exporter) add(b client.Batch) bool {
	if b.Info.BaseOffset < e.nextOffset() {
		return false
	}
	if len(e.batches) == 0 {
		e.openedAt = time.Now()
	}
	e.buf = append(e.buf, b.Data...)
	e.batches = append(e.batches, b.Info)
	e.records += b.Info.RecordCount
	return true
}

// shouldRoll reports whether the buffer crossed a size, count, or age
// threshold.
func (e *exporter) shouldRoll() bool {
	if len(e.batches) == 0 {
		return false
	}
	if e.cfg.segmentBytes > 0 && int64(len(e.buf)) >= e.cfg.segmentBytes {
		return true
	}
	if e.cfg.segmentRecords > 0 && e.records >= e.cfg.segmentRecords {
		return true
	}
	return e.cfg.flushAge > 0 && time.Since(e.openedAt) >= e.cfg.flushAge
}

// cut returns how many buffered batches, and how many bytes, the next
// segment takes: batches up to the first that reaches a size or count
// threshold, or the whole buffer. One poll can buffer several segments'
// worth at once; cutting (rather than swallowing the buffer) keeps segment
// sizes honest.
func (e *exporter) cut() (n, size int) {
	records := 0
	for n < len(e.batches) {
		size += e.batches[n].Length
		records += e.batches[n].RecordCount
		n++
		if e.cfg.segmentBytes > 0 && int64(size) >= e.cfg.segmentBytes ||
			e.cfg.segmentRecords > 0 && records >= e.cfg.segmentRecords {
			break
		}
	}
	return n, size
}

// roll writes the next cut of buffered batches as one immutable segment and
// commits the manifest. It returns the new segment's info; callers then
// checkpoint the offset with annotations recording the mapping, and keep
// rolling while shouldRoll holds.
func (e *exporter) roll() (SegmentInfo, error) {
	if len(e.batches) == 0 {
		return SegmentInfo{}, fmt.Errorf("archive: roll of empty buffer on %s/%d", e.topic, e.partition)
	}
	n, size := e.cut()
	seg := e.batches[:n]
	info := SegmentInfo{
		BaseOffset: seg[0].BaseOffset,
		LastOffset: seg[n-1].LastOffset,
		Bytes:      int64(size),
	}
	for _, b := range seg {
		info.Records += int64(b.RecordCount)
		info.LastTimestamp = max(info.LastTimestamp, b.MaxTimestamp)
	}
	info.Path = segmentPath(e.root, e.topic, e.partition, info.BaseOffset, info.LastOffset)
	// A create refuses an existing path: openExporter already swept our
	// own orphans, so an existing segment means a concurrent exporter owns
	// this range and this instance is stale.
	if err := e.fs.WriteFile(info.Path, e.buf[:size]); err != nil {
		if errors.Is(err, dfs.ErrExists) {
			return SegmentInfo{}, fmt.Errorf("%w: segment %s", ErrManifestConflict, info.Path)
		}
		return SegmentInfo{}, err
	}
	if e.cfg.onSealed != nil {
		// Injected crash between segment seal and manifest commit.
		if err := e.cfg.onSealed(info.Path); err != nil {
			return SegmentInfo{}, err
		}
	}
	// Commit a candidate manifest; the exporter's state only moves if the
	// commit lands, so a failed or conflicted commit leaves it consistent
	// for a retry or a reload.
	next := *e.man
	next.Segments = append(append([]SegmentInfo(nil), e.man.Segments...), info)
	next.NextOffset = info.LastOffset + 1
	if err := commitManifest(e.fs, e.root, &next); err != nil {
		// Withdraw the segment only on a non-conflict failure: after a
		// conflict, the file at this path may be a successor's — it can
		// have swept our (then-orphan) upload and re-rolled the same
		// range to the same path before committing — and deleting it
		// would destroy manifest-referenced data.
		if !errors.Is(err, ErrManifestConflict) {
			_ = e.fs.Delete(info.Path)
		}
		return SegmentInfo{}, err
	}
	e.man = &next
	e.buf = append(e.buf[:0], e.buf[size:]...)
	e.batches = append(e.batches[:0], e.batches[n:]...)
	e.records -= int(info.Records)
	e.openedAt = time.Now()
	return info, nil
}

// annotations renders the offset↔segment mapping checkpointed alongside the
// committed offset (paper §3.1.2: annotated checkpoints).
func segmentAnnotations(info SegmentInfo) map[string]string {
	return map[string]string{
		"archive.segment":    info.Path,
		"archive.baseOffset": fmt.Sprint(info.BaseOffset),
		"archive.lastOffset": fmt.Sprint(info.LastOffset),
		"archive.records":    fmt.Sprint(info.Records),
	}
}
