package tier

import (
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"strconv"
	"strings"
	"time"

	"repro/internal/dfs"
)

// manifestKeep bounds how many historical manifest versions survive a
// commit; older versions are pruned best-effort.
const manifestKeep = 3

// SegmentInfo is one committed cold segment in a partition's tier manifest.
type SegmentInfo struct {
	// Path is the segment file's DFS path.
	Path string `json:"path"`
	// BaseOffset / LastOffset bound the feed offsets the segment holds.
	BaseOffset int64 `json:"baseOffset"`
	LastOffset int64 `json:"lastOffset"`
	// Records / Bytes size the segment (Bytes is the file size: the log's
	// own batches, compressed only where the producer compressed them).
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// LastTimestamp is the largest batch MaxTimestamp in the segment (ms
	// since epoch).
	LastTimestamp int64 `json:"lastTimestamp"`
}

// Manifest is the committed cold-tier state of one partition: the ordered
// immutable segments, the earliest tiered offset (advanced by total
// retention) and the offload frontier. It is the source of truth for cold
// data: leadership hand-over and restart recover tier state from it, and
// the read path trusts it to resolve which tier owns an offset.
type Manifest struct {
	Topic     string `json:"topic"`
	Partition int32  `json:"partition"`
	Seq       int64  `json:"seq"`
	// StartOffset is the earliest offset still held by the cold tier —
	// the tiered-earliest a consumer can rewind to.
	StartOffset int64 `json:"startOffset"`
	// NextOffset is the offload frontier: every offset below it is durably
	// tiered (or was, until total retention deleted it).
	NextOffset  int64         `json:"nextOffset"`
	Segments    []SegmentInfo `json:"segments"`
	UpdatedAtMs int64         `json:"updatedAtMs"`
}

// Bytes totals the cold segment file bytes.
func (m *Manifest) Bytes() int64 {
	var n int64
	for i := range m.Segments {
		n += m.Segments[i].Bytes
	}
	return n
}

// Records totals the cold record count.
func (m *Manifest) Records() int64 {
	var n int64
	for i := range m.Segments {
		n += m.Segments[i].Records
	}
	return n
}

// Layout. A tier root holds, per topic:
//
//	<root>/<topic>/segments/p<part>-o<base>-<last>.seg   immutable cold data
//	<root>/<topic>/manifest/p<part>/<seq>.json           committed manifests
//
// The shape mirrors internal/archive's layout so operators read both the
// same way; the trees are disjoint (different roots) because the tier is
// broker-owned state while the archive is a consumer-side export.

func topicRoot(root, topic string) string {
	return path.Join("/", root, topic)
}

// SegmentsPrefix returns the DFS prefix holding a topic's cold segments.
func SegmentsPrefix(root, topic string) string {
	return topicRoot(root, topic) + "/segments/"
}

// manifestPrefix returns the DFS prefix of one partition's manifests.
func manifestPrefix(root, topic string, partition int32) string {
	return fmt.Sprintf("%s/manifest/p%05d/", topicRoot(root, topic), partition)
}

// segmentPath renders a cold segment's committed path.
func segmentPath(root, topic string, partition int32, base, last int64) string {
	return fmt.Sprintf("%sp%05d-o%020d-%020d.seg", SegmentsPrefix(root, topic), partition, base, last)
}

// parseSegmentPath extracts partition and offset bounds from a segment
// path; ok is false for foreign files.
func parseSegmentPath(p string) (partition int32, base, last int64, ok bool) {
	name := path.Base(p)
	if !strings.HasSuffix(name, ".seg") || !strings.HasPrefix(name, "p") {
		return 0, 0, 0, false
	}
	parts := strings.Split(strings.TrimSuffix(name, ".seg"), "-")
	if len(parts) != 3 || !strings.HasPrefix(parts[1], "o") {
		return 0, 0, 0, false
	}
	pn, err1 := strconv.ParseInt(parts[0][1:], 10, 32)
	b, err2 := strconv.ParseInt(strings.TrimPrefix(parts[1], "o"), 10, 64)
	l, err3 := strconv.ParseInt(parts[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, 0, false
	}
	return int32(pn), b, l, true
}

// LoadManifest reads the newest committed tier manifest of a partition,
// returning an empty zero-offset manifest when none exists. On a read-only
// handle, a read that loses the race with the writer's prune refreshes the
// snapshot and retries, as archive.LoadManifest does.
func LoadManifest(fs *dfs.FS, root, topic string, partition int32) (*Manifest, error) {
	prefix := manifestPrefix(root, topic, partition)
	for attempt := 0; ; attempt++ {
		infos := fs.List(prefix)
		// Committed manifests are <seq>.json; names zero-pad seq so List
		// order is commit order and the last entry is newest.
		var newest string
		for _, info := range infos {
			if strings.HasSuffix(info.Path, ".json") {
				newest = info.Path
			}
		}
		if newest == "" {
			return &Manifest{Topic: topic, Partition: partition}, nil
		}
		data, err := fs.ReadFile(newest)
		if err != nil {
			if fs.IsReadOnly() && attempt == 0 {
				if rerr := fs.Refresh(); rerr == nil {
					continue
				}
			}
			return nil, err
		}
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("tier: manifest %s: %w", newest, err)
		}
		return &m, nil
	}
}

// commitManifest durably publishes the next manifest version: write to a
// temporary path, then atomically rename into place. A crash before the
// rename leaves the previous version authoritative. Commits are fenced: a
// writer whose loaded Seq is stale (a zombie leader offloading after the
// partition moved) gets ErrConflict instead of regressing the manifest.
func commitManifest(fs *dfs.FS, root string, m *Manifest) error {
	m.Seq++
	m.UpdatedAtMs = time.Now().UnixMilli()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	cur, err := LoadManifest(fs, root, m.Topic, m.Partition)
	if err != nil {
		return err
	}
	if cur.Seq >= m.Seq {
		return fmt.Errorf("%w: %s/%d at seq %d, commit attempted seq %d",
			ErrConflict, m.Topic, m.Partition, cur.Seq, m.Seq)
	}
	prefix := manifestPrefix(root, m.Topic, m.Partition)
	tmp := fmt.Sprintf("%stmp-%020d", prefix, m.Seq)
	final := fmt.Sprintf("%s%020d.json", prefix, m.Seq)
	// A same-seq tmp leftover from an aborted commit is ours to sweep; the
	// final path is never pre-deleted — an existing one means a concurrent
	// commit won.
	_ = fs.Delete(tmp)
	if err := fs.WriteFile(tmp, data); err != nil {
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		if errors.Is(err, dfs.ErrExists) {
			_ = fs.Delete(tmp)
			return fmt.Errorf("%w: %s/%d seq %d committed concurrently",
				ErrConflict, m.Topic, m.Partition, m.Seq)
		}
		return err
	}
	// Prune old versions and stray tmp files, best-effort.
	for _, info := range fs.List(prefix) {
		if info.Path == final {
			continue
		}
		if !strings.HasSuffix(info.Path, ".json") {
			_ = fs.Delete(info.Path)
			continue
		}
		seqStr := strings.TrimSuffix(path.Base(info.Path), ".json")
		if seq, err := strconv.ParseInt(seqStr, 10, 64); err == nil && seq+manifestKeep <= m.Seq {
			_ = fs.Delete(info.Path)
		}
	}
	return nil
}
