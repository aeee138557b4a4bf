package archive

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

// SegmentInfo is one committed segment in a partition's manifest.
type SegmentInfo struct {
	// Path is the segment's DFS path.
	Path string `json:"path"`
	// BaseOffset / LastOffset bound the feed offsets the segment holds.
	BaseOffset int64 `json:"baseOffset"`
	LastOffset int64 `json:"lastOffset"`
	// Records / Bytes size the segment.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// LastTimestamp is the largest batch MaxTimestamp in the segment (ms
	// since epoch).
	LastTimestamp int64 `json:"lastTimestamp"`
}

// Manifest is the committed state of one archived feed partition: the
// ordered immutable segments and the next feed offset to archive. It is the
// offline analogue of a consumer position — readers trust the manifest, and
// export resumes from NextOffset after any crash.
type Manifest struct {
	Topic      string        `json:"topic"`
	Partition  int32         `json:"partition"`
	Seq        int64         `json:"seq"`
	NextOffset int64         `json:"nextOffset"`
	Segments   []SegmentInfo `json:"segments"`
	// UpdatedAtMs is the commit wall-clock time (ms since epoch).
	UpdatedAtMs int64 `json:"updatedAtMs"`
}

// Records totals the archived record count.
func (m *Manifest) Records() int64 {
	var n int64
	for i := range m.Segments {
		n += m.Segments[i].Records
	}
	return n
}

// Bytes totals the archived segment bytes.
func (m *Manifest) Bytes() int64 {
	var n int64
	for i := range m.Segments {
		n += m.Segments[i].Bytes
	}
	return n
}

// Layout helpers. An archive root holds, per topic:
//
//	<root>/<topic>/segments/p<part>-o<base>-<last>.seg   immutable data
//	<root>/<topic>/manifest/p<part>/<seq>.json           committed manifests
//
// Segments and manifests live in disjoint subtrees so offline scans can
// List the segments prefix without tripping over metadata files.

func topicRoot(root, topic string) string {
	return path.Join("/", root, topic)
}

// SegmentsPrefix returns the DFS prefix holding a topic's segment files.
func SegmentsPrefix(root, topic string) string {
	return topicRoot(root, topic) + "/segments/"
}

// manifestPrefix returns the DFS prefix of one partition's manifests.
func manifestPrefix(root, topic string, partition int32) string {
	return fmt.Sprintf("%s/manifest/p%05d/", topicRoot(root, topic), partition)
}

// manifestsPrefix returns the DFS prefix of all partitions' manifests.
func manifestsPrefix(root, topic string) string {
	return topicRoot(root, topic) + "/manifest/"
}

// segmentPath renders a segment's committed path.
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

// LoadManifest reads the newest committed manifest of a partition,
// returning an empty zero-offset manifest when none exists. On a read-only
// handle, a read that loses the race with the writer's prune (the snapshot
// pointed at a manifest version that has since been retired) refreshes the
// snapshot and retries.
func LoadManifest(fs *dfs.FS, root, topic string, partition int32) (*Manifest, error) {
	prefix := manifestPrefix(root, topic, partition)
	for attempt := 0; ; attempt++ {
		infos := fs.List(prefix)
		// Committed manifests are <seq>.json. Names zero-pad seq, so the
		// List order is commit order and the last entry is newest.
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
			return nil, fmt.Errorf("archive: manifest %s: %w", newest, err)
		}
		return &m, nil
	}
}

// commitManifest durably publishes the next manifest version by creating
// it at its final path: a DFS create is atomic and refuses an existing
// path, so a crash mid-write leaves the previous version authoritative.
// Commits are fenced optimistically: a writer whose loaded Seq is stale (a
// zombie archiver rolling after its partition moved) gets
// ErrManifestConflict instead of regressing the manifest — the create's
// refusal catches same-seq races, the explicit check catches a writer
// several generations behind.
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
			ErrManifestConflict, m.Topic, m.Partition, cur.Seq, m.Seq)
	}
	prefix := manifestPrefix(root, m.Topic, m.Partition)
	if err := fs.WriteFile(fmt.Sprintf("%s%020d.json", prefix, m.Seq), data); err != nil {
		if errors.Is(err, dfs.ErrExists) {
			return fmt.Errorf("%w: %s/%d seq %d committed concurrently",
				ErrManifestConflict, m.Topic, m.Partition, m.Seq)
		}
		return err
	}
	// Prune old versions, best-effort.
	for _, info := range fs.List(prefix) {
		seqStr := strings.TrimSuffix(path.Base(info.Path), ".json")
		if seq, err := strconv.ParseInt(seqStr, 10, 64); err == nil && seq+manifestKeep <= m.Seq {
			_ = fs.Delete(info.Path)
		}
	}
	return nil
}

// ListManifests loads the newest manifest of every archived partition of a
// topic, sorted by partition.
func ListManifests(fs *dfs.FS, root, topic string) ([]*Manifest, error) {
	prefix := manifestsPrefix(root, topic)
	seen := make(map[int32]bool)
	var parts []int32
	for _, info := range fs.List(prefix) {
		rest := strings.TrimPrefix(info.Path, prefix)
		dir, _, ok := strings.Cut(rest, "/")
		if !ok || !strings.HasPrefix(dir, "p") {
			continue
		}
		pn, err := strconv.ParseInt(dir[1:], 10, 32)
		if err != nil || seen[int32(pn)] {
			continue
		}
		seen[int32(pn)] = true
		parts = append(parts, int32(pn))
	}
	out := make([]*Manifest, 0, len(parts))
	for _, p := range parts {
		m, err := LoadManifest(fs, root, topic, p)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoArchive, topic)
	}
	return out, nil
}

// ErrNoArchive reports an operation over a topic with no archived data.
var ErrNoArchive = errors.New("archive: topic has no archived partitions")

// ErrManifestConflict reports a manifest commit lost to a concurrent
// writer; the caller must reload the manifest before exporting further.
var ErrManifestConflict = errors.New("archive: manifest committed concurrently")
