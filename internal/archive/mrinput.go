package archive

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/storage/record"
)

// MRInput is the MapReduce input adapter over an archived feed: it resolves
// the committed segment files from the manifests (never trusting stray
// files in the segments directory) and returns them with a decoder, ready
// to drop into a mapreduce.JobSpec:
//
//	files, decode, err := archive.MRInput(fs, "/archive", "events")
//	engine.Run(mapreduce.JobSpec{InputFiles: files, Decode: decode, ...})
//
// Map tasks see one record per archived message, Key = message key and
// Value = message value, so offline jobs consume the exact nearline stream
// without any re-materialisation step.
func MRInput(fs *dfs.FS, root, topic string) ([]string, func([]byte) ([]mapreduce.KV, error), error) {
	manifests, err := ListManifests(fs, root, topic)
	if err != nil {
		return nil, nil, err
	}
	var files []string
	for _, m := range manifests {
		for _, seg := range m.Segments {
			files = append(files, seg.Path)
		}
	}
	sort.Strings(files)
	return files, DecodeKV, nil
}

// DecodeKV parses one segment file into MapReduce records, straight from
// its batches. The []KV is sized once from the batch headers. Each batch is
// decoded once, into a []Record reused across the segment, and its keys and
// values are copied into one string that its KVs are substrings of: a
// retained KV pins its batch's string, as a record.Record pins its arena.
// Corruption fails the map task — an offline scan must never silently
// undercount.
func DecodeKV(data []byte) ([]mapreduce.KV, error) {
	out := make([]mapreduce.KV, 0, record.ClaimedRecords(data))
	var recs []record.Record
	err := scanSegment(data, func(batch []byte) error {
		rs, _, err := record.DecodeRecords(batch)
		if err != nil {
			return err
		}
		recs = slices.Grow(recs[:0], rs.Len())[:rs.Len()]
		size := 0
		for i := range recs {
			if err := rs.Next(&recs[i]); err != nil {
				return err
			}
			size += len(recs[i].Key) + len(recs[i].Value)
		}
		var sb strings.Builder
		sb.Grow(size)
		for _, r := range recs {
			sb.Write(r.Key)
			sb.Write(r.Value)
		}
		s := sb.String()
		for _, r := range recs {
			k, v := len(r.Key), len(r.Key)+len(r.Value)
			out = append(out, mapreduce.KV{Key: s[:k], Value: s[k:v]})
			s = s[v:]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
