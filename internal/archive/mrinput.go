package archive

import (
	"slices"
	"sort"

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
// its batches. Corruption fails the map task — an offline scan must never
// silently undercount.
func DecodeKV(data []byte) ([]mapreduce.KV, error) {
	var out []mapreduce.KV
	err := scanSegment(data, func(b record.Batch) {
		out = slices.Grow(out, len(b.Records))
		for i := range b.Records {
			out = append(out, mapreduce.KV{Key: string(b.Records[i].Key), Value: string(b.Records[i].Value)})
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
