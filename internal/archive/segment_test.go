package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/client"
	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/storage/record"
)

func TestSegmentCodecRoundTrip(t *testing.T) {
	in := []record.Record{
		{Offset: 10, Timestamp: 1111, Key: []byte("k1"), Value: []byte("v1")},
		{Offset: 11, Timestamp: 1112, Key: nil, Value: []byte("unkeyed")},
		{Offset: 13, Timestamp: 1113, Key: []byte(""), Value: nil, Headers: []record.Header{
			{Key: "liquid.lineage", Value: []byte("job-a")},
			{Key: "empty", Value: nil},
		}},
		{Offset: 20, Timestamp: 1120, Key: []byte("k2"), Value: []byte("after a gap")},
	}
	data := concat([]client.Batch{
		sealBatch(t, record.CodecNone, in[:3]),
		sealBatch(t, record.CodecFlate, in[3:]),
	})
	out, err := DecodeSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Offset != in[i].Offset || out[i].Timestamp != in[i].Timestamp {
			t.Fatalf("record %d: got %+v want %+v", i, out[i], in[i])
		}
		if !bytes.Equal(out[i].Key, in[i].Key) || !bytes.Equal(out[i].Value, in[i].Value) {
			t.Fatalf("record %d payload mismatch", i)
		}
		if len(out[i].Headers) != len(in[i].Headers) {
			t.Fatalf("record %d: %d headers, want %d", i, len(out[i].Headers), len(in[i].Headers))
		}
	}
	// Nil key must survive as nil (distinguishes unkeyed from empty-keyed).
	if out[1].Key != nil {
		t.Fatal("nil key decoded as non-nil")
	}
	if out[2].Key == nil {
		t.Fatal("empty key decoded as nil")
	}
	kvs, err := DecodeKV(data)
	if err != nil || len(kvs) != len(in) || kvs[3].Key != "k2" || kvs[3].Value != "after a gap" {
		t.Fatalf("DecodeKV = %v, %v", kvs, err)
	}
}

func TestSegmentCodecRejectsCorrupt(t *testing.T) {
	batches := feedBatches(t, record.CodecNone, 0, 4, 2)
	good := concat(batches)
	garbled := bytes.Clone(good)
	garbled[len(garbled)-1] ^= 0xFF // inside the second batch's CRC
	cases := map[string][]byte{
		"truncated":     good[:len(good)-1],
		"trailing":      append(bytes.Clone(good), 0xFF),
		"garbled":       garbled,
		"empty file":    {},
		"out of order":  concat([]client.Batch{batches[1], batches[0]}),
		"repeated":      concat([]client.Batch{batches[0], batches[0]}),
		"not a segment": []byte("garbage, not a segment"),
	}
	for name, data := range cases {
		if _, err := DecodeSegment(data); !errors.Is(err, ErrBadSegment) {
			t.Fatalf("%s: decode = %v, want ErrBadSegment", name, err)
		}
		if _, err := DecodeKV(data); !errors.Is(err, ErrBadSegment) {
			t.Fatalf("%s: DecodeKV = %v, want ErrBadSegment", name, err)
		}
	}
}

func TestManifestCommitLoadPrune(t *testing.T) {
	dir := t.TempDir()
	fs, err := dfs.Open(dfs.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	m := &Manifest{Topic: "events", Partition: 3}
	for i := 0; i < manifestKeep+2; i++ {
		m.Segments = append(m.Segments, SegmentInfo{
			Path:       segmentPath("/archive", "events", 3, int64(i*10), int64(i*10+9)),
			BaseOffset: int64(i * 10), LastOffset: int64(i*10 + 9), Records: 10,
		})
		m.NextOffset = int64(i*10 + 10)
		if err := commitManifest(fs, "/archive", m); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadManifest(fs, "/archive", "events", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != int64(manifestKeep+2) || got.NextOffset != m.NextOffset || len(got.Segments) != manifestKeep+2 {
		t.Fatalf("loaded manifest = seq %d next %d segs %d", got.Seq, got.NextOffset, len(got.Segments))
	}
	// Old versions beyond the keep window are pruned.
	files := fs.List(manifestPrefix("/archive", "events", 3))
	if len(files) > manifestKeep {
		t.Fatalf("manifest dir holds %d files, want <= %d", len(files), manifestKeep)
	}
	// A partition never archived loads as the zero manifest.
	empty, err := LoadManifest(fs, "/archive", "events", 9)
	if err != nil || empty.NextOffset != 0 || len(empty.Segments) != 0 {
		t.Fatalf("empty manifest = %+v, %v", empty, err)
	}
}

func TestParseSegmentPath(t *testing.T) {
	p := segmentPath("/archive", "events", 7, 120, 199)
	part, base, last, ok := parseSegmentPath(p)
	if !ok || part != 7 || base != 120 || last != 199 {
		t.Fatalf("parse %q = %d %d %d %v", p, part, base, last, ok)
	}
	for _, bad := range []string{"/archive/events/segments/manifest.json", "/x/p1-o2.seg", "p-oX-3.seg"} {
		if _, _, _, ok := parseSegmentPath(bad); ok {
			t.Fatalf("parse accepted %q", bad)
		}
	}
}

func TestExporterRollAndRecovery(t *testing.T) {
	dir := t.TempDir()
	fs, err := dfs.Open(dfs.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	exp, err := openExporter(fs, "/archive", "t", 0, exporterConfig{segmentRecords: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range feedBatches(t, record.CodecNone, 0, 5, 1) {
		if !exp.add(b) {
			t.Fatalf("offset %d rejected", b.Info.BaseOffset)
		}
	}
	if !exp.shouldRoll() {
		t.Fatal("5 records at SegmentRecords=5 should roll")
	}
	info, err := exp.roll()
	if err != nil {
		t.Fatal(err)
	}
	if info.BaseOffset != 0 || info.LastOffset != 4 || info.Records != 5 || exp.man.NextOffset != 5 {
		t.Fatalf("rolled %+v, next %d", info, exp.man.NextOffset)
	}
	// Redelivered batches below the manifest are refused, whole or
	// straddling it.
	if exp.add(batchAt(t, 3)) {
		t.Fatal("accepted already-archived offset")
	}
	if exp.add(feedBatches(t, record.CodecNone, 4, 2, 2)[0]) {
		t.Fatal("accepted a batch straddling the manifest's next offset")
	}
	// An orphan segment beyond the manifest is swept on reopen.
	orphan := segmentPath("/archive", "t", 0, 5, 9)
	if err := fs.WriteFile(orphan, batchAt(t, 5).Data); err != nil {
		t.Fatal(err)
	}
	exp2, err := openExporter(fs, "/archive", "t", 0, exporterConfig{segmentRecords: 5})
	if err != nil {
		t.Fatal(err)
	}
	if exp2.man.NextOffset != 5 {
		t.Fatalf("reopened NextOffset = %d", exp2.man.NextOffset)
	}
	if _, err := fs.Stat(orphan); err == nil {
		t.Fatal("orphan segment survived recovery")
	}
}

// batchAt builds a one-record batch at an offset, as fetched.
func batchAt(t testing.TB, off int64) client.Batch {
	return sealBatch(t, record.CodecNone, []record.Record{{Offset: off, Value: []byte("v")}})
}

func TestManifestCommitFencing(t *testing.T) {
	dir := t.TempDir()
	fs, err := dfs.Open(dfs.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	// Two exporters for the same partition, both loaded at seq 0 — the
	// zombie-after-rebalance shape.
	expA, err := openExporter(fs, "/archive", "t", 0, exporterConfig{segmentRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	expB, err := openExporter(fs, "/archive", "t", 0, exporterConfig{segmentRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	expB.add(batchAt(t, 0))
	if _, err := expB.roll(); err != nil {
		t.Fatal(err)
	}

	// Stale A rolls a DIFFERENT offset range: the segment create lands
	// but the manifest seq fence must reject the commit. The uploaded
	// file is NOT withdrawn on a conflict — after the fence trips, the
	// path could in principle hold a successor's re-rolled segment
	// (sweep + re-export of the same range), and deleting it would
	// destroy manifest-referenced data. The unreferenced leftover is
	// harmless: every reader (MRInput, Backfill, ls) trusts manifests,
	// never directory listings.
	expA.add(batchAt(t, 0))
	expA.add(batchAt(t, 1))
	_, err = expA.roll()
	if !errors.Is(err, ErrManifestConflict) {
		t.Fatalf("stale roll (different range) = %v, want ErrManifestConflict", err)
	}
	if expA.man.Seq != 0 {
		t.Fatalf("conflicted exporter mutated its manifest to seq %d", expA.man.Seq)
	}
	// B's committed segment must be untouched by A's conflicted roll.
	if _, serr := fs.Stat(segmentPath("/archive", "t", 0, 0, 0)); serr != nil {
		t.Fatalf("winner's committed segment gone after conflicted roll: %v", serr)
	}

	// Stale A rolls the SAME range B committed: the segment create itself
	// must refuse to overwrite and report the conflict.
	expC := &exporter{fs: fs, root: "/archive", topic: "t", partition: 0, cfg: exporterConfig{segmentRecords: 100}}
	expC.man = &Manifest{Topic: "t", Partition: 0}
	expC.add(batchAt(t, 0))
	_, err = expC.roll()
	if !errors.Is(err, ErrManifestConflict) {
		t.Fatalf("stale roll (same range) = %v, want ErrManifestConflict", err)
	}

	// The winner's committed state survives untouched.
	man, err := LoadManifest(fs, "/archive", "t", 0)
	if err != nil || man.Seq != 1 || man.NextOffset != 1 || len(man.Segments) != 1 {
		t.Fatalf("winner's manifest = %+v, %v", man, err)
	}
	if _, err := fs.Stat(man.Segments[0].Path); err != nil {
		t.Fatalf("winner's segment gone: %v", err)
	}
}

// decodeKVPerRecord is DecodeKV as it was written, two string copies per
// record over record.DecodeBatch: the reference for the batch-string decode.
func decodeKVPerRecord(t *testing.T, data []byte) []mapreduce.KV {
	t.Helper()
	var out []mapreduce.KV
	for len(data) > 0 {
		b, n, err := record.DecodeBatch(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Records {
			out = append(out, mapreduce.KV{Key: string(r.Key), Value: string(r.Value)})
		}
		data = data[n:]
	}
	return out
}

func TestDecodeKVMatchesPerRecordDecode(t *testing.T) {
	var recs []record.Record
	for i := 0; i < 40; i++ {
		r := record.Record{Offset: int64(3 * i), Timestamp: int64(i), Key: []byte(fmt.Sprintf("key-%d", i)), Value: bytes.Repeat([]byte("v"), i)}
		switch i % 5 {
		case 1:
			r.Key = nil
		case 2:
			r.Key, r.Value = []byte{}, nil
		case 3:
			r.Headers = []record.Header{{Key: "h", Value: []byte("hv")}}
		}
		recs = append(recs, r)
	}
	var batches []client.Batch
	for i := 0; i < len(recs); i += 7 {
		batches = append(batches, sealBatch(t, []record.Codec{record.CodecNone, record.CodecFlate}[i/7%2], recs[i:min(i+7, len(recs))]))
	}
	data := concat(batches)
	got, err := DecodeKV(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := decodeKVPerRecord(t, data); !slices.Equal(got, want) {
		t.Fatalf("DecodeKV = %q, per record %q", got, want)
	}

	// A batch whose count outruns its records passes the header walk and
	// its CRC, and fails the decode.
	short := bytes.Clone(batches[0].Data)
	binary.BigEndian.PutUint32(short[58:], 8) // recordCount: one past the batch's 7
	binary.BigEndian.PutUint32(short[32:], crc32.Checksum(short[36:], crc32.MakeTable(crc32.Castagnoli)))
	garbled := bytes.Clone(data)
	garbled[len(batches[0].Data)+record.HeaderLen+2] ^= 0xFF // inside batch 1's compressed records
	for name, bad := range map[string][]byte{"short batch": short, "garbled": garbled} {
		if _, err := DecodeKV(bad); !errors.Is(err, ErrBadSegment) {
			t.Errorf("%s: DecodeKV = %v, want ErrBadSegment", name, err)
		}
	}
}
