package archive

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/client"
	"repro/internal/dfs"
	"repro/internal/storage/record"
)

// Crash-recovery tests for the export commit protocol: a SIGKILL-equivalent
// between a segment seal (its create committed at the final path) and its
// manifest commit leaves an orphan segment the restarted exporter must sweep
// and re-export — exactly once, with no gap and no duplicate — for
// uncompressed and compressed batches alike.

var errInjectedCrash = errors.New("injected crash (SIGKILL window)")

func crashFS(t *testing.T) *dfs.FS {
	t.Helper()
	fs, err := dfs.Open(dfs.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// feedBatches renders n consecutive feed records starting at offset base as
// the log would store them, per records to a batch, sealed with codec, and
// delivered as by PollBatches.
func feedBatches(t testing.TB, codec record.Codec, base int64, n, per int) []client.Batch {
	t.Helper()
	var out []client.Batch
	for first := base; first < base+int64(n); first += int64(per) {
		recs := make([]record.Record, min(per, int(base+int64(n)-first)))
		for i := range recs {
			off := first + int64(i)
			recs[i] = record.Record{
				Offset:    off,
				Timestamp: 1000 + off,
				Key:       []byte(fmt.Sprintf("k%03d", off)),
				Value:     []byte(fmt.Sprintf("v%03d", off)),
			}
		}
		out = append(out, sealBatch(t, codec, recs))
	}
	return out
}

// sealBatch seals records, keeping their offsets, into one batch delivered
// as by PollBatches.
func sealBatch(t testing.TB, codec record.Codec, recs []record.Record) client.Batch {
	t.Helper()
	data, err := record.Compress(record.EncodeBatchKeepOffsets(recs), codec)
	if err != nil {
		t.Fatal(err)
	}
	info, err := record.PeekBatchInfo(data)
	if err != nil {
		t.Fatal(err)
	}
	return client.Batch{Topic: "t", Info: info, Data: data}
}

// concat joins batches' bytes: what a segment of them must hold.
func concat(batches []client.Batch) []byte {
	var out []byte
	for _, b := range batches {
		out = append(out, b.Data...)
	}
	return out
}

func TestCrashBetweenSealAndManifestCommit(t *testing.T) {
	for _, codec := range []record.Codec{record.CodecNone, record.CodecFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			fs := crashFS(t)
			const root = "/archive"
			cfg := exporterConfig{segmentRecords: 10}
			cfg.onSealed = func(string) error { return errInjectedCrash }
			batches := feedBatches(t, codec, 0, 10, 5)

			exp, err := openExporter(fs, root, "t", 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if !exp.add(b) {
					t.Fatalf("batch %d rejected", b.Info.BaseOffset)
				}
			}
			if _, err := exp.roll(); !errors.Is(err, errInjectedCrash) {
				t.Fatalf("roll error = %v, want injected crash", err)
			}

			// The crash left the orphan state: a sealed segment on the DFS
			// with no manifest pointing at it.
			segs := fs.List(SegmentsPrefix(root, "t"))
			if len(segs) != 1 {
				t.Fatalf("segments after crash = %d, want 1 orphan", len(segs))
			}
			man, err := LoadManifest(fs, root, "t", 0)
			if err != nil || man.NextOffset != 0 || len(man.Segments) != 0 {
				t.Fatalf("manifest after crash = %+v, %v; want empty", man, err)
			}

			// Restart: recovery sweeps the orphan (its range will recur)...
			cfg.onSealed = nil
			exp2, err := openExporter(fs, root, "t", 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if left := fs.List(SegmentsPrefix(root, "t")); len(left) != 0 {
				t.Fatalf("orphan not swept on recovery: %v", left)
			}

			// ...and the redelivered batches archive exactly once.
			for _, b := range batches {
				exp2.add(b)
			}
			info, err := exp2.roll()
			if err != nil {
				t.Fatal(err)
			}
			man, err = LoadManifest(fs, root, "t", 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(man.Segments) != 1 || man.NextOffset != 10 {
				t.Fatalf("recovered manifest = %+v", man)
			}
			if segs := fs.List(SegmentsPrefix(root, "t")); len(segs) != 1 {
				t.Fatalf("segment files after recovery = %d, want 1", len(segs))
			}
			data, err := fs.ReadFile(info.Path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, concat(batches)) {
				t.Fatalf("segment holds %d bytes, not the %d bytes of the log's batches", len(data), len(concat(batches)))
			}
			recs, err := DecodeSegment(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 10 {
				t.Fatalf("recovered segment holds %d records, want 10", len(recs))
			}
			for i, r := range recs {
				if r.Offset != int64(i) || string(r.Value) != fmt.Sprintf("v%03d", i) {
					t.Fatalf("record %d = offset %d value %q", i, r.Offset, r.Value)
				}
			}
		})
	}
}

// TestCrashAfterPartialProgress crashes mid-stream: two segments commit,
// the third seals without a manifest. Recovery must keep the two committed
// segments untouched, sweep only the orphan, and resume from the manifest's
// NextOffset.
func TestCrashAfterPartialProgress(t *testing.T) {
	fs := crashFS(t)
	const root = "/archive"
	rolls := 0
	cfg := exporterConfig{segmentRecords: 10}
	cfg.onSealed = func(string) error {
		rolls++
		if rolls == 3 {
			return errInjectedCrash
		}
		return nil
	}
	exp, err := openExporter(fs, root, "t", 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range feedBatches(t, record.CodecNone, 0, 30, 5) {
		exp.add(b)
	}
	for i := 0; i < 2; i++ {
		if _, err := exp.roll(); err != nil {
			t.Fatalf("roll %d: %v", i, err)
		}
	}
	if _, err := exp.roll(); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("roll 3 error = %v, want injected crash", err)
	}

	cfg.onSealed = nil
	exp2, err := openExporter(fs, root, "t", 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exp2.man.NextOffset != 20 || len(exp2.man.Segments) != 2 {
		t.Fatalf("recovered manifest = %+v", exp2.man)
	}
	// Only the orphan (base 20) was swept; committed segments survive.
	segs := fs.List(SegmentsPrefix(root, "t"))
	if len(segs) != 2 {
		t.Fatalf("segments after recovery = %d, want 2", len(segs))
	}
	// Redelivery from the committed offset finishes the export.
	for _, b := range feedBatches(t, record.CodecNone, 20, 10, 5) {
		exp2.add(b)
	}
	if _, err := exp2.roll(); err != nil {
		t.Fatal(err)
	}
	man, _ := LoadManifest(fs, root, "t", 0)
	if man.NextOffset != 30 || len(man.Segments) != 3 {
		t.Fatalf("final manifest = %+v", man)
	}
	want := int64(0)
	for _, seg := range man.Segments {
		if seg.BaseOffset != want {
			t.Fatalf("segment chain broken at %d, want base %d", seg.BaseOffset, want)
		}
		want = seg.LastOffset + 1
	}
}
