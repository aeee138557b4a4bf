package tier

import (
	"bytes"
	"os"
	"testing"
)

// FuzzColdSegment feeds arbitrary bytes and bounds to the cold-segment
// parser, which reads files from the DFS and so must treat them as
// untrusted. Properties: it never panics; on success the index tiles the
// data exactly, with ascending offsets spanning [base, last]; and every
// read(o, n) returns whole indexed batches, starting at the first batch
// whose last offset reaches o.
func FuzzColdSegment(f *testing.F) {
	l := openSealedLog(f, f.TempDir(), 2<<10, sealedBatches(f, 20, 6))
	defer l.Close()
	fs := openTestFS(f)
	p, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := p.Offload(l, l.NextOffset()); err != nil {
		f.Fatal(err)
	}
	seg := p.manifest().Segments[0]
	raw, err := fs.ReadFile(seg.Path)
	if err != nil {
		f.Fatal(err)
	}
	// A LIQARCH2 file is what the tier wrote before it stored the log's
	// own batches; there is no migration, so hydrate refuses it.
	liqarch2, err := os.ReadFile("testdata/liqarch2.seg")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		data       []byte
		base, last int64
		ok         bool
	}{
		{raw, seg.BaseOffset, seg.LastOffset, true},
		{raw[:len(raw)-1], seg.BaseOffset, seg.LastOffset, false},
		{liqarch2, 0, 9, false},
	} {
		if _, err := buildSegReader(SegmentInfo{BaseOffset: seed.base, LastOffset: seed.last}, seed.data); (err == nil) != seed.ok {
			f.Fatalf("seed of %d bytes over [%d, %d]: err %v, want ok=%v", len(seed.data), seed.base, seed.last, err, seed.ok)
		}
		f.Add(seed.data, seed.base, seed.last)
	}

	f.Fuzz(func(t *testing.T, data []byte, base, last int64) {
		r, err := buildSegReader(SegmentInfo{Path: "fuzz", BaseOffset: base, LastOffset: last}, data)
		if err != nil {
			return
		}
		pos := 0
		for i, b := range r.index {
			if b.pos != pos || b.length <= 0 || b.firstOffset > b.lastOffset {
				t.Fatalf("index entry %d %+v does not follow byte %d", i, b, pos)
			}
			if i > 0 && b.firstOffset <= r.index[i-1].lastOffset {
				t.Fatalf("index entry %d %+v does not ascend", i, b)
			}
			pos += b.length
		}
		if pos != len(data) || r.index[0].firstOffset != base || r.index[len(r.index)-1].lastOffset != last {
			t.Fatalf("index covers %d of %d bytes, offsets [%d, %d], want [%d, %d]",
				pos, len(data), r.index[0].firstOffset, r.index[len(r.index)-1].lastOffset, base, last)
		}
		for i, b := range r.index {
			for _, o := range []int64{b.firstOffset, b.lastOffset} {
				for _, n := range []int{1, b.length, len(data)} {
					checkColdRead(t, r, i, o, n)
				}
			}
		}
		if last < 1<<62 && r.read(last+1, len(data)) != nil {
			t.Fatalf("read past last offset %d returned data", last)
		}
	})
}

// checkColdRead asserts read(o, n) returns whole indexed batches starting
// at batch want: at least one, and no more than n bytes beyond the first.
func checkColdRead(t *testing.T, r *segReader, want int, o int64, n int) {
	t.Helper()
	got := r.read(o, n)
	first := r.index[want]
	if len(got) < first.length || !bytes.Equal(got[:first.length], r.data[first.pos:first.pos+first.length]) {
		t.Fatalf("read(%d, %d) does not start with batch %d %+v", o, n, want, first)
	}
	end := first.pos + first.length
	for j := want + 1; j < len(r.index) && end-first.pos < len(got); j++ {
		end += r.index[j].length
	}
	if end-first.pos != len(got) || !bytes.Equal(got, r.data[first.pos:end]) {
		t.Fatalf("read(%d, %d) returned %d bytes, not whole batches from %d", o, n, len(got), want)
	}
	if len(got) > first.length && len(got) > n {
		t.Fatalf("read(%d, %d) returned %d bytes over its budget", o, n, len(got))
	}
}
