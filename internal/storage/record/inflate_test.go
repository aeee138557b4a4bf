package record

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// compress/flate is the reference the inflater is held to, here and in
// FuzzInflate: the same streams accepted, inflated to the same bytes.

// stdlibInflate inflates src with compress/flate, refusing output past
// maxInflatedBody as the inflater does.
func stdlibInflate(src []byte) ([]byte, error) {
	out, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(src)), maxInflatedBody+1))
	if err == nil && len(out) > maxInflatedBody {
		err = errTooLarge
	}
	return out, err
}

// checkInflate holds the inflater to compress/flate on src, and to the
// bound and the error contract whatever src is.
func checkInflate(t *testing.T, src []byte) {
	t.Helper()
	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	got, err := in.inflate(CodecFlate, src)
	want, werr := stdlibInflate(src)
	switch {
	case werr == nil && err != nil:
		t.Fatalf("compress/flate inflates %d bytes of %x to %d bytes; the inflater refuses: %v", len(src), trim(src), len(want), err)
	case werr == nil && !bytes.Equal(got, want):
		t.Fatalf("inflating %x: %d bytes differ from compress/flate's %d", trim(src), len(got), len(want))
	case werr != nil && err == nil:
		t.Fatalf("compress/flate refuses %x (%v); the inflater returns %d bytes", trim(src), werr, len(got))
	case err != nil && !errors.Is(err, ErrCorrupt):
		t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
	}
	if len(got) > maxInflatedBody || cap(in.buf) > maxInflatedBody {
		t.Fatalf("inflated %d bytes into a scratch of %d, beyond the bound", len(got), cap(in.buf))
	}
}

func trim(b []byte) []byte { return b[:min(len(b), 64)] }

// deflate compresses each of chunks at level into one stream, flushing
// between them: a flush ends the block with an empty stored one, and the
// final block is a stored one too.
func deflate(t testing.TB, level int, chunks ...[]byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if i > 0 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// flateLevels are the five kinds of stream compress/flate writes: stored,
// fastest, default, best and Huffman only.
var flateLevels = []int{flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression, flate.HuffmanOnly}

// rumRegions returns the record regions of n batches of up to maxRecords RUM
// events, the benchmark's feed, as a producer seals them.
func rumRegions(t testing.TB, seed int64, n, maxRecords int) [][]byte {
	gen := workload.NewRUM(workload.RUMConfig{Seed: seed}, 1_700_000_000_000)
	rng := rand.New(rand.NewSource(seed))
	var regions [][]byte
	for i := 0; i < n; i++ {
		recs := make([]Record, 1+rng.Intn(maxRecords))
		for j := range recs {
			recs[j] = Record{Timestamp: int64(j), Value: gen.Next().Encode()}
		}
		sealed, err := Compress(EncodeBatch(0, recs), CodecFlate)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, sealed[batchHeaderLen:])
	}
	return regions
}

// shapes are inputs that lead compress/flate to each block type: nothing,
// a few bytes (fixed codes), text (dynamic codes), random bytes (stored),
// long runs (overlapping matches) and more than one stored block's worth.
func shapes(rng *rand.Rand) [][]byte {
	random := make([]byte, 70_000)
	rng.Read(random)
	text := make([]byte, 20_000)
	for i := range text {
		text[i] = "the quick brown fox jumps over the lazy dog "[rng.Intn(44)]
	}
	runs := bytes.Repeat([]byte{'a'}, 5_000)
	runs = append(runs, bytes.Repeat([]byte("xyz"), 3_000)...)
	return [][]byte{nil, []byte("abc"), text, random[:3_000], runs, random}
}

// streamBits writes a deflate stream by hand: header fields least
// significant bit first, Huffman codes most significant bit first.
type streamBits struct {
	out []byte
	b   uint64
	nb  uint
}

func (w *streamBits) bits(v uint64, n uint) {
	w.b |= v << w.nb
	w.nb += n
	for w.nb >= 8 {
		w.out = append(w.out, byte(w.b))
		w.b >>= 8
		w.nb -= 8
	}
}

func (w *streamBits) code(c uint64, n uint) { w.bits(uint64(bits.Reverse16(uint16(c))>>(16-n)), n) }

func (w *streamBits) align() {
	if w.nb > 0 {
		w.bits(0, 8-w.nb)
	}
}

// fixedLiteral writes literal/length symbol s in the fixed code.
func (w *streamBits) fixedLiteral(s int) {
	switch {
	case s < 144:
		w.code(uint64(0x30+s), 8)
	case s < 256:
		w.code(uint64(0x190+s-144), 9)
	case s < 280:
		w.code(uint64(s-256), 7)
	default:
		w.code(uint64(0xc0+s-280), 8)
	}
}

// stored writes a stored block holding p.
func (w *streamBits) stored(final bool, p []byte) {
	w.bits(b2u(final), 1)
	w.bits(0, 2)
	w.align()
	w.bits(uint64(len(p)), 16)
	w.bits(uint64(^uint16(len(p))), 16)
	w.out = append(w.out, p...)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fixed writes a block of p's bytes as literals in the fixed code.
func (w *streamBits) fixed(final bool, p []byte) {
	w.bits(b2u(final), 1)
	w.bits(1, 2)
	for _, c := range p {
		w.fixedLiteral(int(c))
	}
	w.fixedLiteral(256)
}

// storedAfterFixed is a fixed-code block of three literals followed by a
// stored block: the stored block's header and bytes sit in the bits the
// reader loaded ahead while decoding the first block.
func storedAfterFixed() []byte {
	var w streamBits
	w.fixed(false, []byte("abc"))
	w.stored(true, []byte("a stored block after a Huffman block"))
	return w.out
}

// fixedFinal is a stream whose final block is Huffman-coded, unlike
// compress/flate's, which all end with an empty stored block: cut short,
// it loses its end-of-block code.
func fixedFinal() []byte {
	var w streamBits
	w.fixed(true, []byte("a final block in the fixed code"))
	w.align()
	return w.out
}

// smallDynamic is a dynamic block declaring nlit literal/length and ndist
// distance codes that holds one zero byte. compress/flate refuses more than
// 286 and 30, even when the extra symbols go unused.
func smallDynamic(nlit, ndist int) []byte {
	var w streamBits
	w.bits(1, 1)
	w.bits(2, 2)
	w.bits(uint64(nlit-257), 5)
	w.bits(uint64(ndist-1), 5)
	w.bits(18-4, 4)
	clen := map[uint8]uint64{18: 1, 0: 2, 1: 2} // 18 → 0, 0 → 10, 1 → 11
	for _, s := range codeOrder[:18] {
		w.bits(clen[s], 3)
	}
	w.code(3, 2) // literal 0: length 1
	w.code(0, 1) // 18: 138 zeros
	w.bits(138-11, 7)
	w.code(0, 1) // 18: 117 zeros
	w.bits(117-11, 7)
	w.code(3, 2) // 256: length 1
	for z := nlit - 257 + ndist; z > 0; {
		if z >= 11 {
			n := min(z, 138)
			w.code(0, 1) // 18: n zeros
			w.bits(uint64(n-11), 7)
			z -= n
		} else {
			w.code(2, 2) // 0
			z--
		}
	}
	w.code(0, 1) // literal 0
	w.code(1, 1) // end of block
	w.align()
	return w.out
}

// deflateBomb is one dynamic block that inflates to just past maxInflatedBody zeros in
// about 64 KiB: a literal, then (length 258, distance 1) pairs of two bits.
func deflateBomb() []byte {
	var w streamBits
	w.bits(1, 1)                                // final
	w.bits(2, 2)                                // dynamic
	w.bits(maxLitSyms-257, 5)                   // HLIT: 286 literal/length codes
	w.bits(0, 5)                                // HDIST: one distance code
	w.bits(18-4, 4)                             // HCLEN: code-length code lengths up to symbol 1's
	clen := map[uint8]uint64{18: 1, 1: 2, 2: 2} // 18 → 0, 1 → 10, 2 → 11
	for _, s := range codeOrder[:18] {
		w.bits(clen[s], 3)
	}
	w.code(3, 2)      // literal 0: length 2
	w.code(0, 1)      // 18: 138 zeros
	w.bits(138-11, 7) //
	w.code(0, 1)      // 18: 117 zeros
	w.bits(117-11, 7) //
	w.code(3, 2)      // 256: length 2
	w.code(0, 1)      // 18: 28 zeros
	w.bits(28-11, 7)  //
	w.code(2, 2)      // 285: length 1
	w.code(2, 2)      // distance 0: length 1
	w.code(2, 2)      // literal 0 (10)
	for n := 1; n <= maxInflatedBody; n += 258 {
		w.code(0, 1) // 285: length 258
		w.code(0, 1) // distance 1
	}
	w.code(3, 2) // end of block (11)
	w.align()
	return w.out
}

// inflateSeeds are the streams FuzzInflate starts from and the unit tests
// check: RUM batches, every level on every shape, a stored block after a
// Huffman block, truncated final blocks, dynamic headers declaring too many
// codes, and (unless -short) a bomb.
func inflateSeeds(t testing.TB) [][]byte {
	seeds := rumRegions(t, 1, 5, 400)
	rng := rand.New(rand.NewSource(2))
	for _, level := range flateLevels {
		for _, s := range shapes(rng) {
			seeds = append(seeds, deflate(t, level, s))
		}
		seeds = append(seeds, deflate(t, level, []byte("abc"), []byte("abcabcabc"), nil, []byte("xyz")))
	}
	fixed, final := storedAfterFixed(), fixedFinal()
	whole := deflate(t, flate.BestSpeed, []byte("a few records' worth of bytes, a few records' worth"))
	seeds = append(seeds, fixed, fixed[:len(fixed)-1], final, final[:len(final)-1], whole[:len(whole)-1], whole[:len(whole)-5])
	for _, n := range [][2]int{{257, 1}, {286, 30}, {287, 1}, {288, 1}, {257, 31}, {257, 32}} {
		seeds = append(seeds, smallDynamic(n[0], n[1]))
	}
	if !testing.Short() {
		seeds = append(seeds, deflateBomb())
	}
	return seeds
}

func TestInflateMatchesStdlib(t *testing.T) {
	for i, src := range inflateSeeds(t) {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkInflate(t, src) })
	}
	for i, src := range rumRegions(t, 3, 50, 400) {
		t.Run(fmt.Sprint("rum", i), func(t *testing.T) { checkInflate(t, src) })
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		data := make([]byte, rng.Intn(5000))
		alphabet := 1 + rng.Intn(256)
		for j := range data {
			data[j] = byte(rng.Intn(alphabet))
		}
		checkInflate(t, deflate(t, flateLevels[i%len(flateLevels)], data))
	}
}

// Every prefix of a few short streams, and every single-bit flip of their
// first 250 bytes, gets the answer compress/flate gives.
func TestInflateDamagedMatchesStdlib(t *testing.T) {
	text := shapes(rand.New(rand.NewSource(5)))[2][:600]
	streams := [][]byte{storedAfterFixed(), fixedFinal(), rumRegions(t, 6, 1, 20)[0]}
	for _, level := range flateLevels {
		streams = append(streams, deflate(t, level, text))
	}
	for _, src := range streams {
		for cut := 0; cut < len(src); cut++ {
			checkInflate(t, src[:cut])
		}
		flipped := make([]byte, len(src))
		for bit := 0; bit < min(8*len(src), 2000); bit++ {
			copy(flipped, src)
			flipped[bit/8] ^= 1 << (bit % 8)
			checkInflate(t, flipped)
		}
	}
}

// Codes compress/flate refuses, and the two it takes that are not complete.
func TestHuffTableBuild(t *testing.T) {
	var h huffTable
	for _, c := range []struct {
		lens []uint8
		ok   bool
	}{
		{[]uint8{0, 0, 0}, true},         // no symbols: builds, every lookup fails
		{[]uint8{0, 1, 0}, true},         // one code of one bit
		{[]uint8{1, 1}, true},            // complete
		{[]uint8{2, 0}, false},           // one code of two bits: incomplete
		{[]uint8{1, 1, 1}, false},        // over-subscribed
		{[]uint8{1, 2, 3, 4, 4}, true},   // complete
		{[]uint8{1, 2, 3, 4, 5}, false},  // incomplete
		{[]uint8{1, 2, 3, 3, 15}, false}, // over-subscribed at the longest
		{[]uint8{15, 15, 14, 13, 1}, false},
	} {
		if got := h.build(c.lens, clenPayload[:], litBits); got != c.ok {
			t.Errorf("build(%v) = %v, want %v", c.lens, got, c.ok)
		}
	}
	// The one-code one-bit table decodes a 0 bit and refuses a 1 bit.
	h.build([]uint8{0, 1}, clenPayload[:], clenBits)
	for in, want := range map[byte]bool{0: true, 1: false} {
		r := bitReader{src: []byte{in, 0, 0, 0, 0, 0, 0, 0}}
		r.refill()
		if s, ok := r.sym(&h); ok != want || (ok && s != 1) {
			t.Errorf("bit %d: symbol %d, %v; want %v", in, s, ok, want)
		}
	}
}

func BenchmarkInflate(b *testing.B) {
	regions := rumRegions(b, 7, 20, 400)
	var plain int64
	for _, r := range regions {
		out, err := stdlibInflate(r)
		if err != nil {
			b.Fatal(err)
		}
		plain += int64(len(out))
	}
	b.Run("inflater", func(b *testing.B) {
		in := new(inflater)
		b.SetBytes(plain)
		b.ReportAllocs()
		for b.Loop() {
			for _, r := range regions {
				if _, err := in.inflate(CodecFlate, r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("compress-flate", func(b *testing.B) {
		var src bytes.Reader
		fr := flate.NewReader(&src)
		dst := make([]byte, 1<<20)
		b.SetBytes(plain)
		b.ReportAllocs()
		for b.Loop() {
			for _, r := range regions {
				src.Reset(r)
				err := fr.(flate.Resetter).Reset(&src, nil)
				for err == nil {
					_, err = fr.Read(dst)
				}
				if err != io.EOF {
					b.Fatal(err)
				}
			}
		}
	})
}
