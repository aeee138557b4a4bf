package record

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// A raw DEFLATE (RFC 1951) decoder that inflates a record region held in
// memory straight into the pooled scratch. compress/flate's reader is built
// for streams: it pulls one byte at a time through an io.ByteReader, keeps a
// 32 KiB window it then copies out to the caller, and allocates its Huffman
// tables anew for every stream. Here the input and the output are both whole
// slices, so bits come 64 at a time from the input, matches copy within the
// output, and the tables live in the pooled inflater.
//
// It accepts exactly the streams compress/flate accepts and inflates them to
// the same bytes (FuzzInflate holds it to that), except that it stops at
// maxInflatedBody. Bytes after the final block are ignored, as there.

var (
	errTruncated = errors.New("deflate stream ends early")
	errBadStream = errors.New("invalid deflate stream")
	errTooLarge  = errors.New("inflates beyond the 64 MiB bound")
)

const (
	maxLitSyms  = 286 // literal/length symbols a dynamic block may declare
	maxDistSyms = 30  // distance symbols a dynamic block may declare
	maxCodeLen  = 15

	litBits  = 10 // index bits of the literal/length table's first level
	distBits = 8  // and of the distance table's
	clenBits = 7  // the code-length code has 7-bit codes at most: one level

	// The most one literal/length plus distance pair reads: a 15-bit code,
	// 5 extra bits, a 15-bit code and 13 extra bits. refill leaves at least
	// 56 bits buffered.
	maxPairBits = 48
)

// A table entry decodes one code. Its low four bits are the bits the code
// takes; an entry that takes none is a code no symbol has. Bits 4-7 are the
// extra bits that follow it. The top 16 bits are its value: the literal
// byte, the length or distance base, or the code-length symbol. A link
// entry instead holds the offset of a second-level table in its top bits
// and that table's index bits in its low four.
const (
	entryBits    = 0xf
	entryLink    = 1 << 8
	entryLiteral = 1 << 9
	entryEnd     = 1 << 10 // end of block
)

// Entry payloads (an entry without its code length) of each alphabet's
// symbols, RFC 1951 §3.2.5. The fixed codes declare literal/length symbols
// 286 and 287 and distance symbols 30 and 31, which no stream may use: their
// payload is zero, like an unassigned code's.
var litPayload, distPayload, clenPayload = func() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := range 256 {
		lit[s] = uint32(s)<<16 | entryLiteral
	}
	lit[256] = entryEnd
	base := uint32(3)
	for s := 257; s < 285; s++ {
		extra := uint32(0)
		if s >= 265 {
			extra = uint32(s-261) / 4
		}
		lit[s] = base<<16 | extra<<4
		base += 1 << extra
	}
	lit[285] = 258 << 16
	base = 1
	for s := range 30 {
		extra := uint32(0)
		if s >= 4 {
			extra = uint32(s-2) / 2
		}
		dist[s] = base<<16 | extra<<4
		base += 1 << extra
	}
	for s := range clen {
		clen[s] = uint32(s)<<16 | entryLiteral // the symbol as is; 0 too
	}
	return
}()

// codeOrder is the order in which a dynamic header lists the lengths of the
// code-length code.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// The fixed codes of BTYPE 01.
var fixedLit, fixedDist = func() (t, d huffTable) {
	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	t.build(lens[:], litPayload[:], litBits)
	for i := range lens[:32] {
		lens[i] = 5
	}
	d.build(lens[:32], distPayload[:], distBits)
	return t, d
}()

// huffTable decodes one canonical Huffman code: a first level indexed by
// the next litBits, distBits or clenBits input bits, then second levels for
// longer codes.
type huffTable struct {
	e []uint32
}

// build makes t decode the canonical code with the given code lengths
// (0: symbol unused) to the given payloads, reusing t's storage. It reports
// false for a code compress/flate refuses: one that is over-subscribed, or incomplete other
// than a single code of one bit. A code with no symbols builds, and every
// lookup in it fails.
func (t *huffTable) build(lens []uint8, payload []uint32, primary uint) bool {
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	maxLen := maxCodeLen
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	t.e = append(t.e[:0], make([]uint32, 1<<primary)...)
	if maxLen == 0 {
		return true
	}
	var next [maxCodeLen + 2]int
	code := 0
	for l := 1; l <= maxLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	if code+count[maxLen] != 1<<maxLen && !(maxLen == 1 && count[1] == 1) {
		return false
	}

	// Symbols in canonical order (by length, then value), so that the codes
	// sharing a first-level prefix come out consecutively.
	var offs [maxCodeLen + 2]int
	for l := 1; l <= maxLen; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [288]uint16
	for sym, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(sym)
			offs[l]++
		}
	}
	n := offs[maxLen]
	subStart, subBits := 0, uint(0)
	prefix := -1
	for i := 0; i < n; i++ {
		sym := sorted[i]
		l := uint(lens[sym])
		rev := int(bits.Reverse16(uint16(next[l])) >> (16 - l))
		next[l]++
		e := payload[sym] | uint32(l)
		if payload[sym] == 0 {
			e = 0
		}
		if l <= primary {
			for j := rev; j < 1<<primary; j += 1 << l {
				t.e[j] = e
			}
			continue
		}
		if p := rev & (1<<primary - 1); p != prefix {
			// A new second level: as wide as the longest code under
			// this prefix, the last one in canonical order.
			prefix = p
			end := (next[l] - 1) >> (l - primary) // this prefix, MSB-first
			longest := l
			for k, c := i+1, next[l]<<(maxCodeLen-l); k < n; k++ {
				kl := uint(lens[sorted[k]])
				if c>>(maxCodeLen-primary) != end {
					break
				}
				longest = kl
				c += 1 << (maxCodeLen - kl)
			}
			subBits = longest - primary
			subStart = len(t.e)
			t.e = append(t.e, make([]uint32, 1<<subBits)...)
			t.e[p] = uint32(subStart)<<16 | entryLink | uint32(subBits)
		}
		sub := t.e[subStart : subStart+1<<subBits]
		if e != 0 {
			e -= uint32(primary)
		}
		for j := rev >> primary; j < len(sub); j += 1 << (l - primary) {
			sub[j] = e
		}
	}
	return true
}

// bitReader reads a deflate stream's bits, least significant first. Past the
// end of src it reads zero bytes and counts them, so the decoding loops need
// no end-of-input test per symbol: truncated reports whether a bit past the
// end was consumed, and the decoder asks it wherever a block ends.
type bitReader struct {
	src []byte
	pos int    // next byte of src to load; beyond len(src), zero bytes read
	b   uint64 // buffered bits; those above nb are src's next bits or zero
	nb  uint   // buffered bits to consume
}

// refill buffers at least 56 bits.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.src) {
		r.b |= binary.LittleEndian.Uint64(r.src[r.pos:]) << r.nb
		r.pos += int(63-r.nb) >> 3
		r.nb |= 56
		return
	}
	for r.nb < 56 {
		if r.pos < len(r.src) {
			r.b |= uint64(r.src[r.pos]) << r.nb
		}
		r.pos++
		r.nb += 8
	}
}

func (r *bitReader) truncated() bool {
	return r.pos > len(r.src) && uint(r.pos-len(r.src))*8 > r.nb
}

// take consumes n buffered bits and returns them.
func (r *bitReader) take(n uint) uint32 {
	v := uint32(r.b) & (1<<n - 1)
	r.b >>= n
	r.nb -= n
	return v
}

// sym decodes one symbol of a table without second levels (the code-length
// code's); the caller has buffered its longest code. It reports false for a
// code no symbol has.
func (r *bitReader) sym(t *huffTable) (uint32, bool) {
	e := t.e[r.b&(1<<clenBits-1)]
	n := uint(e & entryBits)
	r.b >>= n
	r.nb -= n
	return e >> 16, n != 0
}

// inflateInto decodes the raw deflate stream src into out[:cap(out)],
// growing it by doubling up to maxInflatedBody. It returns the inflated
// bytes, a prefix of the buffer it ended in; on error, that buffer emptied,
// for the next inflate to reuse.
func (in *inflater) inflateInto(out []byte, src []byte) ([]byte, error) {
	r := bitReader{src: src}
	out = out[:cap(out)]
	n := 0
	for final := false; !final; {
		r.refill()
		final = r.take(1) == 1
		var err error
		switch r.take(2) {
		case 0:
			out, n, err = storedBlock(&r, out, n)
		case 1:
			out, n, err = codesBlock(&r, out, n, &fixedLit, &fixedDist)
		case 2:
			if err = in.readCodes(&r); err == nil {
				out, n, err = codesBlock(&r, out, n, &in.lit, &in.dist)
			}
		default:
			err = errBadStream
		}
		if err == nil && r.truncated() {
			err = errTruncated
		}
		if err != nil {
			return out[:0], err
		}
	}
	return out[:n], nil
}

// grow returns out with room for need bytes, keeping its first n.
func grow(out []byte, n, need int) ([]byte, error) {
	if need > maxInflatedBody {
		return out, errTooLarge
	}
	bigger := make([]byte, min(max(2*len(out), need, 64<<10), maxInflatedBody))
	copy(bigger, out[:n])
	return bigger, nil
}

// storedBlock copies a BTYPE 00 block. Its length starts at the next byte
// boundary, so the whole bytes refill buffered past it go back first.
func storedBlock(r *bitReader, out []byte, n int) ([]byte, int, error) {
	r.pos -= int(r.nb >> 3)
	r.b, r.nb = 0, 0
	if r.pos+4 > len(r.src) {
		return out, n, errTruncated
	}
	size := int(binary.LittleEndian.Uint16(r.src[r.pos:]))
	if binary.LittleEndian.Uint16(r.src[r.pos+2:]) != ^uint16(size) {
		return out, n, errBadStream
	}
	r.pos += 4
	if r.pos+size > len(r.src) {
		return out, n, errTruncated
	}
	if n+size > len(out) {
		var err error
		if out, err = grow(out, n, n+size); err != nil {
			return out, n, err
		}
	}
	n += copy(out[n:], r.src[r.pos:r.pos+size])
	r.pos += size
	return out, n, nil
}

// readCodes reads a BTYPE 10 block's code definitions into in.lit and
// in.dist, with the checks compress/flate makes.
func (in *inflater) readCodes(r *bitReader) error {
	r.refill()
	nlit := int(r.take(5)) + 257
	ndist := int(r.take(5)) + 1
	nclen := int(r.take(4)) + 4
	if nlit > maxLitSyms || ndist > maxDistSyms {
		return errBadStream
	}
	var clens [19]uint8
	for i := 0; i < nclen; i++ {
		if r.nb < 3 {
			r.refill()
		}
		clens[codeOrder[i]] = uint8(r.take(3))
	}
	if !in.clen.build(clens[:], clenPayload[:], clenBits) {
		return errBadStream
	}
	lens := in.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if r.nb < 7+7 {
			r.refill()
			if r.truncated() {
				return errTruncated
			}
		}
		s, ok := r.sym(&in.clen)
		if !ok {
			return errBadStream
		}
		if s < 16 {
			lens[i] = uint8(s)
			i++
			continue
		}
		var rep int
		var v uint8
		switch s {
		case 16:
			if i == 0 {
				return errBadStream
			}
			rep, v = 3+int(r.take(2)), lens[i-1]
		case 17:
			rep = 3 + int(r.take(3))
		default:
			rep = 11 + int(r.take(7))
		}
		if i+rep > len(lens) {
			return errBadStream
		}
		for ; rep > 0; rep-- {
			lens[i] = v
			i++
		}
	}
	if !in.lit.build(lens[:nlit], litPayload[:], litBits) || !in.dist.build(lens[nlit:], distPayload[:], distBits) {
		return errBadStream
	}
	return nil
}

// codesBlock decodes a Huffman-coded block up to its end-of-block symbol,
// with the bit reader held in locals.
func codesBlock(r *bitReader, out []byte, n int, lit, dist *huffTable) ([]byte, int, error) {
	src, pos, b, nb := r.src, r.pos, r.b, r.nb
	var err error
	for {
		if nb < maxPairBits {
			if pos+8 <= len(src) {
				b |= binary.LittleEndian.Uint64(src[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				r.pos, r.b, r.nb = pos, b, nb
				r.refill()
				if r.truncated() {
					return out, n, errTruncated
				}
				pos, b, nb = r.pos, r.b, r.nb
			}
		}
		e := lit.e[b&(1<<litBits-1)]
		if e&entryLink != 0 {
			b >>= litBits
			nb -= litBits
			e = lit.e[e>>16+uint32(b)&(1<<(e&entryBits)-1)]
		}
		l := uint(e & entryBits)
		b >>= l
		nb -= l
		if e&entryLiteral != 0 {
			if n >= len(out) {
				if out, err = grow(out, n, n+1); err != nil {
					return out, n, err
				}
			}
			out[n] = byte(e >> 16)
			n++
			continue
		}
		if e&entryEnd != 0 {
			r.pos, r.b, r.nb = pos, b, nb
			return out, n, nil
		}
		if e>>16 == 0 {
			return out, n, errBadStream
		}
		eb := uint(e>>4) & 0xf
		length := int(e>>16) + int(uint32(b)&(1<<eb-1))
		b >>= eb
		nb -= eb

		e = dist.e[b&(1<<distBits-1)]
		if e&entryLink != 0 {
			b >>= distBits
			nb -= distBits
			e = dist.e[e>>16+uint32(b)&(1<<(e&entryBits)-1)]
		}
		if e>>16 == 0 {
			return out, n, errBadStream
		}
		l = uint(e & entryBits)
		b >>= l
		nb -= l
		eb = uint(e>>4) & 0xf
		d := int(e>>16) + int(uint32(b)&(1<<eb-1))
		b >>= eb
		nb -= eb
		if d > n {
			return out, n, errBadStream
		}

		// Copy the match forward within out, eight bytes at a time while
		// the distance lets each read see only bytes already written; the
		// last may write up to seven bytes past the match, into output
		// not yet written.
		end := n + length
		if end+8 > len(out) && len(out) < maxInflatedBody {
			out, _ = grow(out, n, min(end+8, maxInflatedBody)) // within the bound: no error
		}
		from := n - d
		switch {
		case d >= 8 && end+8 <= len(out):
			for ; n < end; n, from = n+8, from+8 {
				binary.LittleEndian.PutUint64(out[n:], binary.LittleEndian.Uint64(out[from:]))
			}
		case end > len(out):
			return out, n, errTooLarge
		default:
			// An overlapping match repeats its d-byte period; each copy
			// doubles what the next can take.
			for n < end {
				n += copy(out[n:end], out[from:n])
			}
		}
		n = end
	}
}
