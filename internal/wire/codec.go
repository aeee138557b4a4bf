// Package wire defines the binary client/broker protocol of the messaging
// layer: a length-prefixed frame carrying a request or response header and a
// typed message body. All brokers, clients, replica fetchers and the offset
// manager speak this protocol over TCP, mirroring how the paper's messaging
// layer exposes produce/fetch/metadata/offset APIs (§3.1, §4.2).
//
// Encoding conventions: integers are big-endian; strings are int16-length
// prefixed UTF-8 (-1 encodes the empty string is not used; empty strings are
// length 0); byte blobs are int32-length prefixed with -1 encoding nil;
// arrays are int32-count prefixed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrDecode is returned when a message body cannot be decoded.
var ErrDecode = errors.New("wire: malformed message")

// ErrEncode is returned when a message cannot be encoded: a value does not
// fit its wire field (a string longer than an int16 length prefix can say).
// Nothing of such a message is written.
var ErrEncode = errors.New("wire: value does not fit its field")

// Writer accumulates an encoded message with a sticky error: after the first
// value that does not fit, Err reports it and the framed write paths send
// nothing. The zero value is ready to use.
type Writer struct {
	buf     []byte
	splices []splice
	err     error
	c       codec
}

// splice marks a point in buf where an external byte range is stitched into
// the frame at write time; see Writer.Splice.
type splice struct {
	at  int
	src ByteRange
}

// ByteRange is an externally stored byte region a response splices into its
// frame without copying it through the encode buffer — the zero-copy fetch
// path (a raw batch range of a segment file). Len must be stable for the
// lifetime of the write and WriteTo must produce exactly Len bytes; the
// framed writer precomputes the frame length from it before streaming.
type ByteRange interface {
	Len() int64
	WriteTo(w io.Writer) (int64, error)
}

// Bytes returns the encoded bytes accumulated so far. A writer carrying
// pending splices returns only the buffered part; splices are understood
// solely by the framed write path (WriteResponseFrame).
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes accumulated.
func (w *Writer) Len() int { return len(w.buf) }

// Err returns the first encoding error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Reset clears the writer for reuse, retaining capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.splices = w.splices[:0]
	w.err = nil
}

// Splice appends an int32 length prefix for src and records src to be
// streamed into the frame at this position by the framed write path. The
// bytes of src never enter the encode buffer — on TCP connections they move
// file-to-socket via sendfile.
func (w *Writer) Splice(src ByteRange) {
	w.Int32(int32(src.Len()))
	w.splices = append(w.splices, splice{at: len(w.buf), src: src})
}

// Int8 appends a signed 8-bit integer.
func (w *Writer) Int8(v int8) { w.buf = append(w.buf, byte(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Int16 appends a signed 16-bit integer.
func (w *Writer) Int16(v int16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(v))
}

// Int32 appends a signed 32-bit integer.
func (w *Writer) Int32(v int32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v))
}

// Int64 appends a signed 64-bit integer.
func (w *Writer) Int64(v int64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(v))
}

// String appends an int16-length-prefixed string. A string longer than
// math.MaxInt16 bytes is not cut: it sets the sticky ErrEncode.
func (w *Writer) String(s string) {
	if len(s) > math.MaxInt16 {
		if w.err == nil {
			w.err = fmt.Errorf("%w: string of %d bytes, max %d", ErrEncode, len(s), math.MaxInt16)
		}
		return
	}
	w.Int16(int16(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes32 appends an int32-length-prefixed byte blob; nil encodes as -1.
func (w *Writer) Bytes32(b []byte) {
	if b == nil {
		w.Int32(-1)
		return
	}
	w.Int32(int32(len(b)))
	w.buf = append(w.buf, b...)
}

// ArrayLen appends an array count.
func (w *Writer) ArrayLen(n int) { w.Int32(int32(n)) }

// StringArray appends an int32-count-prefixed array of strings.
func (w *Writer) StringArray(ss []string) {
	w.ArrayLen(len(ss))
	for _, s := range ss {
		w.String(s)
	}
}

// Int32Array appends an int32-count-prefixed array of int32s.
func (w *Writer) Int32Array(vs []int32) {
	w.ArrayLen(len(vs))
	for _, v := range vs {
		w.Int32(v)
	}
}

// Reader decodes a message with a sticky error: after the first decoding
// failure all subsequent reads return zero values and Err reports the error.
type Reader struct {
	buf []byte
	pos int
	err error
	c   codec
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrDecode
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil || n < 0 || r.pos+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Int8 reads a signed 8-bit integer.
func (r *Reader) Int8() int8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return int8(b[0])
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Int8() != 0 }

// Int16 reads a signed 16-bit integer.
func (r *Reader) Int16() int16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return int16(binary.BigEndian.Uint16(b))
}

// Int32 reads a signed 32-bit integer.
func (r *Reader) Int32() int32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return int32(binary.BigEndian.Uint32(b))
}

// Int64 reads a signed 64-bit integer.
func (r *Reader) Int64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// String reads an int16-length-prefixed string.
func (r *Reader) String() string {
	n := r.Int16()
	if n < 0 {
		r.fail()
		return ""
	}
	b := r.take(int(n))
	return string(b)
}

// Bytes32 reads an int32-length-prefixed byte blob (-1 decodes to nil).
// The returned slice is a copy and safe to retain.
func (r *Reader) Bytes32() []byte {
	n := r.Int32()
	if n == -1 {
		return nil
	}
	if n < 0 {
		r.fail()
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// RawBytes32 reads an int32-length-prefixed byte blob (-1 decodes to nil)
// WITHOUT copying: the returned slice aliases the Reader's buffer. It
// exists for the two hot-path record blobs — produce-request and
// fetch-response Records — where the bytes are consumed before the
// underlying frame buffer can be reused. Any caller that retains the slice
// past that point must copy it (or use Bytes32).
func (r *Reader) RawBytes32() []byte {
	n := r.Int32()
	if n == -1 {
		return nil
	}
	if n < 0 {
		r.fail()
		return nil
	}
	return r.take(int(n))
}

// ArrayLen reads an array count, bounding it by the remaining bytes so a
// corrupt count cannot cause huge allocations.
func (r *Reader) ArrayLen() int {
	n := r.Int32()
	if n < 0 || int(n) > r.Remaining() {
		if n != 0 {
			r.fail()
		}
		return 0
	}
	return int(n)
}

// StringArray reads an int32-count-prefixed array of strings, stopping at
// the first one that fails.
func (r *Reader) StringArray() []string {
	n := r.ArrayLen()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s := r.String()
		if r.err != nil {
			break
		}
		out = append(out, s)
	}
	return out
}

// Int32Array reads an int32-count-prefixed array of int32s, stopping at the
// first one that fails.
func (r *Reader) Int32Array() []int32 {
	n := r.ArrayLen()
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		v := r.Int32()
		if r.err != nil {
			break
		}
		out = append(out, v)
	}
	return out
}

// Done reports an error unless the reader consumed the whole buffer cleanly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrDecode, len(r.buf)-r.pos)
	}
	return nil
}

// codec runs a message's one field list in either direction: it holds the
// Writer when encoding and the Reader when decoding, never both. Each op
// takes a pointer to its field and writes *v out or reads it in, so a
// message's fields method is both its encoder and its decoder. The codec
// lives inside its Writer or Reader and is handed out by pointer, so
// running a field list allocates nothing of its own.
type codec struct {
	w *Writer
	r *Reader
}

func (w *Writer) codec() *codec {
	w.c = codec{w: w}
	return &w.c
}

func (r *Reader) codec() *codec {
	r.c = codec{r: r}
	return &r.c
}

func (c *codec) int16(v *int16) {
	if c.w != nil {
		c.w.Int16(*v)
		return
	}
	*v = c.r.Int16()
}

func (c *codec) int32(v *int32) {
	if c.w != nil {
		c.w.Int32(*v)
		return
	}
	*v = c.r.Int32()
}

func (c *codec) int64(v *int64) {
	if c.w != nil {
		c.w.Int64(*v)
		return
	}
	*v = c.r.Int64()
}

func (c *codec) bool(v *bool) {
	if c.w != nil {
		c.w.Bool(*v)
		return
	}
	*v = c.r.Bool()
}

func (c *codec) errorCode(v *ErrorCode) { c.int16((*int16)(v)) }

func (c *codec) string(v *string) {
	if c.w != nil {
		c.w.String(*v)
		return
	}
	*v = c.r.String()
}

// bytes carries a Bytes32 blob; the decoded copy is safe to retain.
func (c *codec) bytes(v *[]byte) {
	if c.w != nil {
		c.w.Bytes32(*v)
		return
	}
	*v = c.r.Bytes32()
}

// records carries a record-batch blob, the hot path: decode aliases the
// frame (RawBytes32), and encode splices rng into the frame when it is set
// instead of copying *v.
func (c *codec) records(v *[]byte, rng ByteRange) {
	switch {
	case c.r != nil:
		*v = c.r.RawBytes32()
	case rng != nil:
		c.w.Splice(rng)
	default:
		c.w.Bytes32(*v)
	}
}

func (c *codec) strings(v *[]string) {
	if c.w != nil {
		c.w.StringArray(*v)
		return
	}
	*v = c.r.StringArray()
}

func (c *codec) int32s(v *[]int32) {
	if c.w != nil {
		c.w.Int32Array(*v)
		return
	}
	*v = c.r.Int32Array()
}

// array carries an int32-count-prefixed array of elements that each carry
// their own fields. Decoding bounds the count by the bytes left
// (Reader.ArrayLen) and stops at the first element that fails, so a decoded
// value never holds more elements than its input had bytes.
func array[T any, PT interface {
	*T
	fields(*codec)
}](c *codec, s *[]T) {
	if c.w != nil {
		c.w.ArrayLen(len(*s))
		for i := range *s {
			PT(&(*s)[i]).fields(c)
		}
		return
	}
	out := make([]T, c.r.ArrayLen())
	for i := range out {
		if PT(&out[i]).fields(c); c.r.err != nil {
			out = out[:i]
			break
		}
	}
	*s = out
}
