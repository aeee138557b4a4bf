package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// maxPooledBuf caps the capacity of buffers returned to the pools, so one
// giant frame cannot pin megabytes inside every pool slot forever.
const maxPooledBuf = 1 << 20

// writerPool recycles encode buffers for the framed write path. Every
// request and response a broker or client writes goes through one pooled
// Writer, so the steady-state encode path allocates nothing.
var writerPool = sync.Pool{
	New: func() any { return &Writer{buf: make([]byte, 0, 4096)} },
}

// GetWriter returns a reset Writer from the pool.
func GetWriter() *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	return w
}

// PutWriter returns a Writer to the pool. The caller must not retain any
// slice of its buffer.
func PutWriter(w *Writer) {
	if cap(w.buf) > maxPooledBuf {
		return
	}
	writerPool.Put(w)
}

// writeFramed encodes a payload via fill into a pooled buffer with the
// 4-byte length prefix in place, and writes the whole frame with a single
// Write call — one buffer, one copy, no per-frame allocation. A payload
// that cannot be encoded (Writer.Err) writes nothing and returns the error.
func writeFramed(dst io.Writer, fill func(*Writer)) error {
	w := GetWriter()
	defer PutWriter(w)
	w.Int32(0) // length prefix placeholder
	fill(w)
	if w.err != nil {
		return w.err
	}
	if len(w.splices) > 0 {
		return writeSpliced(dst, w)
	}
	n := len(w.buf) - 4
	if n > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes, max %d", ErrFrameTooLarge, n, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(w.buf[:4], uint32(n))
	_, err := dst.Write(w.buf)
	return err
}

// writeSpliced writes a frame whose payload interleaves the writer's buffer
// with external byte ranges (the zero-copy fetch path). The length prefix
// covers the spliced bytes; each range then streams straight from its source
// into dst — sendfile when dst is a TCP connection and the source a file. A
// source that comes up short (a segment truncated mid-serve by a follower
// demotion) is zero-padded to its promised length so the frame boundary
// survives; readers reject the padding at the batch level and re-poll.
func writeSpliced(dst io.Writer, w *Writer) error {
	total := int64(len(w.buf) - 4)
	for _, sp := range w.splices {
		total += sp.src.Len()
	}
	if total > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes, max %d", ErrFrameTooLarge, total, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(w.buf[:4], uint32(total))
	start := 0
	for _, sp := range w.splices {
		if _, err := dst.Write(w.buf[start:sp.at]); err != nil {
			return err
		}
		start = sp.at
		want := sp.src.Len()
		n, _ := sp.src.WriteTo(dst)
		if n < want {
			if err := writeZeros(dst, want-n); err != nil {
				return err
			}
		}
	}
	_, err := dst.Write(w.buf[start:])
	return err
}

// zeroPad is a shared all-zero block for padding short splices (read-only).
var zeroPad [4096]byte

func writeZeros(dst io.Writer, n int64) error {
	for n > 0 {
		chunk := int64(len(zeroPad))
		if chunk > n {
			chunk = n
		}
		if _, err := dst.Write(zeroPad[:chunk]); err != nil {
			return err
		}
		n -= chunk
	}
	return nil
}

// WriteRequestFrame encodes a request header + body and writes it as one
// frame using a pooled buffer.
func WriteRequestFrame(dst io.Writer, hdr *RequestHeader, body Message) error {
	return writeFramed(dst, func(w *Writer) {
		hdr.Encode(w)
		body.Encode(w)
	})
}

// WriteResponseFrame encodes a correlation id + response body and writes it
// as one frame using a pooled buffer.
func WriteResponseFrame(dst io.Writer, correlationID int32, body Message) error {
	return writeFramed(dst, func(w *Writer) {
		w.Int32(correlationID)
		body.Encode(w)
	})
}

// ReadFrameInto reads one length-prefixed frame, reusing buf's capacity
// when it suffices. It returns the payload, which aliases buf (or a larger
// replacement — pass the returned slice back in on the next call). Callers
// own the lifetime: anything decoded from the payload that must outlive the
// next ReadFrameInto call has to be copied (Reader.Bytes32 copies;
// Reader.RawBytes32 does not).
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes, max %d", ErrFrameTooLarge, n, MaxFrameSize)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
