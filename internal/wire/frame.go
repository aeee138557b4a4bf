package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameSize bounds a single protocol frame. Frames beyond this are
// rejected to protect brokers from corrupt length prefixes.
const MaxFrameSize = 64 << 20 // 64 MiB

// ErrFrameTooLarge reports a length prefix beyond MaxFrameSize — the framing
// violation a corrupt, truncated or byte-flipped stream produces. Both read
// paths return it (wrapped with the offending size) so transports and fault
// injectors can distinguish a framing violation from plain connection loss.
var ErrFrameTooLarge = errors.New("wire: frame exceeds max size")

// WriteFrame writes a length-prefixed frame containing payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes, max %d", ErrFrameTooLarge, len(payload), MaxFrameSize)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes, max %d", ErrFrameTooLarge, n, MaxFrameSize)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// EncodeRequest serialises a request header + body into one payload, or
// returns nil if they cannot be encoded (see Writer.Err).
func EncodeRequest(hdr *RequestHeader, body Message) []byte {
	var w Writer
	hdr.Encode(&w)
	body.Encode(&w)
	if w.err != nil {
		return nil
	}
	return w.Bytes()
}

// EncodeResponse serialises a correlation id + body into one payload, or
// returns nil if the body cannot be encoded (see Writer.Err).
func EncodeResponse(correlationID int32, body Message) []byte {
	var w Writer
	w.Int32(correlationID)
	body.Encode(&w)
	if w.err != nil {
		return nil
	}
	return w.Bytes()
}

// DecodeRequest splits a request payload into its header and body reader.
func DecodeRequest(payload []byte) (RequestHeader, *Reader, error) {
	r := NewReader(payload)
	var hdr RequestHeader
	hdr.Decode(r)
	if err := r.Err(); err != nil {
		return RequestHeader{}, nil, err
	}
	return hdr, r, nil
}

// DecodeResponse splits a response payload into its correlation id and body
// reader.
func DecodeResponse(payload []byte) (int32, *Reader, error) {
	r := NewReader(payload)
	id := r.Int32()
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	return id, r, nil
}
