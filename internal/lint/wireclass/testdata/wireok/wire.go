// Package wire (good variant): everything classified, no findings.
package wire

// ErrorCode is the protocol error code.
type ErrorCode int16

// Codes.
const (
	ErrNone ErrorCode = 0
	ErrBoom ErrorCode = 1
)

var errorCodes = [...]struct {
	name      string
	retriable bool
}{
	ErrNone: {"none", false},
	ErrBoom: {"boom", true},
}

// APIKey identifies a request type.
type APIKey int16

// APIs.
const (
	APIPing   APIKey = 0
	APIBounce APIKey = 1
)

var apis = map[APIKey]struct {
	name    string
	newBody func() Message
}{
	APIPing:   {"ping", func() Message { return &PingRequest{} }},
	APIBounce: {"bounce", func() Message { return &BounceRequest{} }},
}

// Message is a wire message.
type Message interface{ Encode() }

// PingRequest pings.
type PingRequest struct{}

func (*PingRequest) Encode() {}

// BounceRequest bounces.
type BounceRequest struct{}

func (*BounceRequest) Encode() {}

// RequestHeader is not a message type and is exempt from dispatch.
type RequestHeader struct{}
