// Package wire (bad variant): constants exist that the tables do not
// cover.
package wire

// ErrorCode is the protocol error code.
type ErrorCode int16

// Codes.
const (
	ErrNone ErrorCode = 0
	ErrBoom ErrorCode = 1
	ErrLost ErrorCode = 2 // want `wire\.ErrorCode ErrLost has no entry in the errorCodes table`
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
	APIBounce APIKey = 1 // want `wire\.APIKey APIBounce has no entry in the apis table`
)

var apis = [...]struct {
	name    string
	newBody func() Message
}{
	APIPing: {"ping", func() Message { return &PingRequest{} }},
}

// Message is a wire message.
type Message interface{ Encode() }

// PingRequest is dispatched.
type PingRequest struct{}

func (*PingRequest) Encode() {}

// BounceRequest is decodable but unclassified.
type BounceRequest struct{}

func (*BounceRequest) Encode() {}
