// Package wire (bare variant): the tables are missing entirely, which is
// reported once at each type.
package wire

// ErrorCode is the protocol error code.
type ErrorCode int16 // want `must give every ErrorCode an entry in a package-level .errorCodes. table literal`

// Codes.
const (
	ErrNone ErrorCode = 0
)

// APIKey identifies a request type.
type APIKey int16 // want `must give every APIKey an entry in a package-level .apis. table literal`

// APIs.
const (
	APIPing APIKey = 0
)
