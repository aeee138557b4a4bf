package wire

import (
	"errors"
	"fmt"
)

// ErrorCode is a protocol-level error carried in responses. Codes travel on
// the wire as int16 values; Err converts a code back into a Go error on the
// client side.
type ErrorCode int16

// Protocol error codes.
const (
	ErrNone                    ErrorCode = 0
	ErrUnknown                 ErrorCode = 1
	ErrCorruptMessage          ErrorCode = 2
	ErrUnknownTopicOrPartition ErrorCode = 3
	ErrLeaderNotAvailable      ErrorCode = 4
	ErrNotLeaderForPartition   ErrorCode = 5
	ErrRequestTimedOut         ErrorCode = 6
	ErrOffsetOutOfRange        ErrorCode = 7
	ErrCoordinatorNotAvailable ErrorCode = 8
	ErrNotCoordinator          ErrorCode = 9
	ErrIllegalGeneration       ErrorCode = 10
	ErrUnknownMemberID         ErrorCode = 11
	ErrRebalanceInProgress     ErrorCode = 12
	ErrInvalidTopic            ErrorCode = 13
	ErrTopicAlreadyExists      ErrorCode = 14
	ErrNotEnoughReplicas       ErrorCode = 15
	ErrInvalidRequest          ErrorCode = 16
	ErrUnsupportedAPI          ErrorCode = 17
	ErrBrokerNotAvailable      ErrorCode = 18
	ErrMessageTooLarge         ErrorCode = 19
	ErrStaleLeaderEpoch        ErrorCode = 20
	// ErrTableNotServed means the broker leads the partition but its table
	// materializer is not attached (yet, or anymore). Retriable: the host
	// attaches asynchronously after leadership is assumed.
	ErrTableNotServed ErrorCode = 21
	// ErrTableStale means the materializer's applied offset lags the high
	// watermark beyond the bound the read requested. Retriable: the
	// materializer catches up continuously.
	ErrTableStale ErrorCode = 22
	// ErrDuplicateSequence means the batch's (producerID, epoch, sequence)
	// was already appended: the broker deduplicated a retry and returned
	// the original base offset. Success-equivalent, never retried — the
	// records are in the log exactly once.
	ErrDuplicateSequence ErrorCode = 23
	// ErrOutOfOrderSequence means the batch's base sequence is neither the
	// next expected one nor a recent duplicate: an earlier batch from this
	// producer was lost, or the retry fell out of the broker's bounded
	// dedup window. Terminal — blindly re-sending risks gaps or duplicates,
	// so the producer must surface the error.
	ErrOutOfOrderSequence ErrorCode = 24
	// ErrFencedEpoch means a newer instance of this producer id registered
	// a higher epoch; this zombie's appends are rejected. Terminal.
	ErrFencedEpoch ErrorCode = 25
)

// errorCodes is the one table of protocol codes: each code's name and
// whether a request failing with it may succeed on retry after refreshing
// metadata (leadership moved, coordinator moved, transient
// unavailability). Entries are positional, so each states both; liquid-vet's
// wireclass analyzer rejects an ErrorCode constant without an entry, so
// adding a code forces an explicit retry decision.
var errorCodes = [...]struct {
	name      string
	retriable bool
}{
	ErrNone:           {"none", false},
	ErrUnknown:        {"unknown error", false},
	ErrCorruptMessage: {"corrupt message", false},
	// Topic metadata propagates to brokers asynchronously after creation,
	// so a brief unknown-topic window is normal.
	ErrUnknownTopicOrPartition: {"unknown topic or partition", true},
	ErrLeaderNotAvailable:      {"leader not available", true},
	ErrNotLeaderForPartition:   {"not leader for partition", true},
	ErrRequestTimedOut:         {"request timed out", true},
	ErrOffsetOutOfRange:        {"offset out of range", false},
	ErrCoordinatorNotAvailable: {"group coordinator not available", true},
	ErrNotCoordinator:          {"not coordinator for group", true},
	ErrIllegalGeneration:       {"illegal group generation", false},
	ErrUnknownMemberID:         {"unknown member id", false},
	ErrRebalanceInProgress:     {"group rebalance in progress", true},
	ErrInvalidTopic:            {"invalid topic", false},
	ErrTopicAlreadyExists:      {"topic already exists", false},
	ErrNotEnoughReplicas:       {"not enough in-sync replicas", true},
	ErrInvalidRequest:          {"invalid request", false},
	ErrUnsupportedAPI:          {"unsupported api", false},
	ErrBrokerNotAvailable:      {"broker not available", true},
	ErrMessageTooLarge:         {"message too large", false},
	ErrStaleLeaderEpoch:        {"stale leader epoch", true},
	ErrTableNotServed:          {"table not served by this broker", true},
	ErrTableStale:              {"table read exceeds staleness bound", true},
	// The idempotent-produce codes are deliberately NOT retriable:
	// ErrDuplicateSequence is success (the producer treats it as an ack for
	// the original offset), while ErrOutOfOrderSequence and ErrFencedEpoch
	// are terminal — re-sending cannot fix a lost predecessor batch or a
	// fenced zombie, it can only create gaps or duplicates.
	ErrDuplicateSequence:  {"duplicate producer sequence (already appended)", false},
	ErrOutOfOrderSequence: {"out of order producer sequence", false},
	ErrFencedEpoch:        {"producer epoch fenced by newer instance", false},
}

// known reports whether e has an entry in errorCodes.
func (e ErrorCode) known() bool {
	return e >= 0 && int(e) < len(errorCodes) && errorCodes[e].name != ""
}

// String returns a human-readable name for the code.
func (e ErrorCode) String() string {
	if e.known() {
		return errorCodes[e].name
	}
	return fmt.Sprintf("error code %d", int16(e))
}

// protocolError wraps an ErrorCode as a Go error.
type protocolError struct{ code ErrorCode }

func (p *protocolError) Error() string {
	return "liquid: " + p.code.String()
}

// Code extracts the protocol code from an error produced by ErrorCode.Err,
// unwrapping fmt.Errorf %w chains, returning ErrNone for nil and ErrUnknown
// for foreign errors.
func Code(err error) ErrorCode {
	if err == nil {
		return ErrNone
	}
	var pe *protocolError
	if errors.As(err, &pe) {
		return pe.code
	}
	return ErrUnknown
}

// Err converts the code to a Go error (nil for ErrNone). Errors for the same
// code compare equal via Code.
func (e ErrorCode) Err() error {
	if e == ErrNone {
		return nil
	}
	return &protocolError{code: e}
}

// Retriable reports whether a request failing with this code may succeed on
// retry after refreshing metadata. Clients use it to drive their retry
// loops. Codes absent from the table (foreign or future) are not retried.
func (e ErrorCode) Retriable() bool {
	return e.known() && errorCodes[e].retriable
}
