// Package client implements the messaging layer's client side: framed
// connections, a cluster-aware metadata cache, a batching producer with
// pluggable partitioners, partition consumers with long-poll fetches, and
// consumer groups with client-side assignment (paper §3.1). The processing
// layer and all back-end examples are built on these primitives.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// ErrConnClosed reports use of a closed connection.
var ErrConnClosed = errors.New("client: connection closed")

// Dialer opens a transport connection to a broker address. The default is
// plain TCP (net.DialTimeout); fault-injection harnesses substitute a dialer
// that wraps connections with chaos transports (internal/chaos).
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

// defaultDialer is the production TCP dialer.
func defaultDialer(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// Conn is a synchronous framed protocol connection. One request is in
// flight at a time per Conn; components that block server-side (long-poll
// fetches, group joins) use dedicated connections.
type Conn struct {
	mu       sync.Mutex
	nc       net.Conn
	clientID string
	nextCorr int32
	closed   bool
}

// Dial connects to a broker address over plain TCP.
func Dial(addr, clientID string, timeout time.Duration) (*Conn, error) {
	return DialWith(nil, addr, clientID, timeout)
}

// DialWith connects to a broker address through the given dialer (nil means
// plain TCP). Components that dial on behalf of a configured client or
// broker route through this so an injected transport sees every connection.
func DialWith(dial Dialer, addr, clientID string, timeout time.Duration) (*Conn, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if dial == nil {
		dial = defaultDialer
	}
	nc, err := dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return &Conn{nc: nc, clientID: clientID}, nil
}

// RoundTrip sends a request and decodes the response body into resp.
func (c *Conn) RoundTrip(api wire.APIKey, req, resp wire.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrConnClosed
	}
	c.nextCorr++
	hdr := wire.RequestHeader{API: api, CorrelationID: c.nextCorr, ClientID: c.clientID}
	if err := c.send(&hdr, req); err != nil {
		return err
	}
	// The response frame is freshly allocated per round trip: decoded
	// messages (including zero-copy fetch Records) may alias it safely.
	payload, err := wire.ReadFrame(c.nc)
	if err != nil {
		c.closeLocked()
		return fmt.Errorf("client: recv: %w", err)
	}
	corr, r, err := wire.DecodeResponse(payload)
	if err != nil {
		c.closeLocked()
		return err
	}
	if corr != hdr.CorrelationID {
		c.closeLocked()
		return fmt.Errorf("client: correlation mismatch: got %d want %d", corr, hdr.CorrelationID)
	}
	resp.Decode(r)
	if err := r.Err(); err != nil {
		c.closeLocked()
		return err
	}
	return nil
}

// SendOnly writes a request without waiting for a response. Used for
// acks=0 produces, where the broker does not reply (the minimum-durability
// point of the paper's §4.3 trade-off).
func (c *Conn) SendOnly(api wire.APIKey, req wire.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrConnClosed
	}
	c.nextCorr++
	hdr := wire.RequestHeader{API: api, CorrelationID: c.nextCorr, ClientID: c.clientID}
	if err := c.send(&hdr, req); err != nil {
		return err
	}
	return nil
}

// SetDeadline bounds the next I/O operations.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrConnClosed
	}
	return c.nc.SetDeadline(t)
}

// send writes one request frame. A request that cannot be encoded
// (wire.ErrEncode) writes nothing and leaves the connection usable; any
// other failure closes it.
func (c *Conn) send(hdr *wire.RequestHeader, req wire.Message) error {
	err := wire.WriteRequestFrame(c.nc, hdr, req)
	if err == nil {
		return nil
	}
	if !errors.Is(err, wire.ErrEncode) {
		c.closeLocked()
	}
	return fmt.Errorf("client: send: %w", err)
}

func (c *Conn) closeLocked() {
	if !c.closed {
		c.closed = true
		c.nc.Close()
	}
}

// Close closes the connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeLocked()
	return nil
}

// Closed reports whether the connection has been closed.
func (c *Conn) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}
