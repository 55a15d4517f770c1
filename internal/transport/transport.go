// Package transport abstracts the unreliable datagram layer beneath the
// Information Bus. The paper's implementation sends UDP packets over
// Ethernet broadcast; this package provides that datagram service behind an
// interface with two implementations:
//
//   - Segment backed by the netsim simulated Ethernet (the appendix figures
//     on its wall-clock driver, deterministic protocol tests on its manual
//     one), and
//   - Segment backed by real UDP sockets on the loopback interface, which
//     exercises the identical protocol stack over the kernel's network path
//     (broadcast emulated by unicast fan-out, as the paper's information
//     routers do on networks without broadcast).
//
// Everything above this layer — the reliable delivery protocol, the
// per-host daemon, the bus — is transport-agnostic.
package transport

import (
	"errors"

	"infobus/internal/netsim"
)

// Datagram is one received unreliable datagram: From is the sender's
// point-to-point address, Payload the datagram body, which the receiver
// owns. The type is the simulator's so that a simulated node's receive
// queue is the endpoint's Recv channel, with no goroutine converting
// between the two.
type Datagram = netsim.Datagram

// Endpoint is one host's attachment to a network segment. Datagrams may be
// lost, duplicated, reordered, or dropped on overflow; they are never
// corrupted (the model of §2: fail-stop nodes, lossy network).
type Endpoint interface {
	// Addr returns this endpoint's point-to-point address, usable as a
	// Send destination from any endpoint on the same segment.
	Addr() string
	// Send transmits a unicast datagram to addr.
	Send(addr string, payload []byte) error
	// Broadcast transmits a datagram to every other endpoint on the
	// segment. The sender does not receive its own broadcasts.
	Broadcast(payload []byte) error
	// Recv returns the endpoint's receive channel. It is closed when the
	// endpoint (or the segment) closes.
	Recv() <-chan Datagram
	// Close detaches the endpoint.
	Close() error
}

// Segment is a broadcast domain on which endpoints can be created: one
// Ethernet subnet in the paper's deployment. Information routers bridge
// segments (§3.1).
type Segment interface {
	// NewEndpoint attaches a new host interface to the segment. The name
	// is informational (host names in monitoring output).
	NewEndpoint(name string) (Endpoint, error)
	// Close shuts down the segment and all of its endpoints.
	Close() error
}

// Common transport errors.
var (
	ErrClosed   = errors.New("transport: closed")
	ErrBadAddr  = errors.New("transport: bad or unknown address")
	ErrOversize = errors.New("transport: datagram too large")
)
