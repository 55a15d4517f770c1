package transport

import (
	"fmt"
	"net"
	"strings"
	"sync"
)

// UDPSegment is a broadcast domain over real UDP sockets bound to the
// loopback interface. It exercises the paper's actual code path — "UDP
// packets in combination with a retransmission protocol" — against the
// kernel network stack. Broadcast is emulated by unicast fan-out to the
// segment's member list, the same strategy the paper's information routers
// use on networks without Ethernet broadcast.
type UDPSegment struct {
	mu      sync.Mutex
	closed  bool
	members map[string]*udpEndpoint // addr -> endpoint
}

// NewUDPSegment creates an empty UDP segment.
func NewUDPSegment() *UDPSegment {
	return &UDPSegment{members: make(map[string]*udpEndpoint)}
}

// NewEndpoint binds a UDP socket on 127.0.0.1 with a kernel-assigned port.
func (s *UDPSegment) NewEndpoint(name string) (Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("transport: binding UDP socket: %w", err)
	}
	ep := newUDPEndpoint(conn, s.peersOf, s.remove)
	s.members[ep.addr] = ep
	return ep, nil
}

// Close shuts down the segment and all endpoints.
func (s *UDPSegment) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	eps := make([]*udpEndpoint, 0, len(s.members))
	for _, ep := range s.members {
		eps = append(eps, ep)
	}
	s.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

// peersOf lists every member but self: the broadcast destinations of the
// endpoint bound to self.
func (s *UDPSegment) peersOf(self string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.members))
	for a := range s.members {
		if a != self {
			out = append(out, a)
		}
	}
	return out
}

func (s *UDPSegment) remove(addr string) {
	s.mu.Lock()
	delete(s.members, addr)
	s.mu.Unlock()
}

// udpEndpoint is one bound UDP socket, shared by both UDP segments: the
// segment supplies who a broadcast reaches and what closing must undo.
type udpEndpoint struct {
	conn      *net.UDPConn
	addr      string                     // "udp:" + the bound local address
	peers     func(self string) []string // broadcast destinations, "udp:host:port"
	onClose   func(self string)          // segment bookkeeping; nil for none
	out       chan Datagram
	done      chan struct{}
	closeOnce sync.Once
}

// newUDPEndpoint wraps a bound socket and starts its read loop.
func newUDPEndpoint(conn *net.UDPConn, peers func(self string) []string, onClose func(self string)) *udpEndpoint {
	ep := &udpEndpoint{
		conn:    conn,
		addr:    "udp:" + conn.LocalAddr().String(),
		peers:   peers,
		onClose: onClose,
		// Receive queue, standing in for the kernel socket buffer: when
		// the reader falls this far behind, datagrams are dropped.
		out:  make(chan Datagram, 1024),
		done: make(chan struct{}),
	}
	go ep.readLoop()
	return ep
}

const maxUDPDatagram = 64 << 10

func (e *udpEndpoint) Addr() string { return e.addr }

func (e *udpEndpoint) Send(addr string, payload []byte) error {
	if len(payload) > maxUDPDatagram {
		return fmt.Errorf("%d bytes: %w", len(payload), ErrOversize)
	}
	host, ok := strings.CutPrefix(addr, "udp:")
	if !ok {
		return fmt.Errorf("%q: %w", addr, ErrBadAddr)
	}
	udpAddr, err := net.ResolveUDPAddr("udp4", host)
	if err != nil {
		return fmt.Errorf("%q: %w", addr, ErrBadAddr)
	}
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	_, err = e.conn.WriteToUDP(payload, udpAddr)
	return err
}

func (e *udpEndpoint) Broadcast(payload []byte) error {
	var firstErr error
	for _, addr := range e.peers(e.addr) {
		if err := e.Send(addr, payload); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (e *udpEndpoint) Recv() <-chan Datagram { return e.out }

func (e *udpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		if e.onClose != nil {
			e.onClose(e.addr)
		}
		_ = e.conn.Close()
	})
	return nil
}

func (e *udpEndpoint) readLoop() {
	defer close(e.out)
	buf := make([]byte, maxUDPDatagram)
	for {
		n, from, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		payload := append([]byte(nil), buf[:n]...)
		select {
		case e.out <- Datagram{From: "udp:" + from.String(), Payload: payload}:
		case <-e.done:
			return
		default:
			// Receive queue full: drop, like a kernel socket buffer.
		}
	}
}
