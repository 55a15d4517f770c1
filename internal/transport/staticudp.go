package transport

import (
	"fmt"
	"net"
	"strings"
	"sync"
)

// StaticUDPSegment is a broadcast domain over real UDP sockets with a
// statically configured peer list, for running bus hosts in separate OS
// processes (cmd/busd, cmd/ibmon, cmd/ibrouter, cmd/ibrepo): each process
// knows the listen addresses of the others, and Broadcast is a unicast
// fan-out to that list — the strategy the paper's routers use where
// Ethernet broadcast is unavailable.
//
// The first NewEndpoint call binds the configured listen address (the
// identity other processes know); subsequent endpoints (RMI channels,
// routers) bind ephemeral ports but share the peer list.
type StaticUDPSegment struct {
	listen string
	peers  []string // "udp:host:port" destination addresses

	mu        sync.Mutex
	boundMain bool
	closed    bool
	eps       []*udpEndpoint
}

// NewStaticUDPSegment creates a segment that listens on listen
// ("host:port") and broadcasts to peers (each "host:port").
func NewStaticUDPSegment(listen string, peers []string) *StaticUDPSegment {
	s := &StaticUDPSegment{listen: listen}
	for _, p := range peers {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.HasPrefix(p, "udp:") {
			p = "udp:" + p
		}
		s.peers = append(s.peers, p)
	}
	return s
}

// NewEndpoint binds a socket: the segment's listen address for the first
// endpoint, ephemeral ports afterwards.
func (s *StaticUDPSegment) NewEndpoint(name string) (Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	bindAddr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	if !s.boundMain && s.listen != "" {
		a, err := net.ResolveUDPAddr("udp4", s.listen)
		if err != nil {
			return nil, fmt.Errorf("transport: listen address %q: %w", s.listen, ErrBadAddr)
		}
		bindAddr = a
	}
	conn, err := net.ListenUDP("udp4", bindAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: binding %v: %w", bindAddr, err)
	}
	s.boundMain = true
	ep := newUDPEndpoint(conn, s.peerList, nil)
	s.eps = append(s.eps, ep)
	return ep, nil
}

// Close shuts down every endpoint created on the segment.
func (s *StaticUDPSegment) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	eps := append([]*udpEndpoint(nil), s.eps...)
	s.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

// peerList is the configured list as is: a process that names its own
// listen address hears its own broadcasts.
func (s *StaticUDPSegment) peerList(string) []string { return s.peers }
