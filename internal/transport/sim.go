package transport

import (
	"errors"
	"fmt"
	"time"

	"infobus/internal/netsim"
)

// SimSegment adapts a netsim.Network to the Segment interface. Addresses
// have the form "sim:<node-id>". The adapter holds no state and starts no
// goroutine: an endpoint is a netsim.Node, its Recv channel the node's
// receive queue.
type SimSegment struct {
	net *netsim.Network
}

// NewSimSegment creates a segment over a fresh simulated network running in
// wall-clock time scaled by cfg.Speedup.
func NewSimSegment(cfg netsim.Config) *SimSegment {
	return &SimSegment{net: netsim.NewNetwork(cfg)}
}

// NewManualSimSegment creates a segment over a fresh simulated network on
// virtual time: its clock reads start until the caller moves it with
// Network().AdvanceTo, and nothing arrives in between.
func NewManualSimSegment(cfg netsim.Config, start time.Time) *SimSegment {
	return &SimSegment{net: netsim.NewManual(cfg, start)}
}

// Network exposes the underlying simulator for fault injection
// (partitions), statistics and, on a manual segment, the clock.
func (s *SimSegment) Network() *netsim.Network { return s.net }

// NewEndpoint attaches a simulated host.
func (s *SimSegment) NewEndpoint(string) (Endpoint, error) {
	node, err := s.net.NewNode()
	if err != nil {
		return nil, mapSimErr(err)
	}
	return simEndpoint{node}, nil
}

// Close shuts down the simulated network.
func (s *SimSegment) Close() error {
	s.net.Close()
	return nil
}

type simEndpoint struct{ node *netsim.Node }

func (e simEndpoint) Addr() string { return e.node.Addr() }

func (e simEndpoint) Send(addr string, payload []byte) error {
	id, ok := netsim.ParseAddr(addr)
	if !ok {
		return fmt.Errorf("%q: %w", addr, ErrBadAddr)
	}
	return mapSimErr(e.node.Send(id, payload))
}

func (e simEndpoint) Broadcast(payload []byte) error {
	return mapSimErr(e.node.SendBroadcast(payload))
}

func (e simEndpoint) Recv() <-chan Datagram { return e.node.Recv() }

func (e simEndpoint) Close() error {
	e.node.Close()
	return nil
}

func mapSimErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, netsim.ErrOversize):
		return fmt.Errorf("%v: %w", err, ErrOversize)
	case errors.Is(err, netsim.ErrClosed):
		return ErrClosed
	default:
		return err
	}
}
