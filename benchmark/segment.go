package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"infobus/internal/busproto"
	"infobus/internal/reliable"
	"infobus/internal/transport"
)

// memSegment is the benchmark's own medium: an in-process transport.Segment
// that is lossless, FIFO per destination, bounded, and blocks the sender
// when a destination's queue is full. Traffic crosses neither netsim nor a
// socket, so every number the benchmark reports is the bus's own CPU and
// queues. It counts what is handed to it: one datagram per Broadcast or
// Send call, as one frame on a broadcast Ethernet.
type memSegment struct {
	name string

	mu  sync.Mutex
	n   int
	eps atomic.Pointer[[]*memEndpoint] // copy-on-write, so Broadcast takes no lock

	datagrams atomic.Uint64
	bytes     atomic.Uint64
	unicasts  atomic.Uint64

	// classify makes the segment look into every datagram and count the
	// "_sys.>" publications in it. It costs a frame decode per datagram, so
	// only traced runs turn it on.
	classify bool
	sysMsgs  atomic.Uint64
	sysBytes atomic.Uint64

	// Layer replay only: tr records a child span around every call, and
	// hold keeps datagrams for the replay to inject itself instead of
	// delivering them.
	tr   *tracer
	hold bool
}

type memEndpoint struct {
	seg  *memSegment
	addr string
	recv chan transport.Datagram

	mu        sync.RWMutex // read-held around a send on recv, so close cannot race it
	closed    bool
	done      chan struct{}
	closeOnce sync.Once

	heldMu sync.Mutex
	held   [][]byte // hold mode: datagrams this endpoint sent, oldest first
}

func newMemSegment(name string) *memSegment {
	s := &memSegment{name: name}
	s.eps.Store(&[]*memEndpoint{})
	return s
}

func (s *memSegment) NewEndpoint(name string) (transport.Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	ep := &memEndpoint{
		seg:  s,
		addr: fmt.Sprintf("mem:%s:%d:%s", s.name, s.n, name),
		recv: make(chan transport.Datagram, segmentQueue),
		done: make(chan struct{}),
	}
	eps := append(append([]*memEndpoint(nil), *s.eps.Load()...), ep)
	s.eps.Store(&eps)
	return ep, nil
}

func (s *memSegment) Close() error {
	for _, ep := range *s.eps.Load() {
		_ = ep.Close()
	}
	return nil
}

func (s *memSegment) remove(ep *memEndpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var eps []*memEndpoint
	for _, e := range *s.eps.Load() {
		if e != ep {
			eps = append(eps, e)
		}
	}
	s.eps.Store(&eps)
}

func (s *memSegment) count(payload []byte, unicast bool) {
	s.datagrams.Add(1)
	s.bytes.Add(uint64(len(payload)))
	if unicast {
		s.unicasts.Add(1)
	}
	if !s.classify {
		return
	}
	for _, m := range reliable.DecodeDataPayloads(payload) {
		if h, err := busproto.Peek(m); err == nil && bytes.HasPrefix(h.Subject, []byte("_sys.")) {
			s.sysMsgs.Add(1)
			s.sysBytes.Add(uint64(len(m)))
		}
	}
}

func (e *memEndpoint) Addr() string { return e.addr }

func (e *memEndpoint) Recv() <-chan transport.Datagram { return e.recv }

// deliver gives dst its own copy of the datagram (the receiver owns it, as
// a kernel socket's copy-out would), blocking while dst's queue is full.
func (e *memEndpoint) deliver(dst *memEndpoint, payload []byte) {
	dg := transport.Datagram{From: e.addr, Payload: append([]byte(nil), payload...)}
	dst.mu.RLock()
	defer dst.mu.RUnlock()
	if dst.closed {
		return
	}
	select {
	case dst.recv <- dg:
	case <-dst.done:
	}
}

func (e *memEndpoint) Broadcast(payload []byte) error {
	s := e.seg
	if s.tr != nil {
		defer s.tr.end(s.tr.begin(spanBroadcast))
	}
	s.count(payload, false)
	if s.hold {
		e.heldMu.Lock()
		e.held = append(e.held, append([]byte(nil), payload...))
		e.heldMu.Unlock()
		return nil
	}
	for _, dst := range *s.eps.Load() {
		if dst != e {
			e.deliver(dst, payload)
		}
	}
	return nil
}

func (e *memEndpoint) Send(addr string, payload []byte) error {
	s := e.seg
	if s.tr != nil {
		defer s.tr.end(s.tr.begin(spanBroadcast))
	}
	for _, dst := range *s.eps.Load() {
		if dst.addr == addr {
			s.count(payload, true)
			if !s.hold {
				e.deliver(dst, payload)
			}
			return nil
		}
	}
	return transport.ErrBadAddr
}

// inject puts a datagram into this endpoint's receive queue as if from
// addr; the layer replay uses it to hand a held datagram to a receiver.
func (e *memEndpoint) inject(from string, payload []byte) {
	e.recv <- transport.Datagram{From: from, Payload: payload}
}

// takeHeld returns and forgets the datagrams sent since the last call.
func (e *memEndpoint) takeHeld() [][]byte {
	e.heldMu.Lock()
	defer e.heldMu.Unlock()
	h := e.held
	e.held = nil
	return h
}

func (e *memEndpoint) Close() error {
	e.closeOnce.Do(func() {
		e.seg.remove(e)
		close(e.done) // unblocks senders waiting on a full queue
		e.mu.Lock()
		e.closed = true
		close(e.recv)
		e.mu.Unlock()
	})
	return nil
}
