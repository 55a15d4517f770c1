package rmi

import (
	"fmt"
	"sync"

	"time"

	"infobus/internal/core"
	"infobus/internal/discovery"
	"infobus/internal/mop"
	"infobus/internal/reliable"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
	"infobus/internal/wire"
)

// ServerOptions tune an RMI server.
type ServerOptions struct {
	// Load reports the server's current load for client-side balancing
	// (PickLeastLoaded). Nil reports zero.
	Load func() int64
	// Standby makes the server hold back from discovery until Promote is
	// called — the "servers decide among themselves" policy: a hot
	// standby takes over the subject the moment the primary retires (R1).
	Standby bool
	// Reliable tunes the point-to-point channel.
	Reliable reliable.Config
}

// replyCache bounds the exactly-once reply cache (oldest reply evicted).
const replyCache = 1024

// Server serves method invocations for a service subject.
type Server struct {
	service string
	iface   *mop.Type
	handler Handler
	bus     *core.Bus
	conn    *reliable.Conn
	reg     *mop.Registry
	opts    ServerOptions

	// Host-registry telemetry (aggregated across the host's servers).
	mInvoked  *telemetry.Counter
	mReplayed *telemetry.Counter
	mHandleNs *telemetry.Histogram

	mu        sync.Mutex
	announcer *discovery.Announcer
	cache     map[string]cachedReply // request id -> reply payload
	cacheFIFO []string
	invoked   uint64
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup
}

type cachedReply struct {
	payload []byte
	from    string
}

// NewServer creates a server object for a service subject. iface is the
// service's interface class (its Operations define the callable methods);
// handler executes them. The server listens on its own point-to-point
// endpoint on seg and, unless Standby, announces itself immediately.
func NewServer(bus *core.Bus, seg transport.Segment, service string, iface *mop.Type, handler Handler, opts ServerOptions) (*Server, error) {
	if iface == nil || iface.Kind() != mop.KindClass {
		return nil, fmt.Errorf("rmi: interface must be a class: %w", mop.ErrNotAClass)
	}
	ep, err := seg.NewEndpoint("rmi:" + service)
	if err != nil {
		return nil, err
	}
	metrics := bus.Host().Metrics()
	s := &Server{
		service:   service,
		iface:     iface,
		handler:   handler,
		bus:       bus,
		conn:      reliable.New(ep, opts.Reliable),
		reg:       bus.Registry(),
		opts:      opts,
		cache:     make(map[string]cachedReply),
		done:      make(chan struct{}),
		mInvoked:  metrics.Counter("rmi.server.invoked"),
		mReplayed: metrics.Counter("rmi.server.replayed"),
		mHandleNs: metrics.Histogram("rmi.server.handle_ns"),
	}
	// Identical re-registration returns nil; a true conflict is fatal.
	if err := s.reg.Register(iface); err != nil {
		_ = s.conn.Close()
		return nil, err
	}
	s.wg.Add(1)
	go s.serveLoop()
	if !opts.Standby {
		if err := s.Promote(); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Addr returns the server's point-to-point address.
func (s *Server) Addr() string { return s.conn.Addr() }

// Invoked returns the number of executed (non-cached) invocations.
func (s *Server) Invoked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.invoked
}

// Promote starts answering discovery queries (a no-op if already active).
// A standby server calls this to take over the service subject.
func (s *Server) Promote() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.announcer != nil {
		return nil
	}
	a, err := discovery.Announce(s.bus, s.service, s.infoObject)
	if err != nil {
		return err
	}
	s.announcer = a
	return nil
}

// Retire stops answering discovery queries while continuing to serve
// already-connected clients — the paper's live-upgrade sequence: "The old
// server can be taken off-line after it has satisfied all of its
// outstanding requests."
func (s *Server) Retire() {
	s.mu.Lock()
	a := s.announcer
	s.announcer = nil
	s.mu.Unlock()
	if a != nil {
		a.Close()
	}
}

// Close shuts the server down.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	a := s.announcer
	s.announcer = nil
	close(s.done)
	s.mu.Unlock()
	if a != nil {
		a.Close()
	}
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

// infoObject builds the discovery "I am" payload.
func (s *Server) infoObject() mop.Value {
	var load int64
	if s.opts.Load != nil {
		load = s.opts.Load()
	}
	// The prototype instance carries the interface class descriptor —
	// including operation signatures — across the wire.
	proto, err := mop.New(s.iface)
	var ifaceVal mop.Value
	if err == nil {
		ifaceVal = proto
	}
	return mop.MustNew(ServerInfoType).
		MustSet("addr", s.Addr()).
		MustSet("load", load).
		MustSet("iface", ifaceVal)
}

func (s *Server) serveLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case m, ok := <-s.conn.Recv():
			if !ok {
				return
			}
			s.handleRequest(m)
		}
	}
}

func (s *Server) handleRequest(m reliable.Message) {
	v, err := wire.Unmarshal(m.Payload, s.reg)
	if err != nil {
		return
	}
	req, ok := v.(*mop.Object)
	if !ok || req.Type().Name() != RequestType.Name() {
		return
	}
	id, _ := req.Get("id")
	reqID, ok := id.(string)
	if !ok {
		return
	}
	// Exactly-once: a retried request is answered from the cache without
	// re-executing the method.
	s.mu.Lock()
	if cached, hit := s.cache[reqID]; hit {
		s.mu.Unlock()
		s.mReplayed.Inc()
		_ = s.conn.SendTo(m.From, cached.payload)
		return
	}
	s.mu.Unlock()

	opV, _ := req.Get("op")
	argsV, _ := req.Get("args")
	op, _ := opV.(string)
	var args []mop.Value
	if l, ok := argsV.(mop.List); ok {
		args = l
	}

	start := time.Now()
	result, invokeErr := s.invoke(op, args)
	s.mHandleNs.Observe(time.Since(start))
	reply := mop.MustNew(ReplyType).MustSet("id", reqID)
	if invokeErr != nil {
		reply.MustSet("ok", false).MustSet("error", invokeErr.Error())
	} else {
		reply.MustSet("ok", true)
		if err := reply.Set("result", result); err != nil {
			reply.MustSet("ok", false).MustSet("error", "rmi: result not transmissible: "+err.Error())
		}
	}
	payload, err := wire.Marshal(reply)
	if err != nil {
		return
	}
	s.mInvoked.Inc()
	s.mu.Lock()
	s.invoked++
	s.cache[reqID] = cachedReply{payload: payload, from: m.From}
	s.cacheFIFO = append(s.cacheFIFO, reqID)
	for len(s.cacheFIFO) > replyCache {
		delete(s.cache, s.cacheFIFO[0])
		s.cacheFIFO = s.cacheFIFO[1:]
	}
	s.mu.Unlock()
	_ = s.conn.SendTo(m.From, payload)
}

// invoke validates the operation against the interface and runs the
// handler.
func (s *Server) invoke(op string, args []mop.Value) (mop.Value, error) {
	decl, ok := s.iface.Operation(op)
	if !ok {
		return nil, fmt.Errorf("%s.%s: %w", s.iface.Name(), op, ErrBadOp)
	}
	if len(args) != len(decl.Params) {
		return nil, fmt.Errorf("%s takes %d args, got %d: %w", decl.Signature(), len(decl.Params), len(args), ErrBadArgCount)
	}
	for i, p := range decl.Params {
		if err := mop.CheckValue(p.Type, args[i]); err != nil {
			return nil, fmt.Errorf("argument %q: %w", p.Name, err)
		}
	}
	if s.handler == nil {
		return nil, fmt.Errorf("%s: %w", op, ErrBadOp)
	}
	return s.handler(op, args)
}
