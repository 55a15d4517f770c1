package bench

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/reliable"
	"infobus/internal/router"
	"infobus/internal/subject"
	"infobus/internal/transport"
)

// A15: the router's zero-copy data plane. Unlike the netsim figures, A15
// is a CPU measurement: the question is how many publications per second
// the forwarding engine itself can move — peek, interest match, and
// re-publish onto each egress reliable stream — not how a modelled medium
// paces them. The harness builds a production Router bridging four
// in-process "pipe" segments, propagates interest for the flow over the
// wire exactly as daemons would (one subscriber per egress advertises
// "bench.>", then detaches), and then drives publications through the
// engine with Router.Inject. Egress Publish runs the full reliable send
// path — window copy, retransmit retention, frame encode — into a segment
// with no remaining listeners, so the engine's own cost dominates and is
// not diluted by consumer-side protocol work. The decode/re-encode engine
// this was first measured against is gone from the router; its numbers are
// kept, dated, in EXPERIMENTS.md A15.

// RouterForwardRow is one payload-size point in the A15 table.
type RouterForwardRow struct {
	PayloadBytes int
	Msgs         int // publications injected at the ingress
	Egresses     int // subscriber-bearing segments fanned out to
	Elapsed      time.Duration
	MsgsPerSec   float64 // ingress publications through the engine per second
}

// pipeSegment is the in-process transport: lossless, per-destination FIFO,
// bounded buffering (a full receiver exerts backpressure instead of
// dropping — loss would put the reliable protocol's NAK machinery, not the
// forwarding engine, under test).
type pipeSegment struct {
	mu  sync.Mutex
	eps map[string]*pipeEndpoint
	n   int
}

type pipeEndpoint struct {
	seg    *pipeSegment
	addr   string
	recv   chan transport.Datagram
	closed atomic.Bool
	// scratch is Broadcast's destination snapshot, reused across calls;
	// safe because a Conn serializes sends on its endpoint.
	scratch []*pipeEndpoint
}

func newPipeSegment() *pipeSegment {
	return &pipeSegment{eps: make(map[string]*pipeEndpoint)}
}

func (s *pipeSegment) NewEndpoint(name string) (transport.Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	ep := &pipeEndpoint{
		seg:  s,
		addr: fmt.Sprintf("pipe:%d:%s", s.n, name),
		recv: make(chan transport.Datagram, 4096),
	}
	s.eps[ep.addr] = ep
	return ep, nil
}

func (s *pipeSegment) Close() error {
	s.mu.Lock()
	eps := make([]*pipeEndpoint, 0, len(s.eps))
	for _, ep := range s.eps {
		eps = append(eps, ep)
	}
	s.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
	return nil
}

func (e *pipeEndpoint) Addr() string { return e.addr }

func (e *pipeEndpoint) deliver(from string, payload []byte) {
	if e.closed.Load() {
		return
	}
	// The receiver owns its datagram (transport contract), so each
	// destination gets its own copy — the same per-destination memcpy a
	// kernel socket would perform.
	dg := transport.Datagram{From: from, Payload: append([]byte(nil), payload...)}
	defer func() { recover() }() // send on closed channel during shutdown
	e.recv <- dg
}

func (e *pipeEndpoint) Send(addr string, payload []byte) error {
	e.seg.mu.Lock()
	dst, ok := e.seg.eps[addr]
	e.seg.mu.Unlock()
	if !ok {
		return transport.ErrBadAddr
	}
	dst.deliver(e.addr, payload)
	return nil
}

func (e *pipeEndpoint) Broadcast(payload []byte) error {
	e.seg.mu.Lock()
	dsts := e.scratch[:0]
	for _, dst := range e.seg.eps {
		if dst != e {
			dsts = append(dsts, dst)
		}
	}
	e.scratch = dsts
	e.seg.mu.Unlock()
	for _, dst := range dsts {
		dst.deliver(e.addr, payload)
	}
	return nil
}

func (e *pipeEndpoint) Recv() <-chan transport.Datagram { return e.recv }

func (e *pipeEndpoint) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		e.seg.mu.Lock()
		delete(e.seg.eps, e.addr)
		e.seg.mu.Unlock()
		close(e.recv)
	}
	return nil
}

// seedInterest attaches a short-lived subscriber conn to seg, advertises
// the flow patterns over the wire (so the router's interest table is built
// by the production path: reliable stream, join grace, recordInterest),
// waits until the router wants the flow on that segment, and detaches.
func seedInterest(rt *router.Router, seg *pipeSegment, segName string, relCfg reliable.Config, flow subject.Subject) error {
	ep, err := seg.NewEndpoint("sub-" + segName)
	if err != nil {
		return err
	}
	conn := reliable.New(ep, relCfg)
	defer conn.Close()
	go func() {
		for range conn.Recv() {
		}
	}()
	ad := busproto.Encode(busproto.Envelope{
		Kind: busproto.KindInterest, Patterns: []string{"bench.>"},
	})
	deadline := time.Now().Add(15 * time.Second)
	for !rt.WantsOn(segName, flow) {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: interest never propagated to %s", segName)
		}
		if err := conn.Publish(ad); err != nil {
			return err
		}
		if err := conn.Flush(); err != nil {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// MeasureRouterForward runs one A15 row: build the rig, seed interest
// over the wire, then time msgs publications through the forwarding engine
// to every egress.
func MeasureRouterForward(egresses, payloadBytes, msgs int) (RouterForwardRow, error) {
	row := RouterForwardRow{PayloadBytes: payloadBytes, Msgs: msgs, Egresses: egresses}
	// Lossless FIFO pipes never NAK or gap-skip, so the protocol timers
	// only pace interest propagation (join grace, housekeeping ticks).
	relCfg := reliable.Config{
		NakInterval:        20 * time.Millisecond,
		GapTimeout:         5 * time.Second,
		RetransmitInterval: 50 * time.Millisecond,
		HeartbeatInterval:  time.Second,
		JoinGrace:          2 * time.Millisecond,
	}
	segs := make([]*pipeSegment, egresses+1)
	atts := make([]router.Attachment, egresses+1)
	names := make([]string, egresses+1)
	for i := range segs {
		segs[i] = newPipeSegment()
		names[i] = "ingress"
		if i > 0 {
			names[i] = fmt.Sprintf("egress%d", i)
		}
		atts[i] = router.Attachment{Segment: segs[i], Name: names[i]}
	}
	rt, err := router.New(router.Options{
		Name:        "a15",
		Reliable:    relCfg,
		InterestTTL: 5 * time.Minute,
	}, atts...)
	if err != nil {
		return row, err
	}
	defer rt.Close()
	defer func() {
		for _, s := range segs {
			_ = s.Close()
		}
	}()

	flow := subject.MustParse("bench.forward.flow")
	for i := 1; i <= egresses; i++ {
		if err := seedInterest(rt, segs[i], names[i], relCfg, flow); err != nil {
			return row, err
		}
	}

	frame := busproto.Encode(busproto.Envelope{
		Kind: busproto.KindPublish, Subject: flow.String(),
		Payload: make([]byte, payloadBytes),
	})
	before := rt.Stats().Forwarded
	const warm = 2000
	for i := 0; i < warm; i++ {
		if err := rt.Inject("ingress", "flowpub", frame); err != nil {
			return row, err
		}
	}
	if got := rt.Stats().Forwarded - before; got != uint64(warm*egresses) {
		return row, fmt.Errorf("bench: warmup forwarded %d, want %d", got, warm*egresses)
	}

	// Best of a few repetitions: the measurement is pure CPU, so scheduler
	// preemption and GC pauses only ever slow a run down — the fastest
	// repetition is the engine's true rate (same reasoning as the alloc
	// budgets' minimum-over-attempts).
	const reps = 3
	for rep := 0; rep < reps; rep++ {
		before = rt.Stats().Forwarded
		t0 := time.Now()
		for i := 0; i < msgs; i++ {
			if err := rt.Inject("ingress", "flowpub", frame); err != nil {
				return row, err
			}
		}
		elapsed := time.Since(t0)
		if got := rt.Stats().Forwarded - before; got != uint64(msgs*egresses) {
			return row, fmt.Errorf("bench: forwarded %d, want %d", got, msgs*egresses)
		}
		if rep == 0 || elapsed < row.Elapsed {
			row.Elapsed = elapsed
			row.MsgsPerSec = float64(msgs) / elapsed.Seconds()
		}
	}
	return row, nil
}

// FigureA15 measures the forwarding engine across payload sizes on the
// same 4-segment fan-out.
func FigureA15(sizes []int, msgs int) ([]RouterForwardRow, error) {
	if len(sizes) == 0 {
		sizes = []int{64, 512, 4096}
	}
	if msgs <= 0 {
		msgs = 20000
	}
	const egresses = 3
	var rows []RouterForwardRow
	for _, size := range sizes {
		row, err := MeasureRouterForward(egresses, size, msgs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFigureA15 renders the forwarding-throughput table.
func PrintFigureA15(w io.Writer, rows []RouterForwardRow) {
	fmt.Fprintln(w, "A15: zero-copy router data plane (4-segment router, ingress -> 3 subscriber")
	fmt.Fprintln(w, "     egresses; engine-driven, CPU-bound — wall time, not modelled network time)")
	fmt.Fprintf(w, "%8s %8s %10s %12s %10s\n", "payload", "msgs", "elapsed", "msgs/s", "ns/msg")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %10s %12.0f %10.0f\n",
			r.PayloadBytes, r.Msgs, r.Elapsed.Round(time.Millisecond),
			r.MsgsPerSec, 1e9/r.MsgsPerSec)
	}
}
