package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/mop"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/transport"
)

// The first byte of a reliable frame is its type (internal/reliable's
// frame.go): the frames this file weighs.
const (
	frameData  = 1 // broadcast data
	frameUData = 3 // unicast data
	frameUAck  = 4 // unicast ack
)

// tapSeg is a segment whose endpoints keep a copy of every datagram they
// send.
type tapSeg struct {
	transport.Segment
	mu   sync.Mutex
	sent []tapped
}

type tapped struct {
	from, to string // to is "" for a broadcast
	frame    []byte
}

func (s *tapSeg) NewEndpoint(name string) (transport.Endpoint, error) {
	ep, err := s.Segment.NewEndpoint(name)
	if err != nil {
		return nil, err
	}
	return tapEndpoint{ep, s}, nil
}

func (s *tapSeg) frames() []tapped {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]tapped(nil), s.sent...)
}

type tapEndpoint struct {
	transport.Endpoint
	s *tapSeg
}

func (e tapEndpoint) keep(to string, frame []byte) {
	e.s.mu.Lock()
	e.s.sent = append(e.s.sent, tapped{e.Addr(), to, bytes.Clone(frame)})
	e.s.mu.Unlock()
}

func (e tapEndpoint) Send(addr string, frame []byte) error {
	e.keep(addr, frame)
	return e.Endpoint.Send(addr, frame)
}

func (e tapEndpoint) Broadcast(frame []byte) error {
	e.keep("", frame)
	return e.Endpoint.Broadcast(frame)
}

// Byte budgets of a default host's frames, for sequence numbers and ledger
// ids below 2^21 (3 uvarint bytes) and payloads below 16 KB (2). An epoch is
// 5 bytes and an origin token 8; 64-bit epochs (10 bytes) and tokens of
// "<address>#<16 hex digits>" (28 on the benchmark's medium) overran each.
const (
	// type 1, epoch 5, count 1, sequence 3, length 2
	dataOverheadBudget = 12
	// length 1, token 8
	originFieldBudget = 9
	// The envelope (kind 1, id 3, origin 9), the unicast data frame around
	// it (type 1, epoch 5, count 1, sequence 3, length 1) and the ack of
	// that frame (type 1, epoch 5, cumulative sequence 3).
	ackBudget = 13 + 11 + 9
)

// TestFrameOverheadBudget: what a default host's frames cost around what
// they carry, measured on the frames two hosts send for one plain and one
// guaranteed publication. A broadcast data frame of one message adds at most
// dataOverheadBudget bytes to its envelope; a guaranteed envelope's origin
// field is at most originFieldBudget bytes; and the acknowledgement of one
// guaranteed id — its envelope in a unicast data frame, plus the reliable
// ack of that frame — comes to at most ackBudget bytes.
func TestFrameOverheadBudget(t *testing.T) {
	seg := &tapSeg{Segment: fastSeg()}
	defer seg.Close()
	pubHost := newHost(t, seg, "pub", HostConfig{
		LedgerPath:    filepath.Join(t.TempDir(), "pub.ledger"),
		RetryInterval: time.Minute, // one copy of each frame
	})
	subHost := newHost(t, seg, "sub", HostConfig{})
	pubBus, _ := pubHost.NewBus("app")
	subBus, _ := subHost.NewBus("app")
	sub, err := subBus.Subscribe("budget.>")
	if err != nil {
		t.Fatal(err)
	}
	obj := mop.MustNew(thicknessType()).MustSet("station", "litho8").MustSet("microns", 2.5)
	if err := pubBus.Publish("budget.plain", obj); err != nil {
		t.Fatal(err)
	}
	if _, err := pubBus.PublishGuaranteed("budget.guaranteed", obj); err != nil {
		t.Fatal(err)
	}
	recvEvent(t, sub, 5*time.Second)
	recvEvent(t, sub, 5*time.Second)
	pending := pubHost.Metrics().Gauge("ledger.pending")
	for deadline := time.Now().Add(10 * time.Second); pending.Load() > 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the guaranteed publication was never acknowledged")
		}
	}

	pubAddr, subAddr := pubHost.Daemon().Addr(), subHost.Daemon().Addr()
	var data, origins, uacks, ackBytes int
	acks := map[string]bool{} // a unicast retransmission is the same frame
	for _, f := range seg.frames() {
		payloads := reliable.DecodeDataPayloads(f.frame)
		switch {
		case f.from == pubAddr && f.frame[0] == frameData && len(payloads) == 1:
			h, err := busproto.Peek(payloads[0])
			if err != nil || (h.Base() != busproto.KindPublish && h.Base() != busproto.KindGuaranteed) {
				continue
			}
			data++
			if n := len(f.frame) - len(payloads[0]); n > dataOverheadBudget {
				t.Errorf("a one-message data frame adds %d bytes to its %d-byte envelope, budget %d",
					n, len(payloads[0]), dataOverheadBudget)
			}
			if h.Base() == busproto.KindGuaranteed {
				origins++
				if n := len(binary.AppendUvarint(nil, uint64(len(h.Origin)))) + len(h.Origin); n > originFieldBudget {
					t.Errorf("a guaranteed envelope's origin field is %d bytes, budget %d", n, originFieldBudget)
				}
			}
		case f.from == subAddr && f.frame[0] == frameUData && len(payloads) == 1:
			if h, err := busproto.Peek(payloads[0]); err == nil && h.Kind == busproto.KindGuarAck && h.Runs == nil && !acks[string(f.frame)] {
				acks[string(f.frame)] = true
				ackBytes += len(f.frame)
			}
		case f.from == pubAddr && f.to == subAddr && f.frame[0] == frameUAck && uacks == 0:
			uacks++
			ackBytes += len(f.frame)
		}
	}
	if data != 2 || origins != 1 || len(acks) != 1 || uacks != 1 {
		t.Fatalf("weighed %d data frames (%d guaranteed), %d envelope acks and %d reliable acks; want 2 (1), 1 and 1",
			data, origins, len(acks), uacks)
	}
	if ackBytes > ackBudget {
		t.Errorf("the acknowledgement of one id costs %d bytes on the wire, budget %d", ackBytes, ackBudget)
	}
}

// TestSameSeedDistinctOrigins: two publishers built with the same nonzero
// Seed on one manual segment get distinct origin tokens, so a consumer tells
// their ledger ids apart: the guaranteed publications of both — the same ids,
// 1 to 3 — reach it exactly once each.
func TestSameSeedDistinctOrigins(t *testing.T) {
	seg := transport.NewManualSimSegment(netsim.DefaultConfig(), virtualStart)
	defer seg.Close()
	dir := t.TempDir()
	publisher := func(name string) (*Host, *Bus) {
		cfg := HostConfig{LedgerPath: filepath.Join(dir, name), Reliable: fastReliable()}
		cfg.Reliable.Seed = 5
		h := newHost(t, seg, name, cfg)
		b, err := h.NewBus("app")
		if err != nil {
			t.Fatal(err)
		}
		return h, b
	}
	aHost, aBus := publisher("a")
	bHost, bBus := publisher("b")
	if a, b := aHost.Daemon().Identity(), bHost.Daemon().Identity(); a == b {
		t.Fatalf("two hosts with the same seed share the origin token %x", a)
	}
	consumer := newHost(t, seg, "consumer", HostConfig{})
	cBus, _ := consumer.NewBus("app")
	sub, err := cBus.Subscribe("same.>")
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	for i := 0; i < n; i++ {
		for _, b := range []*Bus{aBus, bBus} {
			obj := mop.MustNew(thicknessType()).MustSet("station", "litho8").MustSet("microns", float64(i))
			if _, err := b.PublishGuaranteed("same."+b.Host().Name(), obj); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := map[string]int{}
	total := 0
	drained := func() bool {
		return aHost.Metrics().Gauge("ledger.pending").Load() == 0 && bHost.Metrics().Gauge("ledger.pending").Load() == 0
	}
	done := pump(seg, func() bool { return total >= 2*n && drained() }, func(wait <-chan time.Time) {
		select {
		case ev := <-sub.C:
			got[fmt.Sprintf("%s %v", ev.Subject, ev.Value.(*mop.Object).MustGet("microns"))]++
			total++
		case <-wait:
		}
	})
	if !done {
		t.Errorf("timed out: ledgers drained %v", drained())
	}
	if total != 2*n || len(got) != 2*n {
		t.Errorf("%d deliveries of %d publications, want each once: %v", total, len(got), got)
	}
}
