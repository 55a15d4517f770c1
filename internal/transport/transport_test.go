package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"infobus/internal/netsim"
)

func fastSimSegment() *SimSegment {
	cfg := netsim.DefaultConfig()
	cfg.Speedup = 2000
	return NewSimSegment(cfg)
}

// segments returns both implementations so every test runs against each.
func segments(t *testing.T) map[string]Segment {
	t.Helper()
	return map[string]Segment{
		"sim": fastSimSegment(),
		"udp": NewUDPSegment(),
	}
}

func recvDatagram(t *testing.T, ep Endpoint, within time.Duration) Datagram {
	t.Helper()
	select {
	case d, ok := <-ep.Recv():
		if !ok {
			t.Fatal("receive channel closed")
		}
		return d
	case <-time.After(within):
		t.Fatal("timed out waiting for datagram")
		return Datagram{}
	}
}

func TestUnicastBothTransports(t *testing.T) {
	for name, seg := range segments(t) {
		t.Run(name, func(t *testing.T) {
			defer seg.Close()
			a, err := seg.NewEndpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := seg.NewEndpoint("b")
			if err != nil {
				t.Fatal(err)
			}
			if a.Addr() == b.Addr() {
				t.Fatal("addresses must be distinct")
			}
			if err := a.Send(b.Addr(), []byte("ping")); err != nil {
				t.Fatal(err)
			}
			d := recvDatagram(t, b, 3*time.Second)
			if string(d.Payload) != "ping" {
				t.Errorf("payload = %q", d.Payload)
			}
			if d.From != a.Addr() {
				t.Errorf("from = %q, want %q", d.From, a.Addr())
			}
			// Reply using the carried source address (the point-to-point
			// channel RMI relies on).
			if err := b.Send(d.From, []byte("pong")); err != nil {
				t.Fatal(err)
			}
			if d := recvDatagram(t, a, 3*time.Second); string(d.Payload) != "pong" {
				t.Errorf("reply payload = %q", d.Payload)
			}
		})
	}
}

func TestBroadcastBothTransports(t *testing.T) {
	for name, seg := range segments(t) {
		t.Run(name, func(t *testing.T) {
			defer seg.Close()
			var eps []Endpoint
			for i := 0; i < 5; i++ {
				ep, err := seg.NewEndpoint(fmt.Sprintf("n%d", i))
				if err != nil {
					t.Fatal(err)
				}
				eps = append(eps, ep)
			}
			if err := eps[0].Broadcast([]byte("all")); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(eps); i++ {
				d := recvDatagram(t, eps[i], 3*time.Second)
				if string(d.Payload) != "all" {
					t.Errorf("endpoint %d payload = %q", i, d.Payload)
				}
			}
			select {
			case d := <-eps[0].Recv():
				t.Errorf("sender received own broadcast: %+v", d)
			case <-time.After(30 * time.Millisecond):
			}
		})
	}
}

func TestBadAddress(t *testing.T) {
	for name, seg := range segments(t) {
		t.Run(name, func(t *testing.T) {
			defer seg.Close()
			a, err := seg.NewEndpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Send("bogus", []byte("x")); !errors.Is(err, ErrBadAddr) {
				t.Errorf("bad addr error = %v", err)
			}
		})
	}
}

func TestOversizeBothTransports(t *testing.T) {
	for name, seg := range segments(t) {
		t.Run(name, func(t *testing.T) {
			defer seg.Close()
			a, _ := seg.NewEndpoint("a")
			b, _ := seg.NewEndpoint("b")
			err := a.Send(b.Addr(), make([]byte, 70_000))
			if !errors.Is(err, ErrOversize) {
				t.Errorf("oversize error = %v", err)
			}
		})
	}
}

func TestEndpointCloseStopsRecv(t *testing.T) {
	for name, seg := range segments(t) {
		t.Run(name, func(t *testing.T) {
			defer seg.Close()
			a, _ := seg.NewEndpoint("a")
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Errorf("second close: %v", err)
			}
			select {
			case _, ok := <-a.Recv():
				if ok {
					t.Error("received datagram after close")
				}
			case <-time.After(time.Second):
				t.Error("receive channel not closed")
			}
		})
	}
}

func TestSegmentCloseClosesEndpoints(t *testing.T) {
	for name, seg := range segments(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := seg.NewEndpoint("a")
			if err := seg.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := seg.NewEndpoint("late"); !errors.Is(err, ErrClosed) {
				t.Errorf("NewEndpoint after close error = %v", err)
			}
			deadline := time.After(time.Second)
			for {
				select {
				case _, ok := <-a.Recv():
					if !ok {
						return
					}
				case <-deadline:
					t.Fatal("endpoint receive channel not closed by segment close")
				}
			}
		})
	}
}

func TestUDPBroadcastSkipsDepartedMember(t *testing.T) {
	seg := NewUDPSegment()
	defer seg.Close()
	a, _ := seg.NewEndpoint("a")
	b, _ := seg.NewEndpoint("b")
	c, _ := seg.NewEndpoint("c")
	_ = b.Close()
	if err := a.Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := recvDatagram(t, c, 3*time.Second); string(d.Payload) != "x" {
		t.Errorf("payload = %q", d.Payload)
	}
}

func TestSimSegmentFaultInjection(t *testing.T) {
	seg := fastSimSegment()
	defer seg.Close()
	a, _ := seg.NewEndpoint("a")
	b, _ := seg.NewEndpoint("b")
	// Partition through the exposed simulator.
	idB, ok := netsim.ParseAddr(b.Addr())
	if !ok {
		t.Fatalf("bad sim address %q", b.Addr())
	}
	seg.Network().Partition(idB)
	if err := a.Send(b.Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-b.Recv():
		t.Errorf("datagram crossed partition: %+v", d)
	case <-time.After(50 * time.Millisecond):
	}
	seg.Network().Heal()
	if err := a.Send(b.Addr(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if d := recvDatagram(t, b, 3*time.Second); string(d.Payload) != "y" {
		t.Errorf("post-heal payload = %q", d.Payload)
	}
}
