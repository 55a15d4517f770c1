package core

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/daemon"
	"infobus/internal/reliable"
	"infobus/internal/transport"
)

// ackTapSeg is a segment whose endpoint named tapped records the distinct
// guaranteed-ack frames it sends: a reliable retransmission of a frame is the
// same frame.
type ackTapSeg struct {
	transport.Segment
	tapped string
	mu     sync.Mutex
	frames map[string][]uint64
}

func (s *ackTapSeg) NewEndpoint(name string) (transport.Endpoint, error) {
	ep, err := s.Segment.NewEndpoint(name)
	if err != nil || name != s.tapped {
		return ep, err
	}
	return ackTapEndpoint{ep, s}, nil
}

type ackTapEndpoint struct {
	transport.Endpoint
	s *ackTapSeg
}

func (e ackTapEndpoint) Send(addr string, frame []byte) error {
	for _, p := range reliable.DecodeDataPayloads(frame) {
		if env, err := busproto.Decode(p); err == nil && env.Kind == busproto.KindGuarAck {
			ids := env.Acked
			if ids == nil {
				ids = []uint64{env.ID}
			}
			e.s.mu.Lock()
			e.s.frames[string(p)] = ids
			e.s.mu.Unlock()
		}
	}
	return e.Endpoint.Send(addr, frame)
}

// pauses counts the gaps between consecutive instants longer than AckDelay.
func pauses(at []time.Time) (n int) {
	for i := 1; i < len(at); i++ {
		if at[i].Sub(at[i-1]) > daemon.AckDelay {
			n++
		}
	}
	return n
}

// TestGuaranteedAcksFollowTheTraffic: N guaranteed publications at a steady
// rate, from one publisher host to one consumer host, are acknowledged in at
// most N/(rate·AckDelay) + QuickAcks + 1 frames — the quick ones, then one
// per AckDelay, then the tail — every id exactly once, and the publisher's
// ledger drains. The rate is measured, first publication to last delivery. A
// pause longer than AckDelay in the publishing or the delivering may be an
// idle period, which the policy answers with quick sends again, so each allows
// QuickAcks frames more; on a quiet machine there is none. The same 240
// publications made 76 and 82 frames when every drain sent its set.
func TestGuaranteedAcksFollowTheTraffic(t *testing.T) {
	seg := &ackTapSeg{Segment: fastSeg(), tapped: "sub", frames: make(map[string][]uint64)}
	defer seg.Close()
	pubHost := newHost(t, seg, "pub", HostConfig{
		LedgerPath:    filepath.Join(t.TempDir(), "pub.ledger"),
		RetryInterval: time.Minute, // an id is acknowledged once: no retransmission re-acks it
	})
	subHost := newHost(t, seg, "sub", HostConfig{})
	pubBus, _ := pubHost.NewBus("ledger")
	subBus, _ := subHost.NewBus("db")
	sub, err := subBus.Subscribe("g.>")
	if err != nil {
		t.Fatal(err)
	}
	const n, perTick, period = 240, 4, time.Millisecond // 4 000 a second: 8 per AckDelay
	arrived := make([]time.Time, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(arrived) < n {
			if _, ok := <-sub.C; !ok {
				return
			}
			arrived = append(arrived, time.Now())
		}
	}()
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	published := make([]time.Time, 0, n/perTick)
	for i := 0; i < n; i += perTick {
		<-ticker.C
		published = append(published, time.Now())
		for k := 0; k < perTick; k++ {
			if _, err := pubBus.PublishGuaranteed("g.row", int64(i+k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d publications delivered", len(arrived), n)
	}
	if len(arrived) != n {
		t.Fatalf("the subscription closed after %d of %d deliveries", len(arrived), n)
	}
	pending := pubHost.Metrics().Gauge("ledger.pending")
	for deadline := time.Now().Add(10 * time.Second); pending.Load() > 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("the ledger never drained: %d pending", pending.Load())
		}
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	acked := make(map[uint64]int, n)
	for _, ids := range seg.frames {
		for _, id := range ids {
			acked[id]++
		}
	}
	for id, times := range acked {
		if times != 1 {
			t.Errorf("id %d acknowledged %d times", id, times)
		}
	}
	if len(acked) != n {
		t.Errorf("%d ids acknowledged, want %d", len(acked), n)
	}
	elapsed := arrived[n-1].Sub(published[0])
	paused := max(pauses(published), pauses(arrived)) // a stall of the publisher shows in both
	bound := int(elapsed/daemon.AckDelay) + daemon.QuickAcks + 1 + paused*daemon.QuickAcks
	t.Logf("%d publications in %v: %d ack frames, bound %d (%d pauses over %v)",
		n, elapsed, len(seg.frames), bound, paused, daemon.AckDelay)
	if len(seg.frames) > bound {
		t.Errorf("%d ack frames for %d publications in %v, want at most %d", len(seg.frames), n, elapsed, bound)
	}
}
