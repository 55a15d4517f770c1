package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/reliable"
	"infobus/internal/wire"
)

// TestTraceSampledLocalDelivery turns sampling all the way up and checks
// that a locally delivered event carries the publisher-daemon hop.
func TestTraceSampledLocalDelivery(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	h := newHost(t, seg, "solo", HostConfig{
		Telemetry: TelemetryConfig{TraceSampling: 1},
	})
	pub, _ := h.NewBus("producer")
	con, _ := h.NewBus("consumer")
	sub, err := con.Subscribe("fab5.>")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("fab5.cc.temp", int64(7)); err != nil {
		t.Fatal(err)
	}
	ev := recvEvent(t, sub, 5*time.Second)
	if ev.TraceID == 0 {
		t.Error("sampled event has zero trace id")
	}
	// Publisher hop plus the delivery-lane stage hops (enqueue, pop).
	wantKinds := []byte{busproto.HopNode, busproto.HopLaneEnqueue, busproto.HopLanePop}
	if len(ev.Trace) != len(wantKinds) {
		t.Fatalf("local trace = %v, want publisher + lane hops", ev.Trace)
	}
	for i, h := range ev.Trace {
		if h.Kind != wantKinds[i] {
			t.Errorf("hop %d kind = %s, want %s", i,
				busproto.HopKindName(h.Kind), busproto.HopKindName(wantKinds[i]))
		}
		if h.Node == "" || h.At == 0 {
			t.Errorf("hop %d = %+v", i, h)
		}
		if i > 0 && h.At < ev.Trace[i-1].At {
			t.Errorf("hop %d timestamp precedes hop %d", i, i-1)
		}
	}
}

// TestTraceAppendStaysWithItsBus: two buses on one host get one traced
// publication, and an append to one's Event.Trace is seen by no one else:
// not by the other bus, and not by a second subscription of the same bus,
// which shares its Event. A trace's capacity ends at its length, so an
// append copies; that holds too for a trace that arrives one hop short of
// busproto.MaxTraceHops, whose lane hops are dropped and leave room in the
// list the daemon carved for them.
func TestTraceAppendStaysWithItsBus(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	h := newHost(t, seg, "con", HostConfig{})
	a, _ := h.NewBus("a")
	b, _ := h.NewBus("b")
	var subs []*Subscription
	for _, sc := range []struct {
		bus     *Bus
		pattern string
	}{{a, "tr.>"}, {a, "tr.x"}, {b, "tr.>"}} {
		sub, err := sc.bus.Subscribe(sc.pattern)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	ep, err := seg.NewEndpoint("rawpub")
	if err != nil {
		t.Fatal(err)
	}
	pub := reliable.New(ep, fastReliable())
	defer pub.Close()
	payload, err := wire.Marshal(int64(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, arrived := range []int{2, busproto.MaxTraceHops - 1} {
		hops := make([]busproto.TraceHop, arrived)
		for i := range hops {
			hops[i] = busproto.TraceHop{Node: fmt.Sprint("n", i), At: int64(i + 1)}
		}
		if err := pub.Publish(busproto.Encode(busproto.Envelope{Kind: busproto.KindPublishTraced,
			TraceID: uint64(arrived), Subject: "tr.x", Payload: payload, Trace: hops})); err != nil {
			t.Fatal(err)
		}
		var evs []Event
		for _, sub := range subs {
			ev := recvEvent(t, sub, 5*time.Second)
			if ev.TraceID != uint64(arrived) || len(ev.Trace) < arrived || cap(ev.Trace) != len(ev.Trace) {
				t.Fatalf("%d hops arrived: event trace %d, %d hops, capacity %d; want its own, capacity at its length",
					arrived, ev.TraceID, len(ev.Trace), cap(ev.Trace))
			}
			evs = append(evs, ev)
		}
		want := [][]busproto.TraceHop{slices.Clone(evs[0].Trace), slices.Clone(evs[2].Trace)}
		first := append(evs[0].Trace, busproto.TraceHop{Node: "app-a1", At: 100})
		second := append(evs[1].Trace, busproto.TraceHop{Node: "app-a2", At: 101})
		_ = append(evs[2].Trace, busproto.TraceHop{Node: "app-b", At: 102})
		if first[len(first)-1].Node != "app-a1" || second[len(second)-1].Node != "app-a2" {
			t.Fatalf("%d hops arrived: bus a's subscriptions share where they append: %+v", arrived, first[len(first)-1])
		}
		if !slices.Equal(evs[0].Trace, want[0]) || !slices.Equal(evs[2].Trace, want[1]) {
			t.Fatalf("%d hops arrived: an append changed a delivered trace", arrived)
		}
	}
}

// TestTraceDisabledZeroWireBytes taps the raw segment with a bare
// reliable.Conn and checks the acceptance criterion directly: with
// sampling off, data publications travel in the legacy envelope encoding,
// byte for byte — no trace id, no hop list, no flag byte.
func TestTraceDisabledZeroWireBytes(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	tapEp, err := seg.NewEndpoint("tap")
	if err != nil {
		t.Fatal(err)
	}
	tap := reliable.New(tapEp, fastReliable())
	defer tap.Close()

	pubHost := newHost(t, seg, "pubhost", HostConfig{}) // sampling defaults to off
	conHost := newHost(t, seg, "conhost", HostConfig{})
	pub, _ := pubHost.NewBus("producer")
	con, _ := conHost.NewBus("consumer")
	sub, err := con.Subscribe("fab5.>")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("fab5.cc.temp", int64(7)); err != nil {
		t.Fatal(err)
	}
	if ev := recvEvent(t, sub, 5*time.Second); len(ev.Trace) != 0 || ev.TraceID != 0 {
		t.Fatalf("unsampled event carries trace %v", ev.Trace)
	}

	deadline := time.After(5 * time.Second)
	for {
		select {
		case m, ok := <-tap.Recv():
			if !ok {
				t.Fatal("tap closed")
			}
			env, err := busproto.Decode(m.Payload)
			if err != nil || env.Base() != busproto.KindPublish || env.Subject != "fab5.cc.temp" {
				continue // interest adverts, heartbeats, ...
			}
			if env.Kind != busproto.KindPublish {
				t.Fatalf("wire kind = %d, want legacy KindPublish", env.Kind)
			}
			// Round-trip: the bytes on the wire are exactly the legacy
			// encoding of the decoded envelope.
			if !bytes.Equal(busproto.Encode(env), m.Payload) {
				t.Fatalf("wire bytes differ from legacy encoding: % x", m.Payload)
			}
			return
		case <-deadline:
			t.Fatal("tap never saw the publication")
		}
	}
}
