package daemon

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/reliable"
	"infobus/internal/subject"
)

// tracedInbound is a datagram carrying one traced publication from a peer,
// which arrives with a publisher hop and a router hop.
func tracedInbound(subj, payload string) reliable.Message {
	return reliable.Message{From: "peer", Payload: busproto.Encode(busproto.Envelope{
		Kind: busproto.KindPublishTraced, TraceID: 77, Subject: subj, Payload: []byte(payload),
		Trace: []busproto.TraceHop{{Node: "pubhost", At: 1}, {Node: "router:r", At: 2}},
	})}
}

// checkTrace fails unless dv carries the hop kinds want, each stamped, in
// order, and the nodes arrived (the hops it came with).
func checkTrace(t *testing.T, dv Delivery, arrived []string, want ...byte) {
	t.Helper()
	if dv.TraceID == 0 || len(dv.Trace) != len(want) {
		t.Fatalf("delivery %q: trace %d %+v, want %d hops", dv.Payload, dv.TraceID, dv.Trace, len(want))
	}
	for i, hop := range dv.Trace {
		if hop.Kind != want[i] || hop.Node == "" || hop.At == 0 || i < len(arrived) && hop.Node != arrived[i] {
			t.Fatalf("delivery %q: hop %d = %+v in %+v", dv.Payload, i, hop, dv.Trace)
		}
	}
}

// overwrite fills the whole carve behind a hop list, up to its capacity,
// with hops naming tag: a list whose array another delivery also holds then
// reads the other's tag, and a race build reports the two writers.
func overwrite(trace []busproto.TraceHop, tag string) {
	full := trace[:cap(trace)]
	for i := range full {
		full[i] = busproto.TraceHop{Node: tag, At: int64(i + 1)}
	}
}

// TestTracedFanoutOwnsItsHops: a traced inbound publication fanned out to
// two clients reaches each with the hops it arrived with, this daemon's node
// hop, one shared lane-enqueue stamp, and a pop hop of its own, in a list no
// other delivery shares: writing over the whole of one client's list leaves
// the other's intact. The daemon's own traced publication fans out alike.
// Then the race form: lane 0's chunk of hops is carved from four publisher
// goroutines and the lane's inbound work at once, and two consumers each
// write over every list they are handed.
func TestTracedFanoutOwnsItsHops(t *testing.T) {
	d, w, clients := fanoutHost(t, 2, "trace.>")
	d.tracePeriod = 1
	node := d.traceNode
	d.handleMessage(w, tracedInbound("trace.in", "in"))
	local := []byte("local")
	if err := d.Publish(subject.MustParse("trace.local"), local); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		arrived []string
		kinds   []byte
	}{
		{[]string{"pubhost", "router:r", node}, []byte{busproto.HopNode, busproto.HopNode, busproto.HopNode, busproto.HopLaneEnqueue, busproto.HopLanePop}},
		{[]string{node}, []byte{busproto.HopNode, busproto.HopLaneEnqueue, busproto.HopLanePop}},
	} {
		var got [2]Delivery
		for k, cl := range clients {
			dv, ok := cl.TryNext()
			if !ok {
				t.Fatalf("client %d: no delivery", k)
			}
			checkTrace(t, dv, c.arrived, c.kinds...)
			got[k] = dv
		}
		a, b := got[0].Trace, got[1].Trace
		enq := len(a) - 2
		if a[enq] != b[enq] {
			t.Fatalf("%q: enqueue hops %+v and %+v, want one stamp per publication", got[0].Payload, a[enq], b[enq])
		}
		want := slices.Clone(b)
		overwrite(a, "client0")
		if !slices.Equal(b, want) {
			t.Fatalf("%q: writing client 0's hops changed client 1's to %+v", got[0].Payload, b)
		}
	}

	d, w, clients = fanoutHost(t, 2, "carve.>")
	d.tracePeriod = 1
	const publishers, per = 4, 200
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			subj := subject.MustParse(fmt.Sprintf("carve.local%d", p))
			for i := 0; i < per; i++ {
				if err := d.Publish(subj, []byte(fmt.Sprintf("local%d-%d", p, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			d.handleMessage(w, tracedInbound("carve.inbound", fmt.Sprintf("inbound-%d", i)))
		}
	}()
	stop := make(chan struct{})
	timer := time.AfterFunc(20*time.Second, func() { close(stop) })
	defer timer.Stop()
	var consumers sync.WaitGroup
	for k, c := range clients {
		consumers.Add(1)
		go func(k int, c *Client) {
			defer consumers.Done()
			tag := fmt.Sprint("client", k)
			for n := 0; n < (publishers+1)*per; n++ {
				dv, ok := c.Next(stop)
				if !ok {
					t.Errorf("client %d: %d of %d deliveries", k, n, (publishers+1)*per)
					return
				}
				want := 3
				if string(dv.Payload[:2]) == "in" {
					want = 5
				}
				if len(dv.Trace) != want || dv.Trace[want-1].Kind != busproto.HopLanePop {
					t.Errorf("client %d: %q carries %+v", k, dv.Payload, dv.Trace)
					return
				}
				overwrite(dv.Trace, tag)
				for _, hop := range dv.Trace {
					if hop.Node != tag {
						t.Errorf("client %d: %q's hops read %+v after its own write", k, dv.Payload, dv.Trace)
						return
					}
				}
			}
		}(k, c)
	}
	wg.Wait()
	consumers.Wait()
}

// TestTracedInboundDeliveryAllocs: once warm, a traced inbound delivery to
// one client allocates nothing of its own: its hop list is carved from the
// lane's chunk, the node names are the worker's interned strings, and the
// lane stages append into room the list was carved with. 6 400 deliveries
// of five hops make one 128-hop chunk per 25, within a budget of one
// allocation per 10. Counted by MemStats.Mallocs, as TestFanoutCarvesSlots
// counts, for the same reasons.
func TestTracedInboundDeliveryAllocs(t *testing.T) {
	d, w, clients := fanoutHost(t, 1, "trace.>")
	m := tracedInbound("trace.x", "payload")
	deliver := func() {
		d.handleMessage(w, m)
		if dv, ok := clients[0].TryNext(); !ok || len(dv.Trace) != 5 {
			t.Fatalf("traced delivery %+v, %v; want five hops", dv.Trace, ok)
		}
	}
	for i := 0; i < 1000; i++ {
		deliver()
	}
	const n = 6400
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		deliver()
	}
	runtime.ReadMemStats(&after)
	got, budget := after.Mallocs-before.Mallocs, uint64(n/10)
	t.Logf("%d traced inbound deliveries: %d mallocs", n, got)
	if got > budget {
		t.Fatalf("%d traced inbound deliveries made %d mallocs, budget %d: at most 0.1 per delivery", n, got, budget)
	}
}
