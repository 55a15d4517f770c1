package qledger

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/core"
	"infobus/internal/mop"
	"infobus/internal/telemetry"
)

// TestReplicatedTraceChain is the causal-tracing acceptance path at
// ReplicationFactor 2: every guaranteed publication is traced
// (TraceSampling 1), so a monitor that feeds the delivered envelopes plus
// the "_sys.trace.<node>" quorum sidecars into a TraceAssembler
// reconstructs the full stage chain — ledger stage, group commit, replica
// chunk, quorum ack, publisher daemon, consumer daemon, delivery lane —
// as ONE route with per-stage latency histograms.
func TestReplicatedTraceChain(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	dir := t.TempDir()
	pub, _ := newReplHost(t, seg, "pub", core.HostConfig{
		LedgerPath: filepath.Join(dir, "pub.ledger"),
		Telemetry:  core.TelemetryConfig{TraceSampling: 1},
	}, fastRepl(2, ""))
	newReplHost(t, seg, "r1", core.HostConfig{}, fastRepl(0, filepath.Join(dir, "r1")))
	newReplHost(t, seg, "r2", core.HostConfig{}, fastRepl(0, filepath.Join(dir, "r2")))

	cons := newPlainHost(t, seg, "cons")
	cbus, err := cons.NewBus("consumer")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cbus.Subscribe("orders.>")
	if err != nil {
		t.Fatal(err)
	}
	mon := newPlainHost(t, seg, "mon")
	mbus, err := mon.NewBus("monitor")
	if err != nil {
		t.Fatal(err)
	}
	sidecars, err := mbus.Subscribe("_sys.trace.>")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // interest propagation

	pbus, err := pub.NewBus("producer")
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := pbus.PublishGuaranteed("orders.new", fmt.Sprintf("o-%d", i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}

	// Collect the n traced deliveries and the n quorum sidecars; their
	// relative order is a race (delivery proceeds concurrently with the
	// quorum wait), which is exactly what the assembler's parking handles.
	asm := telemetry.NewTraceAssembler()
	var deliv []core.Event
	var sides int
	deadline := time.After(15 * time.Second)
	for len(deliv) < n || sides < n {
		select {
		case ev := <-sub.C:
			if ev.TraceID == 0 || len(ev.Trace) == 0 {
				t.Fatalf("delivery not traced at sampling 1: %+v", ev)
			}
			deliv = append(deliv, ev)
		case ev := <-sidecars.C:
			obj, ok := ev.Value.(*mop.Object)
			if !ok {
				t.Fatalf("sidecar value = %T", ev.Value)
			}
			var side telemetry.Trace
			if !telemetry.SysTrace.Read(obj, &side) {
				t.Fatalf("unparseable sidecar %v", obj)
			}
			node, id, hops := side.Node, side.TraceID, side.BusHops()
			if node != "pub" || id == 0 {
				t.Fatalf("sidecar node=%q id=%d", node, id)
			}
			if len(hops) != 1 || hops[0].Kind != busproto.HopQuorumAck {
				t.Fatalf("sidecar hops = %+v, want one quorum-ack", hops)
			}
			asm.AddSidecar(id, hops)
			sides++
		case <-deadline:
			t.Fatalf("collected %d/%d deliveries, %d/%d sidecars",
				len(deliv), n, sides, n)
		}
	}
	for _, ev := range deliv {
		asm.AddTraced(ev.TraceID, ev.Trace)
	}

	routes := asm.Routes()
	if len(routes) != 1 {
		t.Fatalf("routes = %d, want 1 (%+v)", len(routes), routes)
	}
	r := routes[0]
	want := []string{
		"pub/ledger-stage", "pub/group-commit", "pub/repl-chunk",
		"pub/quorum-ack", "pub", "cons", "cons/lane-enq", "cons/lane-pop",
	}
	if len(r.Path) != len(want) {
		t.Fatalf("path = %v, want %v", r.Path, want)
	}
	for i := range want {
		if r.Path[i] != want[i] {
			t.Fatalf("path = %v, want %v", r.Path, want)
		}
	}
	if r.Count != n {
		t.Fatalf("route count = %d, want %d", r.Count, n)
	}
	if len(r.Hops) != len(want)-1 {
		t.Fatalf("hops = %d, want %d", len(r.Hops), len(want)-1)
	}
	for i, h := range r.Hops {
		if h.Count != n {
			t.Errorf("hop %d (%s → %s) count = %d, want %d", i, h.From, h.To, h.Count, n)
		}
		if h.MeanNs < 0 {
			t.Errorf("hop %d mean = %v", i, h.MeanNs)
		}
	}
	if r.E2E.MeanNs <= 0 {
		t.Fatalf("end-to-end mean = %v", r.E2E.MeanNs)
	}
	render := asm.Render()
	for _, stage := range []string{"quorum-ack", "group-commit", "lane-pop", "end-to-end"} {
		if !strings.Contains(render, stage) {
			t.Fatalf("render missing %q:\n%s", stage, render)
		}
	}
}
