package router

import (
	"testing"
	"time"

	"infobus/internal/core"
	"infobus/internal/mop"
	"infobus/internal/telemetry"
)

// TestHistoryProbeAcrossRouter: the "_sys.history" probe and its
// SysHistory answer are ordinary subject-addressed publications, so they
// cross routers like any other traffic — a monitor on segment B probes a
// flight-data host on segment A and reads the window back through the
// router, decoding it with nothing but the self-describing object.
func TestHistoryProbeAcrossRouter(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	newRouter(t, Options{Name: "r1"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	flight := newBus(t, segA, "flighthost", core.HostConfig{
		Telemetry: core.TelemetryConfig{
			HistoryInterval:    5 * time.Millisecond,
			HistoryDigestTicks: -1,
		},
	})
	prober := newBus(t, segB, "prober", core.HostConfig{})
	answers, err := prober.Subscribe("_sys.history.>")
	if err != nil {
		t.Fatal(err)
	}
	// Some cross-router traffic so the sampled rates are nonzero.
	back, err := flight.Subscribe("fab5.>")
	if err != nil {
		t.Fatal(err)
	}
	publishUntil(t, prober, "fab5.cc.temp", int64(451), back)

	deadline := time.After(15 * time.Second)
	for {
		if err := prober.Publish(telemetry.HistorySubject, int64(1)); err != nil {
			t.Fatal(err)
		}
		_ = prober.Flush()
		select {
		case ev := <-answers.C:
			if got := ev.Subject.String(); got != "_sys.history.flighthost" {
				t.Fatalf("answer subject = %q", got)
			}
			obj, ok := ev.Value.(*mop.Object)
			if !ok || obj.Type().Name() != "SysHistory" {
				t.Fatalf("answer value = %v", ev.Value)
			}
			var digest telemetry.HistorySnapshot
			if !telemetry.SysHistory.Read(obj, &digest) {
				t.Fatalf("unparseable SysHistory %v", obj)
			}
			if digest.Node != "flighthost" {
				t.Fatalf("digest node = %q", digest.Node)
			}
			if digest.IntervalNs != (5 * time.Millisecond).Nanoseconds() {
				t.Fatalf("interval_ns = %d", digest.IntervalNs)
			}
			if len(digest.Series) == 0 {
				t.Fatal("no series in the round-tripped window")
			}
			names := map[string]bool{}
			for _, s := range digest.Series {
				names[s.Name] = true
			}
			if !names["daemon.inbound"] || !names["bus.published"] {
				t.Fatalf("series round-trip lost names: %v", names)
			}
			return
		case <-deadline:
			t.Fatal("history answer never crossed the router")
		case <-time.After(20 * time.Millisecond):
		}
	}
}
