package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"infobus/internal/mop"
	"infobus/internal/telemetry"
)

// TestSlowConsumerAlarmE2E is the tentpole acceptance path: a subscriber
// that stops reading lets its daemon-side queue grow past the watermark,
// the host raises "_sys.alarm.<node>.slow-consumer" on the wire, an
// anonymous monitor on another host sees the self-describing SysAlarm;
// draining the subscriber clears the alarm with hysteresis; and the flight
// recorder retains both edges.
func TestSlowConsumerAlarmE2E(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	slow := newHost(t, seg, "slowhost", HostConfig{
		Telemetry: TelemetryConfig{Health: telemetry.HealthConfig{
			Interval:          2 * time.Millisecond,
			SlowConsumerDepth: 64,
		}},
	})
	mon := newHost(t, seg, "monhost", HostConfig{})
	monBus, err := mon.NewBus("monitor")
	if err != nil {
		t.Fatal(err)
	}
	alarms, err := monBus.Subscribe("_sys.alarm.>")
	if err != nil {
		t.Fatal(err)
	}

	slowBus, err := slow.NewBus("lagging")
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := slowBus.Subscribe("load.>")
	if err != nil {
		t.Fatal(err)
	}

	// Publish from the monitor host and never read on the stalled
	// subscription: the bus dispatcher blocks once the subscription buffer
	// fills, and the daemon-side client queue grows past the watermark.
	pubBus, err := mon.NewBus("generator")
	if err != nil {
		t.Fatal(err)
	}
	var raise Event
	deadline := time.After(15 * time.Second)
	var published int
publishing:
	for {
		for i := 0; i < 20; i++ {
			if err := pubBus.Publish("load.burst", int64(published)); err != nil {
				t.Fatal(err)
			}
			published++
		}
		_ = pubBus.Flush()
		select {
		case raise = <-alarms.C:
			break publishing
		case <-deadline:
			t.Fatalf("no slow-consumer alarm after %d publications (active: %+v)",
				published, slow.ActiveAlarms())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := raise.Subject.String(); got != "_sys.alarm.slowhost.slow-consumer" {
		t.Fatalf("alarm subject = %q", got)
	}
	obj, ok := raise.Value.(*mop.Object)
	if !ok || obj.Type().Name() != "SysAlarm" {
		t.Fatalf("alarm value = %v", raise.Value)
	}
	if obj.MustGet("node") != "slowhost" || obj.MustGet("kind") != "slow-consumer" ||
		obj.MustGet("target") != "lagging" || obj.MustGet("raised") != true {
		t.Fatalf("alarm object = %v", obj)
	}
	if obj.MustGet("value").(int64) < 64 {
		t.Fatalf("alarm value %v below watermark", obj.MustGet("value"))
	}
	if got := slow.ActiveAlarms(); len(got) != 1 || got[0].Kind != "slow-consumer" {
		t.Fatalf("ActiveAlarms = %+v", got)
	}

	// Drain the stalled subscription; the queue depth falls below the clear
	// threshold and the alarm clears after the hysteresis hold.
	go func() {
		for range stalled.C {
		}
	}()
	var clear Event
	select {
	case clear = <-alarms.C:
	case <-time.After(15 * time.Second):
		t.Fatalf("alarm never cleared (active: %+v)", slow.ActiveAlarms())
	}
	cobj := clear.Value.(*mop.Object)
	if cobj.MustGet("raised") != false || cobj.MustGet("kind") != "slow-consumer" {
		t.Fatalf("clear edge = %v", cobj)
	}
	if got := slow.ActiveAlarms(); len(got) != 0 {
		t.Fatalf("ActiveAlarms after clear = %+v", got)
	}

	// Both edges are in the flight recorder.
	dump := slow.HealthDump()
	if !strings.Contains(dump, "alarm-raise") || !strings.Contains(dump, "alarm-clear") ||
		!strings.Contains(dump, "slow-consumer:lagging") {
		t.Fatalf("flight recorder missing the edges:\n%s", dump)
	}
	if !strings.Contains(dump, "active alarms: none") {
		t.Fatalf("dump header wrong:\n%s", dump)
	}
}

// TestSlowConsumerAlarmAcrossLanes is the sharded-engine regression for
// the health tier: with several delivery lanes, a stalled client's backlog
// spreads over per-lane queue columns — one column per shard of senders —
// and the slow-consumer watch must trip on the cross-lane AGGREGATE:
// publishing round-robin from hosts on distinct lanes keeps every single
// lane's share well below the watermark, so only correct aggregation raises
// "_sys.alarm.>" here.
func TestSlowConsumerAlarmAcrossLanes(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	slow := newHost(t, seg, "slowhost", HostConfig{
		DeliveryLanes: 4,
		Telemetry: TelemetryConfig{Health: telemetry.HealthConfig{
			Interval:          2 * time.Millisecond,
			SlowConsumerDepth: 64,
		}},
	})
	if got := slow.Daemon().Lanes(); got != 4 {
		t.Fatalf("lanes = %d, want 4", got)
	}
	mon := newHost(t, seg, "monhost", HostConfig{})
	monBus, err := mon.NewBus("monitor")
	if err != nil {
		t.Fatal(err)
	}
	alarms, err := monBus.Subscribe("_sys.alarm.>")
	if err != nil {
		t.Fatal(err)
	}
	slowBus, err := slow.NewBus("lagging")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slowBus.Subscribe("load.>"); err != nil {
		t.Fatal(err)
	}

	// Six publishing hosts: a lane is a shard of senders, so it takes several
	// senders (the spread assertion below says at least two shards) to put a
	// share of the backlog on more than one lane of the four-lane receiver.
	pubBuses := make([]*Bus, 6)
	for i := range pubBuses {
		pubBuses[i], err = newHost(t, seg, fmt.Sprintf("genhost%d", i), HostConfig{}).NewBus("generator")
		if err != nil {
			t.Fatal(err)
		}
	}
	var raise Event
	deadline := time.After(15 * time.Second)
	var published int
publishing:
	for {
		for i := 0; i < 21; i++ {
			if err := pubBuses[published%len(pubBuses)].Publish("load.burst", int64(published)); err != nil {
				t.Fatal(err)
			}
			published++
		}
		for _, b := range pubBuses {
			_ = b.Flush()
		}
		select {
		case raise = <-alarms.C:
			break publishing
		case <-deadline:
			t.Fatalf("no slow-consumer alarm after %d publications across lanes (active: %+v, lane depths: %v)",
				published, slow.ActiveAlarms(), slow.Daemon().LaneDepths())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := raise.Subject.String(); got != "_sys.alarm.slowhost.slow-consumer" {
		t.Fatalf("alarm subject = %q", got)
	}
	obj, ok := raise.Value.(*mop.Object)
	if !ok || obj.MustGet("target") != "lagging" || obj.MustGet("raised") != true {
		t.Fatalf("alarm object = %v", raise.Value)
	}
	// The backlog really was sharded: more than one lane holds a share,
	// and no single lane reached the watermark on its own at raise time
	// (the gauge cut may trail the raise slightly, so only assert spread).
	depths := slow.Daemon().LaneDepths()
	nonzero := 0
	for _, d := range depths {
		if d > 0 {
			nonzero++
		}
	}
	if nonzero < 2 {
		t.Fatalf("backlog not spread across lanes at raise: %v", depths)
	}
}

// TestSysDumpProbe publishes on "_sys.dump" (the second user-publishable
// system subject) and expects the health-enabled host to answer with a
// SysDump object carrying its flight-recorder text.
func TestSysDumpProbe(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	newHost(t, seg, "dumphost", HostConfig{
		Telemetry: TelemetryConfig{Health: telemetry.HealthConfig{Interval: 5 * time.Millisecond}},
	})
	prober := newHost(t, seg, "prober", HostConfig{})
	bus, err := prober.NewBus("probe")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := bus.Subscribe("_sys.dumped.>")
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	for {
		if err := bus.Publish(telemetry.DumpSubject, int64(1)); err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-sub.C:
			obj, ok := ev.Value.(*mop.Object)
			if !ok || obj.Type().Name() != "SysDump" {
				t.Fatalf("dump value = %v", ev.Value)
			}
			if obj.MustGet("node") != "dumphost" {
				t.Fatalf("dump node = %v", obj.MustGet("node"))
			}
			text, _ := obj.MustGet("text").(string)
			if !strings.Contains(text, "flight recorder:") {
				t.Fatalf("dump text = %q", text)
			}
			return
		case <-deadline:
			t.Fatal("no dump received")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestHealthDisabledByDefault pins that the zero config keeps the tier
// completely off: no recorder, no alarms, no dump answer machinery.
func TestHealthDisabledByDefault(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	h := newHost(t, seg, "plain", HostConfig{})
	if h.Recorder() != nil {
		t.Error("recorder allocated with health disabled")
	}
	if got := h.ActiveAlarms(); got != nil {
		t.Errorf("ActiveAlarms = %+v", got)
	}
	if got := h.HealthDump(); got != "" {
		t.Errorf("HealthDump = %q", got)
	}
}
