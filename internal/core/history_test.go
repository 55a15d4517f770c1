package core

import (
	"testing"
	"time"

	"infobus/internal/mop"
	"infobus/internal/sysagent"
	"infobus/internal/telemetry"
)

// TestHistoryProbeAndAlarmEdge is the flight-data acceptance path: a host
// running the history tier samples its rates into the ring; when a stalled
// subscriber trips the slow-consumer alarm, the raise edge lands in the
// same ring; and an anonymous monitor that publishes "_sys.history" gets
// the whole self-describing window back on "_sys.history.<node>" —
// series, samples, subject families, and the alarm edge included.
func TestHistoryProbeAndAlarmEdge(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	slow := newHost(t, seg, "slowhost", HostConfig{
		Telemetry: TelemetryConfig{
			Health:          telemetry.HealthConfig{Interval: 2 * time.Millisecond},
			HistoryInterval: 2 * time.Millisecond,
		},
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
	answers, err := monBus.Subscribe("_sys.history.slowhost")
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

	// Stall the subscriber until the slow-consumer alarm raises (same
	// inducement as TestSlowConsumerAlarmE2E).
	pubBus, err := mon.NewBus("generator")
	if err != nil {
		t.Fatal(err)
	}
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
		case <-alarms.C:
			break publishing
		case <-deadline:
			t.Fatalf("no slow-consumer alarm after %d publications", published)
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Probe until the answer is a full window past a digest's length.
	// The probe subject is the third user-publishable "_sys.>" name.
	var digest telemetry.HistorySnapshot
	probeDeadline := time.After(15 * time.Second)
	for {
		if err := monBus.Publish(telemetry.HistorySubject, int64(1)); err != nil {
			t.Fatal(err)
		}
		_ = monBus.Flush()
		var got bool
		select {
		case ev := <-answers.C:
			obj, ok := ev.Value.(*mop.Object)
			if !ok || obj.Type().Name() != "SysHistory" {
				t.Fatalf("history answer = %v", ev.Value)
			}
			if !telemetry.SysHistory.Read(obj, &digest) {
				t.Fatalf("unparseable SysHistory %v", obj)
			}
			// Digests share the subject and carry at most DigestSamples
			// samples a series: more is the probe's full window.
			for _, ser := range digest.Series {
				if ser.Name == "daemon.inbound" {
					got = len(ser.Samples) > sysagent.DigestSamples
				}
			}
		case <-probeDeadline:
			t.Fatal("no history answer")
		case <-time.After(20 * time.Millisecond):
		}
		if got {
			break
		}
	}

	if digest.Node != "slowhost" {
		t.Fatalf("digest node = %q", digest.Node)
	}
	if digest.IntervalNs != (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("interval_ns = %d", digest.IntervalNs)
	}
	series := map[string]telemetry.SeriesSnapshot{}
	for _, s := range digest.Series {
		series[s.Name] = s
	}
	// The standing series are present, and the inbound/delivery rates saw
	// the burst: at least one sample is nonzero.
	for _, name := range []string{"bus.published", "daemon.inbound",
		"daemon.delivered_local", "daemon.lane_depth"} {
		if _, ok := series[name]; !ok {
			t.Fatalf("series %q missing (have %v)", name, digest.Series)
		}
	}
	nonzero := false
	for _, smp := range series["daemon.inbound"].Samples {
		if smp.V > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatalf("daemon.inbound samples all zero: %+v", series["daemon.inbound"].Samples)
	}
	if len(series["daemon.inbound"].Samples) < 4 {
		t.Fatalf("full-window answer has %d samples, want the whole ring so far",
			len(series["daemon.inbound"].Samples))
	}

	// The alarm raise edge rode along.
	sawRaise := false
	for _, e := range digest.Alarms {
		if e.Kind == "slow-consumer" && e.Raised {
			sawRaise = true
		}
	}
	if !sawRaise || digest.AlarmTotal == 0 {
		t.Fatalf("history window missing the slow-consumer raise: %+v", digest.Alarms)
	}

	// Per-subject-family accounting: the burst subject's two-element family
	// dominates the merged top-K table.
	famSeen := false
	for _, f := range digest.Families {
		if f.Family == "load.burst" && f.Msgs > 0 {
			famSeen = true
		}
	}
	if !famSeen {
		t.Fatalf("families missing load.burst: %+v", digest.Families)
	}
}

// TestHistoryDisabledByDefault pins that the zero config allocates no
// sampler and answers no probes.
func TestHistoryDisabledByDefault(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	h := newHost(t, seg, "plain", HostConfig{})
	if h.History() != nil {
		t.Fatal("history sampler allocated with the tier disabled")
	}
}

// TestHistoryDefaultWindow pins the paper-facing sizing claim: the usual
// 250 ms interval and the slot count give a window of at least 60 seconds.
func TestHistoryDefaultWindow(t *testing.T) {
	h := telemetry.NewHistory(250 * time.Millisecond)
	if window := time.Duration(h.Slots()) * h.Interval(); window < 60*time.Second {
		t.Fatalf("default window = %v, want >= 60s", window)
	}
}
