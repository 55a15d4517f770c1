package qledger

import (
	"path/filepath"
	"testing"
	"time"

	"infobus/internal/core"
	"infobus/internal/mop"
	"infobus/internal/telemetry"
)

// TestReplAlarmWatches: partitioning the only replica of a factor-1 group
// makes the outstanding chunk age past replLagRaise and the outbox exceed
// quorumStallRaise, so the health engine raises both
// "_sys.alarm.pub.repl-lag" and "_sys.alarm.pub.quorum-stall"; healing the
// partition lets the ack land, the gate release, and both alarms clear —
// and every edge also lands in the flight-data history ring.
func TestReplAlarmWatches(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	dir := t.TempDir()
	qcfg := fastRepl(1, "")
	qcfg.AckTimeout = 30 * time.Second // the heal, not the timeout, releases the gate
	qcfg.replLagRaise = 20 * time.Millisecond
	qcfg.quorumStallRaise = 1
	pub, _ := newReplHost(t, seg, "pub", core.HostConfig{
		LedgerPath: filepath.Join(dir, "pub.ledger"),
		Telemetry: core.TelemetryConfig{
			Health:          telemetry.HealthConfig{Interval: 2 * time.Millisecond},
			HistoryInterval: 2 * time.Millisecond,
		},
	}, qcfg)
	rcfg := fastRepl(0, filepath.Join(dir, "r1"))
	rcfg.DisableRecovery = true // a partitioned lone replica must not start recovery
	r1h, _ := newReplHost(t, seg, "r1", core.HostConfig{}, rcfg)

	mon := newPlainHost(t, seg, "mon")
	mbus, err := mon.NewBus("monitor")
	if err != nil {
		t.Fatal(err)
	}
	alarms, err := mbus.Subscribe("_sys.alarm.pub.>")
	if err != nil {
		t.Fatal(err)
	}

	pbus, err := pub.NewBus("producer")
	if err != nil {
		t.Fatal(err)
	}
	// Let the first publish prove the healthy path before the fault.
	if _, err := pbus.PublishGuaranteed("orders.new", "healthy"); err != nil {
		t.Fatalf("publish with replica up: %v", err)
	}

	seg.Network().Partition(simNodeID(t, r1h))
	pubDone := make(chan error, 1)
	go func() {
		_, err := pbus.PublishGuaranteed("orders.new", "stalled")
		pubDone <- err
	}()

	// edge collects raise/clear edges per alarm kind from the monitor.
	edges := map[string]bool{} // "repl-lag/raise" etc.
	await := func(want ...string) {
		t.Helper()
		deadline := time.After(15 * time.Second)
		for {
			missing := false
			for _, w := range want {
				if !edges[w] {
					missing = true
				}
			}
			if !missing {
				return
			}
			select {
			case ev := <-alarms.C:
				obj, ok := ev.Value.(*mop.Object)
				if !ok || obj.Type().Name() != "SysAlarm" {
					t.Fatalf("alarm value = %v", ev.Value)
				}
				kind, _ := obj.MustGet("kind").(string)
				if raised, _ := obj.MustGet("raised").(bool); raised {
					edges[kind+"/raise"] = true
				} else {
					edges[kind+"/clear"] = true
				}
			case <-deadline:
				t.Fatalf("waiting for %v, have %v (active: %+v)",
					want, edges, pub.ActiveAlarms())
			}
		}
	}

	await("repl-lag/raise", "quorum-stall/raise")

	// Heal: the retry loop re-sends the chunk, the ack releases the gate,
	// and both watches fall back under their clear thresholds.
	seg.Network().Heal()
	if err := <-pubDone; err != nil {
		t.Fatalf("publish after heal: %v", err)
	}
	await("repl-lag/clear", "quorum-stall/clear")

	// Satellite: the same edges were fed to the history ring, so a
	// "_sys.history" window replays the incident.
	hist := pub.History()
	if hist == nil {
		t.Fatal("history tier not running")
	}
	snap := hist.Snapshot(0)
	got := map[string]bool{}
	for _, e := range snap.Alarms {
		if e.Raised {
			got[e.Kind+"/raise"] = true
		} else {
			got[e.Kind+"/clear"] = true
		}
	}
	for _, w := range []string{"repl-lag/raise", "repl-lag/clear",
		"quorum-stall/raise", "quorum-stall/clear"} {
		if !got[w] {
			t.Errorf("history ring missing alarm edge %s (have %v)", w, got)
		}
	}
	if snap.AlarmTotal < 4 {
		t.Errorf("history alarm_total = %d, want >= 4", snap.AlarmTotal)
	}
	// The replicated series are being sampled into the same window.
	found := false
	for _, s := range snap.Series {
		if s.Name == "qledger.repl_lag" && s.Kind == telemetry.SeriesLevel {
			found = true
		}
	}
	if !found {
		t.Errorf("history window lacks the qledger.repl_lag series")
	}
}
