package router

import (
	"testing"
	"time"

	"infobus/internal/core"
	"infobus/internal/mop"
	"infobus/internal/telemetry"
)

// TestSysProbeParity: a node kind is replaceable without the observability
// layer noticing. A telemetry-enabled host and a health+mesh router are
// sent the same three probes, and each answers every one with the same
// classes on "_sys.<kind>.<node>" — a monitor needs no per-kind case.
// (Before internal/sysagent a router did not answer "_sys.ping" at all.)
func TestSysProbeParity(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	// Stats tickers idle: any SysStats seen below is a ping answer.
	health := telemetry.HealthConfig{Interval: 5 * time.Millisecond}
	newRouter(t, Options{Name: "r1", StatsInterval: time.Minute, Health: health},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	newBus(t, segB, "parityhost", core.HostConfig{Telemetry: core.TelemetryConfig{
		StatsInterval:      time.Minute,
		Health:             health,
		HistoryInterval:    5 * time.Millisecond,
		HistoryDigestTicks: -1,
	}})
	prober := newBus(t, segA, "prober", core.HostConfig{})

	probes := []struct {
		probe   string
		answers map[string]string // answer subject prefix -> class
	}{
		{telemetry.PingSubject, map[string]string{
			telemetry.PongSubjectPrefix:  "SysPong",
			telemetry.StatsSubjectPrefix: "SysStats",
		}},
		{telemetry.DumpSubject, map[string]string{telemetry.DumpedSubjectPrefix: "SysDump"}},
		{telemetry.HistorySubject, map[string]string{telemetry.HistorySubjectPrefix: "SysHistory"}},
	}
	// Every answer subject is "_sys.<kind>.<node>": one subscription sees
	// them all (and nothing deeper, such as alarm edges).
	sub, err := prober.Subscribe("_sys.*.*")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range probes {
		want := map[string]string{} // answer subject -> class, every node
		for prefix, class := range tc.answers {
			for _, node := range []string{"parityhost", "router-r1"} {
				want[prefix+"."+node] = class
			}
		}
		// Re-probe until every node has answered with every class: the
		// nodes' probe interest and the prober's own propagate
		// asynchronously, so the first probes may fall on deaf ears.
		deadline := time.Now().Add(15 * time.Second)
		for len(want) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: never answered: %v", tc.probe, want)
			}
			if err := prober.Publish(tc.probe, int64(7)); err != nil {
				t.Fatal(err)
			}
			_ = prober.Flush()
			for window := time.After(20 * time.Millisecond); window != nil; {
				select {
				case ev := <-sub.C:
					subj := ev.Subject.String()
					class, expected := want[subj]
					if !expected {
						continue // an earlier probe's answer, or the probe itself
					}
					if obj, ok := ev.Value.(*mop.Object); !ok || obj.Type().Name() != class {
						t.Fatalf("%s: answer on %s = %v, want a %s", tc.probe, subj, ev.Value, class)
					}
					delete(want, subj)
				case <-window:
					window = nil
				}
			}
		}
	}
}
