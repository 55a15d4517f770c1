package sysagent

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/mop"
	"infobus/internal/telemetry"
	"infobus/internal/wire"
)

// fakeBus is the publish func of a node that is not there: it records the
// subject and the class of every object the agent publishes.
type fakeBus struct {
	mu   sync.Mutex
	pubs []string // "subject class"
}

func (f *fakeBus) publish(subject string, payload []byte) {
	class := "undecodable"
	if v, err := wire.Unmarshal(payload, mop.NewRegistry()); err == nil {
		if o, ok := v.(*mop.Object); ok {
			class = o.Type().Name()
		}
	}
	f.mu.Lock()
	f.pubs = append(f.pubs, subject+" "+class)
	f.mu.Unlock()
}

func (f *fakeBus) take() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.pubs
	f.pubs = nil
	return out
}

var allProbes = []string{telemetry.PingSubject, telemetry.DumpSubject, telemetry.HistorySubject}

// TestNilTierIsSilent: a tier that is nil publishes nothing and ignores its
// probe; the tiers that are present answer exactly theirs. No row names a
// node kind — a node is the set of tiers it has.
func TestNilTierIsSilent(t *testing.T) {
	cases := []struct {
		name     string
		tiers    func(*Config)
		subjects []string            // ProbeSubjects
		answers  map[string][]string // probe -> publications
	}{
		{"none", func(*Config) {}, nil, nil},
		{"stats", func(c *Config) { c.StatsInterval = time.Hour },
			[]string{telemetry.PingSubject},
			map[string][]string{telemetry.PingSubject: {"_sys.pong.n-1 SysPong", "_sys.stats.n-1 SysStats"}}},
		{"health", func(c *Config) {
			c.Engine = telemetry.NewEngine("n.1", nil, telemetry.NewRecorder(8))
			c.HealthInterval = time.Hour
		},
			[]string{telemetry.DumpSubject},
			map[string][]string{telemetry.DumpSubject: {"_sys.dumped.n-1 SysDump"}}},
		{"history", func(c *Config) { c.History = telemetry.NewHistory(telemetry.HistoryConfig{Interval: time.Hour}) },
			[]string{telemetry.HistorySubject},
			map[string][]string{telemetry.HistorySubject: {"_sys.history.n-1 SysHistory"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bus := &fakeBus{}
			cfg := Config{Node: "n.1", Registry: mop.NewRegistry(), Publish: bus.publish, Metrics: telemetry.NewRegistry()}
			tc.tiers(&cfg)
			a, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Stop()
			if got := a.ProbeSubjects(); !reflect.DeepEqual(got, tc.subjects) {
				t.Errorf("ProbeSubjects = %v, want %v", got, tc.subjects)
			}
			payload, _ := wire.Marshal(int64(5))
			for _, probe := range append(allProbes, "_sys.stats.other", "fab5.cc.temp") {
				a.Probe([]byte(probe), payload)
				if got := bus.take(); !reflect.DeepEqual(got, tc.answers[probe]) {
					t.Errorf("Probe(%s) published %v, want %v", probe, got, tc.answers[probe])
				}
			}
			// The sidecar needs no tier: the classes and the publish func.
			a.Trace(9, nil)
			if got := bus.take(); !reflect.DeepEqual(got, []string{"_sys.trace.n-1 SysTrace"}) {
				t.Errorf("Trace published %v", got)
			}
		})
	}
}

// TestPingEchoesNonce: the pong carries the probe's nonce, given as a bare
// integer or as an object with a "nonce" attribute; anything else is 0.
func TestPingEchoesNonce(t *testing.T) {
	var pongs []int64
	reg := mop.NewRegistry()
	a, err := Start(Config{Node: "n", Registry: reg, Metrics: telemetry.NewRegistry(), StatsInterval: time.Hour,
		Publish: func(subject string, payload []byte) {
			if subject != "_sys.pong.n" {
				return
			}
			v, err := wire.Unmarshal(payload, mop.NewRegistry())
			if err != nil {
				t.Error(err)
				return
			}
			pongs = append(pongs, v.(*mop.Object).MustGet("nonce").(int64))
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	probe := mop.MustNewClass("Probe", nil, []mop.Attr{{Name: "nonce", Type: mop.Int}}, nil)
	for _, v := range []mop.Value{int64(99), mop.MustNew(probe).MustSet("nonce", int64(7)), "not a nonce"} {
		payload, err := wire.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		a.Probe([]byte(telemetry.PingSubject), payload)
	}
	a.Probe([]byte(telemetry.PingSubject), []byte("not a wire message"))
	if want := []int64{99, 7, 0, 0}; !reflect.DeepEqual(pongs, want) {
		t.Errorf("pong nonces = %v, want %v", pongs, want)
	}
}

// TestStopLeavesNothingRunning: with every tier ticking at 1 ms — stats,
// digests, the ring's sampler and an alarm that raises on the first engine
// tick — the agent is one goroutine, and Stop (twice) returns with none left,
// nothing published and nothing sampled after it.
func TestStopLeavesNothingRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	bus := &fakeBus{}
	metrics := telemetry.NewRegistry()
	engine := telemetry.NewEngine("n", metrics, telemetry.NewRecorder(8))
	engine.Watch(telemetry.WatchConfig{Kind: "always", Raise: 1}, func() int64 { return 1 })
	hist := telemetry.NewHistory(telemetry.HistoryConfig{Interval: time.Millisecond})
	hist.TrackRate("c", metrics.Counter("c"))
	a, err := Start(Config{
		Node: "n", Registry: mop.NewRegistry(), Publish: bus.publish,
		Metrics: metrics, StatsInterval: time.Millisecond,
		Engine: engine, HealthInterval: time.Millisecond,
		History: hist, DigestEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine() - before; got != 1 {
		t.Errorf("an agent with every tier on runs %d goroutines, want 1", got)
	}
	// Wait until every unprompted kind has gone out at least once.
	want := map[string]bool{"_sys.stats.n SysStats": true, "_sys.alarm.n.always SysAlarm": true, "_sys.history.n SysHistory": true}
	for deadline := time.Now().Add(10 * time.Second); len(want) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never published: %v", want)
		}
		for _, p := range bus.take() {
			delete(want, p)
		}
	}
	if snap := hist.Snapshot(0); snap.AlarmTotal != 1 || snap.Ticks == 0 {
		t.Errorf("history ring noted %d alarm edges in %d ticks, want the one raise and a tick", snap.AlarmTotal, snap.Ticks)
	}
	a.Stop()
	a.Stop()
	bus.take()
	ticks := hist.Snapshot(0).Ticks
	time.Sleep(20 * time.Millisecond)
	if late := bus.take(); len(late) > 0 {
		t.Errorf("published after Stop: %v", late)
	}
	if got := hist.Snapshot(0).Ticks; got != ticks {
		t.Errorf("ring sampled after Stop: %d -> %d ticks", ticks, got)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before Start", runtime.NumGoroutine(), before)
		}
	}
}

// TestStrangerUnderSysNameRefusedAtStart: a registry that has harvested a
// differently shaped class under a Sys name (a peer on another build
// published "_sys.trace" first; a host starts its agent lazily, on its first
// sidecar) makes Start fail with mop.ErrTypeExists. Before the kinds were
// bound declarations Start took whatever class held the name and the first
// sidecar panicked on the publish path, setting an attribute it lacks.
func TestStrangerUnderSysNameRefusedAtStart(t *testing.T) {
	reg := mop.NewRegistry()
	stranger := mop.MustNewClass("SysTraceHop", nil, []mop.Attr{{Name: "kind", Type: mop.String}}, nil)
	if err := reg.Register(stranger); err != nil {
		t.Fatal(err)
	}
	bus := &fakeBus{}
	a, err := Start(Config{Node: "n", Registry: reg, Publish: bus.publish, Metrics: telemetry.NewRegistry()})
	if err == nil {
		a.Trace(9, []busproto.TraceHop{{Kind: busproto.HopQuorumAck, Node: "n", At: 1}})
		a.Stop()
		t.Fatal("Start accepted a registry holding a one-attribute SysTraceHop")
	}
	if !errors.Is(err, mop.ErrTypeExists) || a != nil {
		t.Errorf("Start = %v, %v; want nil and an error wrapping mop.ErrTypeExists", a, err)
	}
	if got, _ := reg.Lookup("SysTraceHop"); got != stranger {
		t.Error("the refused start replaced the class it refused")
	}
}
