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
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
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
	a, err := New(Config{Node: "n", Registry: reg, Metrics: telemetry.NewRegistry(), StatsInterval: time.Hour,
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

// virtualStart is where every clock in this file begins.
var virtualStart = time.Unix(1000, 0)

// drive is a node's loop on virtual time: it ticks the agent at each
// deadline it returns, for d, and returns what was published per subject.
func drive(t *testing.T, a *Agent, bus *fakeBus, d time.Duration) map[string]int {
	t.Helper()
	end := virtualStart.Add(d)
	for now := virtualStart; !now.After(end); {
		next := a.Tick(now)
		if next.IsZero() {
			break
		}
		if !next.After(now) {
			t.Fatalf("Tick(%v) returned a deadline that is not in the future: %v", now, next)
		}
		now = next
	}
	counts := map[string]int{}
	for _, p := range bus.take() {
		counts[p]++
	}
	return counts
}

// TestCadencesOnVirtualTime: over ten virtual seconds the agent publishes,
// ticks and samples exactly as often as four tickers started with it would
// have fired — each cadence advances from its own previous deadline — and an
// alarm raised by the first engine tick goes out once and is noted in the
// ring. No goroutine, no sleep.
func TestCadencesOnVirtualTime(t *testing.T) {
	before := runtime.NumGoroutine()
	bus := &fakeBus{}
	metrics := telemetry.NewRegistry()
	engine := telemetry.NewEngine("n", metrics, telemetry.NewRecorder(8))
	engineTicks := 0
	engine.Watch(telemetry.WatchConfig{Kind: "always", Raise: 1}, func() int64 { engineTicks++; return 1 })
	hist := telemetry.NewHistory(telemetry.HistoryConfig{Interval: 250 * time.Millisecond})
	hist.TrackRate("c", metrics.Counter("c"))
	a, err := New(Config{
		Node: "n", Registry: mop.NewRegistry(), Publish: bus.publish,
		Metrics: metrics, StatsInterval: time.Second,
		Engine: engine, HealthInterval: 300 * time.Millisecond,
		History: hist, DigestEvery: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := drive(t, a, bus, 10*time.Second)
	want := map[string]int{"_sys.stats.n SysStats": 10, "_sys.history.n SysHistory": 5, "_sys.alarm.n.always SysAlarm": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("published %v, want %v", got, want)
	}
	if engineTicks != 33 {
		t.Errorf("the engine was ticked %d times in 10 s at 300 ms, want 33", engineTicks)
	}
	if snap := hist.Snapshot(0); snap.Ticks != 40 || snap.AlarmTotal != 1 {
		t.Errorf("the ring took %d samples and noted %d alarm edges, want 40 and 1", snap.Ticks, snap.AlarmTotal)
	}
	// A caller that comes late drops the beats it missed, as a ticker does.
	late := virtualStart.Add(time.Minute)
	if next := a.Tick(late); !next.After(late) || next.After(late.Add(250*time.Millisecond)) {
		t.Errorf("after a minute's stall the next deadline is %v, want within a sample interval of %v", next, late)
	}
	if got := bus.take(); len(got) != 2 { // one stats export, one digest
		t.Errorf("a late tick published %v, want one stats export and one digest", got)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines, %d before New: the agent must start none", n, before)
	}
}

// TestOffTierHasNoDeadline: a tier that is off contributes no deadline; with
// every tier off Tick returns zero and the node's loop never wakes for it.
func TestOffTierHasNoDeadline(t *testing.T) {
	bus := &fakeBus{}
	base := Config{Node: "n", Registry: mop.NewRegistry(), Publish: bus.publish, Metrics: telemetry.NewRegistry()}
	a, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if next := a.Tick(virtualStart); !next.IsZero() {
		t.Errorf("a tierless agent wants the clock at %v", next)
	}
	stats := base
	stats.StatsInterval = 3 * time.Second
	if a, err = New(stats); err != nil {
		t.Fatal(err)
	}
	if got, want := drive(t, a, bus, 10*time.Second), map[string]int{"_sys.stats.n SysStats": 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("stats only: published %v, want %v", got, want)
	}
	if next := a.Tick(virtualStart.Add(10 * time.Second)); !next.Equal(virtualStart.Add(12 * time.Second)) {
		t.Errorf("stats only: next deadline %v, want the fourth beat at +12 s", next)
	}
}

// TestStrangerUnderSysNameRefusedAtStart: a registry that has harvested a
// differently shaped class under a Sys name (a peer on another build
// published "_sys.trace" first; a host starts its agent lazily, on its first
// sidecar) makes New fail with mop.ErrTypeExists. Before the kinds were
// bound declarations it took whatever class held the name and the first
// sidecar panicked on the publish path, setting an attribute it lacks.
func TestStrangerUnderSysNameRefusedAtStart(t *testing.T) {
	reg := mop.NewRegistry()
	stranger := mop.MustNewClass("SysTraceHop", nil, []mop.Attr{{Name: "kind", Type: mop.String}}, nil)
	if err := reg.Register(stranger); err != nil {
		t.Fatal(err)
	}
	bus := &fakeBus{}
	a, err := New(Config{Node: "n", Registry: reg, Publish: bus.publish, Metrics: telemetry.NewRegistry()})
	if err == nil {
		a.Trace(9, []busproto.TraceHop{{Kind: busproto.HopQuorumAck, Node: "n", At: 1}})
		t.Fatal("New accepted a registry holding a one-attribute SysTraceHop")
	}
	if !errors.Is(err, mop.ErrTypeExists) || a != nil {
		t.Errorf("New = %v, %v; want nil and an error wrapping mop.ErrTypeExists", a, err)
	}
	if got, _ := reg.Lookup("SysTraceHop"); got != stranger {
		t.Error("the refused start replaced the class it refused")
	}
}
