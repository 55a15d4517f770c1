package telemetry

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tickEngine drives an engine through deterministic ticks one second
// apart, collecting sink edges.
type tickEngine struct {
	*Engine
	now    time.Time
	events []AlarmEvent
}

func newTickEngine(t *testing.T) *tickEngine {
	t.Helper()
	te := &tickEngine{
		Engine: NewEngine("n1", NewRegistry(), NewRecorder(16)),
		now:    time.Unix(100, 0),
	}
	te.SetSink(func(ev AlarmEvent) { te.events = append(te.events, ev) })
	return te
}

func (te *tickEngine) tick() {
	te.now = te.now.Add(time.Second)
	te.Tick(te.now)
}

func TestAlarmHysteresis(t *testing.T) {
	te := newTickEngine(t)
	var level atomic.Int64
	te.Watch(WatchConfig{Kind: "slow-consumer", Target: "app1", Raise: 10}, level.Load)

	level.Store(9)
	te.tick()
	if len(te.events) != 0 {
		t.Fatalf("below Raise must not fire: %+v", te.events)
	}
	level.Store(10)
	te.tick()
	if len(te.events) != 1 || !te.events[0].Raised {
		t.Fatalf("at Raise must fire one raise edge: %+v", te.events)
	}
	ev := te.events[0]
	if ev.Node != "n1" || ev.Kind != "slow-consumer" || ev.Target != "app1" ||
		ev.Value != 10 || ev.Threshold != 10 {
		t.Fatalf("raise edge = %+v", ev)
	}
	level.Store(50)
	te.tick()
	if len(te.events) != 1 {
		t.Fatalf("raised alarm must not re-raise: %+v", te.events)
	}
	if got := te.Active(); len(got) != 1 || !got[0].Raised {
		t.Fatalf("Active while raised = %+v", got)
	}

	// Hover between Clear (default Raise/2 = 5) and Raise: no edge, and the
	// clear hold must reset.
	level.Store(7)
	te.tick()
	level.Store(5)
	te.tick() // below hold 1 of 2
	level.Store(7)
	te.tick() // hold resets
	level.Store(5)
	te.tick() // below hold 1
	if len(te.events) != 1 {
		t.Fatalf("clear fired before ClearHold: %+v", te.events)
	}
	level.Store(4)
	te.tick() // below hold 2 -> clear
	if len(te.events) != 2 || te.events[1].Raised {
		t.Fatalf("want one clear edge: %+v", te.events)
	}
	if te.events[1].Value != 4 || te.events[1].Threshold != 5 {
		t.Fatalf("clear edge = %+v", te.events[1])
	}
	if got := te.Active(); len(got) != 0 {
		t.Fatalf("Active after clear = %+v", got)
	}

	// Engine metrics and flight recorder saw both edges.
	recEvents := te.Recorder().Events()
	if len(recEvents) != 2 || recEvents[0].Kind != EventAlarmRaise || recEvents[1].Kind != EventAlarmClear {
		t.Fatalf("recorder = %+v", recEvents)
	}
	if recEvents[0].Target != "slow-consumer:app1" {
		t.Fatalf("recorded label = %q", recEvents[0].Target)
	}
}

func TestAlarmRaiseHold(t *testing.T) {
	te := newTickEngine(t)
	var level atomic.Int64
	te.Watch(WatchConfig{Kind: "k", Raise: 10, RaiseHold: 3}, level.Load)
	level.Store(10)
	te.tick()
	te.tick()
	if len(te.events) != 0 {
		t.Fatalf("fired before RaiseHold: %+v", te.events)
	}
	te.tick()
	if len(te.events) != 1 || !te.events[0].Raised {
		t.Fatalf("want raise on third consecutive tick: %+v", te.events)
	}
	// A dip below Raise resets the hold.
	level.Store(3)
	te.tick()
	te.tick() // clear (ClearHold default 2)
	level.Store(10)
	te.tick()
	te.tick()
	level.Store(9)
	te.tick()
	level.Store(10)
	te.tick()
	te.tick()
	if len(te.events) != 2 {
		t.Fatalf("hold must reset on dip: %+v", te.events)
	}
}

func TestAlarmRateWatch(t *testing.T) {
	te := newTickEngine(t)
	c := &Counter{}
	te.WatchRate(WatchConfig{Kind: "retransmit-storm", Raise: 500}, c)
	te.tick() // baseline sample, no rate yet
	c.Add(600)
	te.tick() // 600 events over 1s >= 500/s
	if len(te.events) != 1 || !te.events[0].Raised {
		t.Fatalf("want storm raise: %+v", te.events)
	}
	if te.events[0].Value < 550 || te.events[0].Value > 650 {
		t.Fatalf("rate value = %d, want ~600", te.events[0].Value)
	}
	// Counter stops moving: rate 0 for two ticks clears.
	te.tick()
	te.tick()
	if len(te.events) != 2 || te.events[1].Raised {
		t.Fatalf("want storm clear: %+v", te.events)
	}
}

func TestUnwatchEmitsClear(t *testing.T) {
	te := newTickEngine(t)
	var level atomic.Int64
	w := te.Watch(WatchConfig{Kind: "slow-consumer", Target: "gone", Raise: 1}, level.Load)
	level.Store(5)
	te.tick()
	if len(te.events) != 1 {
		t.Fatalf("setup raise: %+v", te.events)
	}
	te.Unwatch(w)
	if len(te.events) != 2 || te.events[1].Raised || te.events[1].Target != "gone" {
		t.Fatalf("Unwatch must emit a clear edge: %+v", te.events)
	}
	if got := te.Active(); len(got) != 0 {
		t.Fatalf("Active after Unwatch = %+v", got)
	}
	te.tick() // removed watch must not be sampled again
	if len(te.events) != 2 {
		t.Fatalf("removed watch fired: %+v", te.events)
	}
	te.Unwatch(w)   // double Unwatch is a no-op
	te.Unwatch(nil) // nil is a no-op
}

// TestTickSteadyStateAllocs pins the engine's background cost: a tick
// where no edge fires must not allocate (the engine runs inside every
// health-enabled host and must stay invisible to the alloc budget).
func TestTickSteadyStateAllocs(t *testing.T) {
	e := NewEngine("n1", NewRegistry(), NewRecorder(16))
	var level atomic.Int64
	e.Watch(WatchConfig{Kind: "slow-consumer", Raise: 1000}, level.Load)
	c := &Counter{}
	e.WatchRate(WatchConfig{Kind: "retransmit-storm", Raise: 500}, c)
	now := time.Unix(100, 0)
	e.Tick(now) // rate baseline
	allocs := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Second)
		e.Tick(now)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Tick allocates %.1f/op, want 0", allocs)
	}
}

func TestEngineDumpText(t *testing.T) {
	te := newTickEngine(t)
	var level atomic.Int64
	te.Watch(WatchConfig{Kind: "slow-consumer", Target: "app1", Raise: 10}, level.Load)
	text := te.DumpText()
	if !strings.Contains(text, "active alarms: none") {
		t.Fatalf("quiet dump = %q", text)
	}
	level.Store(11)
	te.tick()
	text = te.DumpText()
	if !strings.Contains(text, "slow-consumer:app1 value=11 threshold=10") {
		t.Fatalf("raised dump = %q", text)
	}
	if !strings.Contains(text, "flight recorder:") || !strings.Contains(text, "alarm-raise") {
		t.Fatalf("dump missing recorder section: %q", text)
	}
}

func TestSanitizedNodeAndAlarmSubject(t *testing.T) {
	e := NewEngine("127.0.0.1:7001", nil, nil)
	if strings.ContainsAny(e.Node(), ".*>") {
		t.Fatalf("node not sanitised: %q", e.Node())
	}
	subj := AlarmSubject(e.Node(), "slow-consumer")
	if !strings.HasPrefix(subj, "_sys.alarm.") || !strings.HasSuffix(subj, ".slow-consumer") {
		t.Fatalf("alarm subject = %q", subj)
	}
}
