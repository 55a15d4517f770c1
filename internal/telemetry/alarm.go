package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Alarm engine: turns the registry's levels (gauges, counter rates) into
// *edges* a monitor can trust. Each Watch samples one signal on every
// engine tick and compares it against a raise threshold and a (lower)
// clear threshold; an alarm is raised only after the signal has held at or
// above Raise for RaiseHold consecutive ticks, and clears only after it
// has held at or below Clear for ClearHold consecutive ticks. The
// raise/clear asymmetry (hysteresis) is the point: a consumer hovering
// around the watermark produces one raise and one clear, not a square
// wave of alarm traffic on the medium.
//
// Sample functions run with the engine lock held and must therefore be
// lock-free — in practice they are atomic loads of the gauges the hot
// paths already maintain, so watching costs the watched code nothing.
// Edge callbacks (the sink) run after the lock is released and may
// publish on the bus.

// HealthConfig tunes the health tier a Host or router runs. The zero
// value disables it entirely (Interval == 0); any enabled field left zero
// gets the stated default.
type HealthConfig struct {
	// Interval is the alarm-engine sampling period. Zero disables the
	// health tier (no engine, no recorder, no _sys.alarm publications).
	Interval time.Duration
	// SlowConsumerDepth raises "slow-consumer" when a client's undelivered
	// queue depth reaches it. Default 1024 messages.
	SlowConsumerDepth int64
	// RetransmitStormRate raises "retransmit-storm" when the node's
	// retransmission rate reaches it (messages/second). Default 500.
	RetransmitStormRate int64
	// MeshFlapRate raises "mesh-flap" on a mesh-enabled router when its
	// interest re-advertisement rate reaches it (ads/second): a healthy
	// mesh is quiet in steady state, so sustained churn means a flapping
	// subscriber, link, or election fight occupying every segment on the
	// tree path. Default 50.
	MeshFlapRate int64
}

// Enabled reports whether the health tier is on.
func (c HealthConfig) Enabled() bool { return c.Interval > 0 }

// WithDefaults fills zero fields with the documented defaults. Interval
// is left alone: zero means disabled, and callers that enable the tier
// have already chosen a period.
func (c HealthConfig) WithDefaults() HealthConfig {
	if c.SlowConsumerDepth <= 0 {
		c.SlowConsumerDepth = 1024
	}
	if c.RetransmitStormRate <= 0 {
		c.RetransmitStormRate = 500
	}
	if c.MeshFlapRate <= 0 {
		c.MeshFlapRate = 50
	}
	return c
}

// AlarmEvent is one raise or clear edge (the SysAlarm kind).
type AlarmEvent struct {
	Node      string    `mop:"node"`      // sanitised node name of the detecting process
	Kind      string    `mop:"kind"`      // alarm kind: "slow-consumer", "retransmit-storm", ...
	Target    string    `mop:"target"`    // the specific entity (client name, peer address); may be ""
	Raised    bool      `mop:"raised"`    // true = raise edge, false = clear edge
	Value     int64     `mop:"value"`     // the sampled value at the edge
	Threshold int64     `mop:"threshold"` // the threshold that was crossed (Raise or Clear)
	At        time.Time `mop:"at"`
}

// WatchConfig describes one watched signal.
type WatchConfig struct {
	// Kind names the alarm ("slow-consumer"); it must be a valid subject
	// element since it becomes the last element of "_sys.alarm.<node>.<kind>".
	Kind string
	// Target identifies the watched entity within the kind.
	Target string
	// Raise is the level at or above which the alarm raises. Required.
	Raise int64
	// Clear is the level at or below which a raised alarm clears.
	// Default Raise/2.
	Clear int64
	// RaiseHold is how many consecutive ticks the signal must hold at or
	// above Raise before the raise edge fires. Default 1 (raise on first
	// sight; depth watermarks are already integrated signals).
	RaiseHold int
	// ClearHold is how many consecutive ticks the signal must hold at or
	// below Clear before the clear edge fires. Default 2.
	ClearHold int
}

func (c WatchConfig) withDefaults() WatchConfig {
	if c.Clear <= 0 || c.Clear > c.Raise {
		c.Clear = c.Raise / 2
	}
	if c.RaiseHold <= 0 {
		c.RaiseHold = 1
	}
	if c.ClearHold <= 0 {
		c.ClearHold = 2
	}
	return c
}

// Watch is one registered signal. Its state belongs to the engine.
type Watch struct {
	cfg    WatchConfig
	label  string // "<kind>:<target>" precomputed so edge recording is alloc-free
	sample func() int64

	// Rate mode: sample() reads a cumulative counter and the engine
	// differentiates it against the previous tick.
	rate     bool
	havePrev bool
	prev     int64
	prevAt   time.Time

	raised bool
	above  int // consecutive ticks at/above Raise
	below  int // consecutive ticks at/below Clear
	value  int64

	// raiseValue and raiseAt freeze the raise edge so Active can report
	// the event that actually tripped the alarm. While an alarm is held
	// raised by hysteresis, the latest tick's sample can legitimately sit
	// below the threshold (a rate watch catching a quiet window); the
	// synthetic raise event must not inherit that transient.
	raiseValue int64
	raiseAt    time.Time
}

// Engine evaluates a set of Watches each time its owner calls Tick: the
// node's sysagent on the health interval, a test whenever it likes.
type Engine struct {
	node string
	rec  *Recorder
	sink func(AlarmEvent)

	active *Gauge
	raises *Counter
	clears *Counter

	mu      sync.Mutex
	watches []*Watch
}

// NewEngine creates an engine for a node. reg and rec may be nil (no
// engine metrics / no flight recording).
func NewEngine(node string, reg *Registry, rec *Recorder) *Engine {
	e := &Engine{node: SanitizeNode(node), rec: rec}
	if reg != nil {
		e.active = reg.Gauge("health.alarms_active")
		e.raises = reg.Counter("health.alarms_raised")
		e.clears = reg.Counter("health.alarms_cleared")
	}
	return e
}

// Node returns the engine's sanitised node name.
func (e *Engine) Node() string { return e.node }

// Recorder returns the flight recorder wired at construction (may be nil).
func (e *Engine) Recorder() *Recorder { return e.rec }

// SetSink installs the edge callback. It is invoked outside the engine
// lock, from the goroutine that called Tick, once per raise/clear edge. Set
// it before the first Tick.
func (e *Engine) SetSink(f func(AlarmEvent)) { e.sink = f }

// Watch registers a level watch. sample must be lock-free (an atomic
// load): it runs with the engine lock held on every tick.
func (e *Engine) Watch(cfg WatchConfig, sample func() int64) *Watch {
	return e.register(cfg, sample, false)
}

// WatchRate registers a rate watch over a cumulative counter: the watched
// value is the counter's per-second increase between ticks. Thresholds
// are in events/second.
func (e *Engine) WatchRate(cfg WatchConfig, c *Counter) *Watch {
	return e.register(cfg, func() int64 { return int64(c.Load()) }, true)
}

// WatchRateFunc is WatchRate over an arbitrary cumulative sample — e.g.
// the sum of several counters feeding one alarm. Like every sample
// function it runs with the engine lock held and must be lock-free.
func (e *Engine) WatchRateFunc(cfg WatchConfig, sample func() int64) *Watch {
	return e.register(cfg, sample, true)
}

func (e *Engine) register(cfg WatchConfig, sample func() int64, rate bool) *Watch {
	cfg = cfg.withDefaults()
	w := &Watch{cfg: cfg, sample: sample, rate: rate, label: cfg.Kind}
	if cfg.Target != "" {
		w.label = cfg.Kind + ":" + cfg.Target
	}
	e.mu.Lock()
	e.watches = append(e.watches, w)
	e.mu.Unlock()
	return w
}

// Unwatch removes a watch. If the watch is currently raised, a clear edge
// is emitted so monitors are not left holding a stuck alarm (a slow
// consumer that disconnects has, from the bus's point of view, stopped
// being slow).
func (e *Engine) Unwatch(w *Watch) {
	if w == nil {
		return
	}
	var ev AlarmEvent
	fire := false
	e.mu.Lock()
	for i, got := range e.watches {
		if got == w {
			e.watches = append(e.watches[:i], e.watches[i+1:]...)
			if w.raised {
				w.raised = false
				fire = true
				ev = AlarmEvent{
					Node: e.node, Kind: w.cfg.Kind, Target: w.cfg.Target,
					Raised: false, Value: w.value, Threshold: w.cfg.Clear,
					At: time.Now(),
				}
			}
			break
		}
	}
	e.mu.Unlock()
	if fire {
		e.noteEdge(w, ev)
	}
}

// Tick samples every watch once and fires any resulting edges. now is
// passed in so tests can drive deterministic sequences.
func (e *Engine) Tick(now time.Time) {
	// Steady state (no edges) must not allocate: the engine runs at
	// 10+ Hz inside every host and must stay invisible to the alloc
	// benchmarks. Edge slices are only built when an edge actually fires.
	var fired []*Watch
	var events []AlarmEvent
	e.mu.Lock()
	for _, w := range e.watches {
		v := w.sample()
		if w.rate {
			cur := v
			if !w.havePrev {
				w.havePrev, w.prev, w.prevAt = true, cur, now
				continue
			}
			dt := now.Sub(w.prevAt).Seconds()
			if dt <= 0 {
				continue
			}
			v = int64(float64(cur-w.prev) / dt)
			w.prev, w.prevAt = cur, now
		}
		w.value = v
		switch {
		case v >= w.cfg.Raise:
			w.above++
			w.below = 0
		case v <= w.cfg.Clear:
			w.below++
			w.above = 0
		default:
			w.above, w.below = 0, 0
		}
		if !w.raised && w.above >= w.cfg.RaiseHold {
			w.raised = true
			w.raiseValue, w.raiseAt = v, now
			fired = append(fired, w)
			events = append(events, AlarmEvent{
				Node: e.node, Kind: w.cfg.Kind, Target: w.cfg.Target,
				Raised: true, Value: v, Threshold: w.cfg.Raise, At: now,
			})
		} else if w.raised && w.below >= w.cfg.ClearHold {
			w.raised = false
			fired = append(fired, w)
			events = append(events, AlarmEvent{
				Node: e.node, Kind: w.cfg.Kind, Target: w.cfg.Target,
				Raised: false, Value: v, Threshold: w.cfg.Clear, At: now,
			})
		}
	}
	e.mu.Unlock()
	for i, w := range fired {
		e.noteEdge(w, events[i])
	}
}

func (e *Engine) noteEdge(w *Watch, ev AlarmEvent) {
	if ev.Raised {
		if e.raises != nil {
			e.raises.Inc()
			e.active.Add(1)
		}
		if e.rec != nil {
			e.rec.Record(EventAlarmRaise, w.label, ev.Value, ev.Threshold)
		}
	} else {
		if e.clears != nil {
			e.clears.Inc()
			e.active.Add(-1)
		}
		if e.rec != nil {
			e.rec.Record(EventAlarmClear, w.label, ev.Value, ev.Threshold)
		}
	}
	if e.sink != nil {
		e.sink(ev)
	}
}

// Active returns the currently raised alarms as (synthetic) raise events,
// sorted by registration order.
func (e *Engine) Active() []AlarmEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []AlarmEvent
	for _, w := range e.watches {
		if w.raised {
			out = append(out, AlarmEvent{
				Node: e.node, Kind: w.cfg.Kind, Target: w.cfg.Target,
				Raised: true, Value: w.raiseValue, Threshold: w.cfg.Raise,
				At: w.raiseAt,
			})
		}
	}
	return out
}

// DumpText renders the engine's active alarms followed by the flight
// recorder's ring — the text a "_sys.dump" probe is answered with.
func (e *Engine) DumpText() string {
	var b strings.Builder
	active := e.Active()
	if len(active) == 0 {
		b.WriteString("active alarms: none\n")
	} else {
		b.WriteString("active alarms:\n")
		for _, ev := range active {
			b.WriteString("  ")
			b.WriteString(ev.Kind)
			if ev.Target != "" {
				b.WriteByte(':')
				b.WriteString(ev.Target)
			}
			fmt.Fprintf(&b, " value=%d threshold=%d\n", ev.Value, ev.Threshold)
		}
	}
	if e.rec != nil {
		b.WriteString(e.rec.Dump())
	}
	return b.String()
}
