// Package sysagent is the one publisher and prober of a node's "_sys"
// telemetry objects. A node — host, router, whatever comes next — hands it
// what it has (a metrics registry, optionally an alarm engine, optionally a
// flight-data ring) and a way to publish, and the agent owns the rest: the
// Sys classes (telemetry.Schema, defined in the node's registry), the
// periodic "_sys.stats.<node>" export, alarm-edge publication, history
// digests, the answers to the "_sys.ping" / "_sys.dump" / "_sys.history"
// probes, the "_sys.trace.<node>" sidecar, and the marshal-then-publish step
// they all end in.
//
// The agent never asks what kind of node it serves: a tier is present or
// nil, and a nil tier publishes nothing and ignores its probe. The objects
// stay self-describing (P2) and are built from the one declaration of each
// kind (telemetry.Schema), so a new node kind is observable by supplying
// tiers and a publish func, never a new loop.
//
// The agent is a part of its node, with no goroutine or timer of its own.
// A node's periodic duty is a part with Tick(now) next: it does what has
// come due by the time it is handed and says when it next wants the clock
// (zero: not until woken), and the node's one housekeeping loop — a host's,
// a router's mesh loop — ticks whichever part is due.
package sysagent

import (
	"time"

	"infobus/internal/busproto"
	"infobus/internal/mop"
	"infobus/internal/telemetry"
	"infobus/internal/wire"
)

// DigestSamples is how many trailing ticks a periodic history digest
// carries per series — enough for a monitor's rate/percentile columns
// without re-shipping the whole window every time.
const DigestSamples = 8

// Config is what a node plugs into its agent. Node, Registry and Publish
// are required; each tier is off at its zero value.
type Config struct {
	// Node names the node; sanitised, it is the final element of every
	// per-node subject and the "node" attribute of every object.
	Node string
	// Registry receives the Sys classes and resolves probe payloads.
	Registry *mop.Registry
	// TypeCache, optional, resolves compact probe payloads (a ping nonce
	// object from a compact publisher in steady state).
	TypeCache *wire.TypeCache
	// Publish disseminates one marshalled object on subject, flushed — an
	// alarm must not sit in a batch buffer. Best-effort: a closing node
	// drops it. Called from whichever goroutine calls Tick, Probe or Trace.
	Publish func(subject string, payload []byte)

	// Stats tier: every StatsInterval the Metrics snapshot goes out as a
	// SysStats on "_sys.stats.<node>", and a "_sys.ping" is answered with a
	// SysPong plus a fresh snapshot. 0 disables.
	Metrics       *telemetry.Registry
	StatsInterval time.Duration

	// Health tier: Tick ticks Engine every HealthInterval,
	// publishes each raise/clear edge as a SysAlarm on
	// "_sys.alarm.<node>.<kind>", and answers "_sys.dump" with the engine's
	// active alarms and its recorder's ring (the engine must have one). Nil
	// disables. Watches are the node's business: it registers them on the
	// engine, before or after New.
	Engine         *telemetry.Engine
	HealthInterval time.Duration

	// History tier: Tick ticks History every History.Interval(),
	// answers "_sys.history" with the full window as a SysHistory on
	// "_sys.history.<node>", notes alarm edges into the ring, and every
	// DigestEvery (0: probe-only) publishes the last DigestSamples ticks
	// there unprompted. Families, optional, supplies the subject-family
	// table shipped with each window. Nil History disables. Series are the
	// node's business: it tracks them before the first Tick.
	History     *telemetry.History
	DigestEvery time.Duration
	Families    func() []telemetry.TopKEntry
}

// Every is a ticker on the time it is handed: one cadence of a part.
type Every struct {
	D  time.Duration // the period; <= 0 is off: never due, no deadline
	At time.Time     // the deadline; zero while off or not yet armed
}

// Due reports whether a beat has come due by now and, when one has, moves
// the deadline one period on from the last — from now if that is already
// past: a late caller drops the beats it missed, as a time.Ticker does. The
// first call arms the deadline, one period out.
func (e *Every) Due(now time.Time) bool {
	switch {
	case e.D <= 0:
		return false
	case e.At.IsZero():
		e.At = now.Add(e.D)
		return false
	case now.Before(e.At):
		return false
	}
	if e.At = e.At.Add(e.D); !e.At.After(now) {
		e.At = now.Add(e.D)
	}
	return true
}

// Earliest returns the earlier of two deadlines, zero meaning none.
func Earliest(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// Agent is a node's "_sys" publisher. With every tier off it is just the
// node's Sys classes and publish func (Trace still works) and has no
// deadline.
type Agent struct {
	cfg   Config
	node  string
	start time.Time
	// One cadence per periodic duty, off with its tier: Tick's alone, while
	// Probe and Trace may run beside it.
	stats, digest, health, sample Every
}

// New defines the Sys classes in cfg.Registry and binds the enabled tiers.
// A registry that already holds a differently shaped class under a Sys name
// (a peer on another build got there first) is an error wrapping
// mop.ErrTypeExists.
func New(cfg Config) (*Agent, error) {
	if err := telemetry.Schema.Define(cfg.Registry); err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:    cfg,
		node:   telemetry.SanitizeNode(cfg.Node),
		start:  time.Now(),
		stats:  Every{D: cfg.StatsInterval},
		digest: Every{D: cfg.DigestEvery},
	}
	if cfg.History != nil {
		a.sample.D = cfg.History.Interval()
	}
	if cfg.Engine != nil {
		cfg.Engine.SetSink(a.publishAlarm)
		a.health.D = cfg.HealthInterval
	}
	return a, nil
}

// Tick does what has come due by now — the stats export, the history
// digest, the alarm engine's tick, the flight-data ring's sample — and
// returns the earliest deadline left, zero with every tier off.
func (a *Agent) Tick(now time.Time) time.Time {
	if a.stats.Due(now) {
		a.publishStats(now)
	}
	if a.digest.Due(now) {
		a.publishHistory(DigestSamples, now)
	}
	if a.health.Due(now) {
		a.cfg.Engine.Tick(now)
	}
	if a.sample.Due(now) {
		a.cfg.History.Tick(now)
	}
	return Earliest(Earliest(a.stats.At, a.digest.At), Earliest(a.health.At, a.sample.At))
}

// ProbeSubjects lists the probe subjects the enabled tiers answer: what a
// node that does not see all traffic must subscribe to, and nothing more,
// so a tier that is off advertises no interest.
func (a *Agent) ProbeSubjects() []string {
	var out []string
	if a.cfg.StatsInterval > 0 {
		out = append(out, telemetry.PingSubject)
	}
	if a.cfg.History != nil {
		out = append(out, telemetry.HistorySubject)
	}
	if a.cfg.Engine != nil {
		out = append(out, telemetry.DumpSubject)
	}
	return out
}

// Probe answers one probe publication; any other subject, or the probe of
// a tier that is off, is ignored. The subject is a byte view and is only
// compared, so a node that peeks its traffic (a router, which hands every
// "_sys" publication it forwards through here) pays no allocation.
func (a *Agent) Probe(subject, payload []byte) {
	switch {
	case string(subject) == telemetry.PingSubject && a.cfg.StatsInterval > 0:
		a.publish(telemetry.PongSubject(a.node),
			telemetry.SysPong.Object(&telemetry.Pong{Node: a.node, At: time.Now(), Nonce: a.nonce(payload)}))
		a.publishStats(time.Now())
	case string(subject) == telemetry.DumpSubject && a.cfg.Engine != nil:
		a.publishDump()
	case string(subject) == telemetry.HistorySubject && a.cfg.History != nil:
		a.publishHistory(0, time.Now())
	}
}

// Trace publishes stage hops of an already-departed traced envelope (the
// quorum-ack stamp, known only after dissemination) as a SysTrace sidecar
// on "_sys.trace.<node>"; trace assemblers merge it by trace id.
func (a *Agent) Trace(traceID uint64, hops []busproto.TraceHop) {
	t := telemetry.NewTrace(a.node, traceID, hops)
	a.publish(telemetry.TraceSubject(a.node), telemetry.SysTrace.Object(&t))
}

// publish is the one marshal-then-publish step. The classes travel with
// the object (P2); no subscriber needs to link against this package.
func (a *Agent) publish(subject string, obj *mop.Object) {
	payload, err := wire.Marshal(obj)
	if err != nil {
		return // skip this one; the next tick or probe tries afresh
	}
	a.cfg.Publish(subject, payload)
}

func (a *Agent) publishStats(now time.Time) {
	a.publish(telemetry.StatsSubject(a.node), telemetry.SysStats.Object(&telemetry.Stats{
		Node: a.node, At: now, Uptime: now.Sub(a.start), Metrics: a.cfg.Metrics.Snapshot()}))
}

// publishAlarm is the engine sink: one SysAlarm per edge, noted into the
// flight-data ring too so a "_sys.history" window shows it aligned with
// the samples that tripped it.
func (a *Agent) publishAlarm(ev telemetry.AlarmEvent) {
	if a.cfg.History != nil {
		a.cfg.History.NoteAlarm(ev)
	}
	a.publish(telemetry.AlarmSubject(ev.Node, ev.Kind), telemetry.SysAlarm.Object(&ev))
}

func (a *Agent) publishDump() {
	rec := a.cfg.Engine.Recorder()
	obj := telemetry.SysDump.Object(&telemetry.Dump{
		Node: a.node, At: time.Now(), Events: int64(rec.Total()), Text: a.cfg.Engine.DumpText()})
	rec.Record(telemetry.EventDump, a.node, 0, 0)
	a.publish(telemetry.DumpedSubject(a.node), obj)
}

// publishHistory renders the flight-data window (maxSamples 0 = full) plus
// the merged subject-family table.
func (a *Agent) publishHistory(maxSamples int, now time.Time) {
	snap := a.cfg.History.Snapshot(maxSamples)
	snap.Node, snap.At = a.node, now
	if a.cfg.Families != nil {
		snap.Families = a.cfg.Families()
	}
	a.publish(telemetry.HistoryNodeSubject(a.node), telemetry.SysHistory.Object(&snap))
}

// nonce extracts a ping's nonce — any integer value, or an object with an
// integer "nonce" attribute; anything else is 0 — so a prober can match
// pongs to its own probe.
func (a *Agent) nonce(payload []byte) int64 {
	v, err := wire.UnmarshalWith(payload, a.cfg.Registry, a.cfg.TypeCache)
	if err != nil {
		return 0
	}
	switch x := v.(type) {
	case int64:
		return x
	case *mop.Object:
		if n, err := x.Get("nonce"); err == nil {
			if i, ok := n.(int64); ok {
				return i
			}
		}
	}
	return 0
}
