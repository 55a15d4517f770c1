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
// tiers and a publish func, never a new loop: the agent's one goroutine is
// the only clock a node's telemetry has — it exports the stats, publishes
// the digests, ticks the alarm engine and samples the flight-data ring.
package sysagent

import (
	"sync"
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
	// drops it. Called from the agent's goroutine and whichever goroutine
	// calls Probe or Trace.
	Publish func(subject string, payload []byte)

	// Stats tier: every StatsInterval the Metrics snapshot goes out as a
	// SysStats on "_sys.stats.<node>", and a "_sys.ping" is answered with a
	// SysPong plus a fresh snapshot. 0 disables.
	Metrics       *telemetry.Registry
	StatsInterval time.Duration

	// Health tier: the agent ticks Engine every HealthInterval,
	// publishes each raise/clear edge as a SysAlarm on
	// "_sys.alarm.<node>.<kind>", and answers "_sys.dump" with the engine's
	// active alarms and its recorder's ring (the engine must have one). Nil
	// disables. Watches are the node's business: it registers them on the
	// engine, before or after Start.
	Engine         *telemetry.Engine
	HealthInterval time.Duration

	// History tier: the agent ticks History every History.Interval(),
	// answers "_sys.history" with the full window as a SysHistory on
	// "_sys.history.<node>", notes alarm edges into the ring, and every
	// DigestEvery (0: probe-only) publishes the last DigestSamples ticks
	// there unprompted. Families, optional, supplies the subject-family
	// table shipped with each window. Nil History disables. Series are the
	// node's business: it tracks them before Start.
	History     *telemetry.History
	DigestEvery time.Duration
	Families    func() []telemetry.TopKEntry
}

// Agent is a node's running "_sys" publisher: one goroutine, whatever the
// tiers. With every tier off it is just the node's Sys classes and publish
// func (Trace still works) and owns none.
type Agent struct {
	cfg   Config
	node  string
	start time.Time

	done chan struct{}
	stop sync.Once
	wg   sync.WaitGroup
}

// Start defines the Sys classes in cfg.Registry and launches the enabled
// tiers. A registry that already holds a differently shaped class under a
// Sys name (a peer on another build got there first) is an error wrapping
// mop.ErrTypeExists, and nothing is started.
func Start(cfg Config) (*Agent, error) {
	if err := telemetry.Schema.Define(cfg.Registry); err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:   cfg,
		node:  telemetry.SanitizeNode(cfg.Node),
		start: time.Now(),
		done:  make(chan struct{}),
	}
	var health, sample time.Duration // what the loop ticks; zero for a tier that is off
	if cfg.History != nil {
		sample = cfg.History.Interval()
	}
	if cfg.Engine != nil {
		cfg.Engine.SetSink(a.publishAlarm)
		health = cfg.HealthInterval
	}
	if cfg.StatsInterval > 0 || cfg.DigestEvery > 0 || health > 0 || sample > 0 {
		a.wg.Add(1)
		go a.loop(health, sample)
	}
	return a, nil
}

// Stop halts the agent's clock; calling it again is harmless. When it
// returns the agent's goroutine is gone and nothing is published, ticked or
// sampled on the agent's own account; the node stops calling Probe and
// Trace.
func (a *Agent) Stop() {
	a.stop.Do(func() { close(a.done) })
	a.wg.Wait()
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
		a.publishStats()
	case string(subject) == telemetry.DumpSubject && a.cfg.Engine != nil:
		a.publishDump()
	case string(subject) == telemetry.HistorySubject && a.cfg.History != nil:
		a.publishHistory(0)
	}
}

// Trace publishes stage hops of an already-departed traced envelope (the
// quorum-ack stamp, known only after dissemination) as a SysTrace sidecar
// on "_sys.trace.<node>"; trace assemblers merge it by trace id.
func (a *Agent) Trace(traceID uint64, hops []busproto.TraceHop) {
	t := telemetry.NewTrace(a.node, traceID, hops)
	a.publish(telemetry.TraceSubject(a.node), telemetry.SysTrace.Object(&t))
}

// loop is the agent's clock: the stats export, the history digest, the
// alarm engine's tick and the flight-data ring's sample, each on its own
// ticker (a nil channel, for a tier that is off, never fires).
func (a *Agent) loop(healthEvery, sampleEvery time.Duration) {
	defer a.wg.Done()
	var tickers []*time.Ticker
	defer func() {
		for _, t := range tickers {
			t.Stop()
		}
	}()
	every := func(d time.Duration) <-chan time.Time {
		if d <= 0 {
			return nil
		}
		t := time.NewTicker(d)
		tickers = append(tickers, t)
		return t.C
	}
	stats, digest := every(a.cfg.StatsInterval), every(a.cfg.DigestEvery)
	health, sample := every(healthEvery), every(sampleEvery)
	for {
		select {
		case <-a.done:
			return
		case <-stats:
			a.publishStats()
		case <-digest:
			a.publishHistory(DigestSamples)
		case now := <-health:
			a.cfg.Engine.Tick(now)
		case now := <-sample:
			a.cfg.History.Tick(now)
		}
	}
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

func (a *Agent) publishStats() {
	now := time.Now()
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
func (a *Agent) publishHistory(maxSamples int) {
	snap := a.cfg.History.Snapshot(maxSamples)
	snap.Node, snap.At = a.node, time.Now()
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
