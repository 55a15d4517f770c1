package router

import (
	"time"

	"infobus/internal/bufpool"
	"infobus/internal/busproto"
	"infobus/internal/mesh"
	"infobus/internal/sysagent"
	"infobus/internal/telemetry"
)

// This file is the router's half of the self-organizing mesh
// (internal/mesh): it puts what the state machine decides on the wire —
// hellos and status snapshots as self-describing objects, interest as the
// busproto.KindInterest envelope a host daemon sends — feeds received
// hellos in, ticks the protocol clock, and mirrors the mesh's counters into
// telemetry (the mesh-flap watch and the flight-data history ring read them
// there).
//
// Routers meet through the hellos alone: the first one leaves on a
// router's first tick, and a neighbour that learns anything from it
// answers with a triggered hello on its own next tick.

// meshAgent drives one Router's mesh.Mesh.
type meshAgent struct {
	r     *Router
	m     *mesh.Mesh
	every sysagent.Every // the protocol clock's cadence: Mesh.TickInterval
	node  string         // sanitised node name for status subjects

	// Telemetry mirrors of the mesh's internal counters (monotone; the
	// loop adds deltas each tick so WatchRate and the history ring see
	// ordinary counters).
	readverts   *telemetry.Counter
	topoChanges *telemetry.Counter
	idConflicts *telemetry.Counter
	capped      *telemetry.Counter
	helloSent   *telemetry.Counter
	adsDropped  *telemetry.Counter
	last        mesh.Counters
}

func newMeshAgent(r *Router, cfg mesh.Config) *meshAgent {
	names := make([]string, len(r.atts))
	for i, att := range r.atts {
		names[i] = att.name
	}
	m := mesh.New(r.opts.Name, names, r.opts.InterestTTL, cfg)
	return &meshAgent{
		r:           r,
		m:           m,
		every:       sysagent.Every{D: m.TickInterval()},
		node:        telemetry.SanitizeNode("router-" + r.opts.Name),
		readverts:   r.metrics.Counter("mesh.readvertisements"),
		topoChanges: r.metrics.Counter("mesh.topology_changes"),
		idConflicts: r.metrics.Counter("mesh.id_conflicts"),
		capped:      r.metrics.Counter("mesh.interest_capped"),
		helloSent:   r.metrics.Counter("mesh.hellos_sent"),
		adsDropped:  r.metrics.Counter("mesh.ads_dropped"),
	}
}

// loop is the router's one housekeeping goroutine: it hands the mesh and
// the "_sys" agent the time (sysagent's package comment) and sleeps until
// the earlier of their deadlines.
func (a *meshAgent) loop() {
	r := a.r
	defer r.wg.Done()
	timer := time.NewTimer(0) // the first pass arms the deadlines
	defer timer.Stop()
	for {
		select {
		case <-r.done:
			return
		case now := <-timer.C:
			next := a.tick(now)
			if r.sys != nil {
				next = sysagent.Earliest(next, r.sys.Tick(now))
			}
			timer.Reset(time.Until(next))
		}
	}
}

// tick is the protocol clock, a part like the agent: every TickInterval it
// advances the state machine and broadcasts whatever came due.
func (a *meshAgent) tick(now time.Time) time.Time {
	if !a.every.Due(now) {
		return a.every.At
	}
	acts := a.m.Actions(now)
	for i := range acts.Hellos {
		h := &acts.Hellos[i] // the binder reads through the pointer: no copy to the heap per hello
		if payload, err := mesh.MarshalHello(&h.Ad); err == nil {
			a.broadcast(h.Link, busproto.Envelope{Kind: busproto.KindPublish, Subject: mesh.HelloSubject, Payload: payload})
			a.helloSent.Inc()
		}
	}
	for _, i := range acts.Interests {
		a.broadcast(i.Link, busproto.Envelope{Kind: busproto.KindInterest, Patterns: i.Patterns})
	}
	if acts.Status != nil {
		acts.Status.Node = a.node
		if payload, err := mesh.MarshalStatus(acts.Status); err == nil {
			env := busproto.Envelope{Kind: busproto.KindPublish, Subject: mesh.StatusSubject(a.node), Payload: payload}
			for li := range a.r.atts {
				a.broadcast(li, env)
			}
		}
	}
	a.mirrorCounters()
	return a.every.At
}

// mirrorCounters adds what the mesh counted since the last tick to the
// telemetry registry, and records the three events an operator looks for in
// a dump: a tree change, the first sighting of a router sharing this one's
// name (two routers with one id never elect against each other, so a cycle
// through the pair stays uncut until one is renamed), and the first
// advertisement an interest-table bound cut short.
func (a *meshAgent) mirrorCounters() {
	c := a.m.Counters()
	a.readverts.Add(c.Readverts - a.last.Readverts)
	if c.TopoChanges > a.last.TopoChanges {
		a.topoChanges.Add(c.TopoChanges - a.last.TopoChanges)
		if a.r.rec != nil {
			a.r.rec.Record(telemetry.EventMesh, "mesh-topology", int64(c.TopoChanges), 0)
		}
	}
	recordedOnce := func(ctr *telemetry.Counter, now, last uint64, event string) {
		if now > last {
			ctr.Add(now - last)
			if last == 0 && a.r.rec != nil {
				a.r.rec.Record(telemetry.EventMesh, event, int64(now), 0)
			}
		}
	}
	recordedOnce(a.idConflicts, c.IDConflicts, a.last.IDConflicts, "mesh-id-conflict")
	recordedOnce(a.capped, c.InterestCapped, a.last.InterestCapped, "mesh-interest-capped")
	a.last = c
}

func (a *meshAgent) broadcast(li int, env busproto.Envelope) {
	att := a.r.atts[li]
	buf := bufpool.Get(len(env.Subject) + len(env.Payload) + 16*len(env.Patterns) + 48)
	*buf = busproto.AppendEncode((*buf)[:0], env)
	err := att.conn.Publish(*buf)
	bufpool.Put(buf)
	if err != nil {
		a.adsDropped.Inc()
		return
	}
	_ = att.conn.Flush()
}

// handleHello consumes the payload view of one publication received on
// mesh.HelloSubject; anything that does not decode to a hello is ignored.
func (a *meshAgent) handleHello(att *attachment, payload []byte) {
	if v, err := mesh.ParseAd(payload); err == nil {
		if ad, ok := v.(mesh.HelloAd); ok {
			a.m.HandleHello(att.index, ad, time.Now())
		}
	}
}
