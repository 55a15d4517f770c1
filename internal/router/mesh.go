package router

import (
	"time"

	"infobus/internal/bufpool"
	"infobus/internal/busproto"
	"infobus/internal/mesh"
	"infobus/internal/telemetry"
)

// This file is the router's half of the self-organizing mesh
// (internal/mesh): it puts the mesh advertisements on the wire, feeds
// received ones into the state machine, prunes expired host interest on
// the protocol clock, and mirrors the mesh's counters into telemetry (the
// mesh-flap watch and the flight-data history ring read them there).
//
// Routers meet through the hellos alone: the first one leaves on a
// router's first tick, and a neighbour that learns anything from it
// answers with a triggered hello on its own next tick.

// meshAgent drives one Router's mesh.Mesh.
type meshAgent struct {
	r     *Router
	m     *mesh.Mesh
	types mesh.Types
	node  string // sanitised node name for status subjects

	// Telemetry mirrors of the mesh's internal counters (monotone; the
	// loop adds deltas each tick so WatchRate and the history ring see
	// ordinary counters).
	readverts   *telemetry.Counter
	topoChanges *telemetry.Counter
	idConflicts *telemetry.Counter
	helloSent   *telemetry.Counter
	adsDropped  *telemetry.Counter
	last        mesh.Counters
}

func newMeshAgent(r *Router, cfg mesh.Config) *meshAgent {
	names := make([]string, len(r.atts))
	for i, att := range r.atts {
		names[i] = att.name
	}
	return &meshAgent{
		r:           r,
		m:           mesh.New(r.opts.Name, names, cfg),
		types:       mesh.MustTypes(),
		node:        telemetry.SanitizeNode("router-" + r.opts.Name),
		readverts:   r.metrics.Counter("mesh.readvertisements"),
		topoChanges: r.metrics.Counter("mesh.topology_changes"),
		idConflicts: r.metrics.Counter("mesh.id_conflicts"),
		helloSent:   r.metrics.Counter("mesh.hellos_sent"),
		adsDropped:  r.metrics.Counter("mesh.ads_dropped"),
	}
}

// loop is the protocol clock: it prunes and gathers host interest, advances
// the state machine, and broadcasts whatever came due.
func (a *meshAgent) loop() {
	r := a.r
	defer r.wg.Done()
	ticker := time.NewTicker(a.m.TickInterval())
	defer ticker.Stop()
	hostPatterns := make([][]string, len(r.atts))
	for {
		select {
		case <-r.done:
			return
		case now := <-ticker.C:
			// Host interest snapshot BEFORE entering the mesh lock: the
			// mesh never takes attachment locks, attachments never hold
			// theirs while asking the mesh, so the order cannot deadlock.
			for i, att := range r.atts {
				var pruned bool
				if hostPatterns[i], pruned = att.livePatterns(now); pruned {
					a.m.HostInterestChanged(i)
				}
			}
			acts := a.m.Actions(now, hostPatterns)
			for _, h := range acts.Hellos {
				if payload, err := mesh.MarshalHello(a.types, h.Ad); err == nil {
					a.broadcast(h.Link, mesh.HelloSubject, payload)
					a.helloSent.Inc()
				}
			}
			for _, i := range acts.Interests {
				if payload, err := mesh.MarshalInterest(a.types, i.Ad); err == nil {
					a.broadcast(i.Link, mesh.InterestSubject, payload)
				}
			}
			if acts.Status != nil {
				st := *acts.Status
				st.Node = a.node
				if payload, err := mesh.MarshalStatus(a.types, st); err == nil {
					for li := range r.atts {
						a.broadcast(li, mesh.StatusSubject(a.node), payload)
					}
				}
			}
			a.mirrorCounters()
		}
	}
}

// mirrorCounters adds what the mesh counted since the last tick to the
// telemetry registry, and records the two events an operator looks for in
// a dump: a tree change, and the first sighting of a router sharing this
// one's name (two routers with one id never elect against each other, so
// nothing crosses the pair until one is renamed).
func (a *meshAgent) mirrorCounters() {
	c := a.m.Counters()
	a.readverts.Add(c.Readverts - a.last.Readverts)
	if c.TopoChanges > a.last.TopoChanges {
		a.topoChanges.Add(c.TopoChanges - a.last.TopoChanges)
		if a.r.rec != nil {
			a.r.rec.Record(telemetry.EventMesh, "mesh-topology", int64(c.TopoChanges), 0)
		}
	}
	if c.IDConflicts > a.last.IDConflicts {
		a.idConflicts.Add(c.IDConflicts - a.last.IDConflicts)
		if a.last.IDConflicts == 0 && a.r.rec != nil {
			a.r.rec.Record(telemetry.EventMesh, "mesh-id-conflict", int64(c.IDConflicts), 0)
		}
	}
	a.last = c
}

func (a *meshAgent) broadcast(li int, subj string, payload []byte) {
	att := a.r.atts[li]
	buf := bufpool.Get(len(subj) + len(payload) + 48)
	*buf = busproto.AppendEncode((*buf)[:0], busproto.Envelope{
		Kind: busproto.KindPublish, Subject: subj, Payload: payload,
	})
	err := att.conn.Publish(*buf)
	bufpool.Put(buf)
	if err != nil {
		a.adsDropped.Inc()
		return
	}
	_ = att.conn.Flush()
}

// handle consumes the payload view of one link-local mesh publication
// (mesh.HelloSubject or mesh.InterestSubject) received on an attachment.
// The decoded class, not the subject it arrived on, says which it is.
func (a *meshAgent) handle(att *attachment, payload []byte) {
	v, err := mesh.ParseAd(payload)
	if err != nil {
		return
	}
	switch ad := v.(type) {
	case mesh.HelloAd:
		a.m.HandleHello(att.index, ad, time.Now())
	case mesh.InterestAd:
		a.m.HandleInterest(att.index, ad, time.Now())
	}
}
