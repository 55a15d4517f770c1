// Package router implements information routers (§3.1): "application-level
// 'information routers' ... To the Information Bus, these routers look
// like ordinary applications, but they actually integrate multiple
// instances of the bus. Messages are received by one router using a
// subscription, transmitted to another router, and then re-published on
// another bus. The router is intelligent about which messages are sent to
// which routers: messages are only re-published on buses for which there
// exists a subscription on that subject; the router can also perform
// other functions, such as transforming subjects or logging messages to
// non-volatile storage. Thus, the overall effect is to create the
// illusion of a single, large bus."
//
// A Router attaches to two or more network segments. On each attachment
// it listens to everything, keeps one interest table of the subscription
// advertisements it hears there, and forwards a publication to another
// segment only when that segment (or a segment behind it) holds a
// matching subscription. What lies behind a segment it learns from the
// other routers there, which advertise it as a host advertises its own
// subscriptions — the same envelope, into the same table: every router
// runs the mesh protocol (internal/mesh), which elects the routers sharing
// segments into a loop-free spanning tree and carries aggregated interest
// hop by hop along it, so chains of routers compose and redundant links
// block instead of duplicating traffic. Guaranteed publications are
// forwarded with their origin token, and their acknowledgements retrace
// the path back.
package router

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/mesh"
	"infobus/internal/mop"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/sysagent"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
	"infobus/internal/wire"
)

// Options tune a router.
type Options struct {
	// Name labels the router in logs and telemetry and is its mesh router
	// id. It must be non-empty (New rejects it otherwise) and unique among
	// the routers that can hear each other: the lowest name becomes the
	// tree root, and two routers sharing one cannot elect against each other
	// — each counts the other's hellos in "mesh.id_conflicts" instead, and a
	// cycle through the pair is cut only by the hop budget.
	Name string
	// Reliable tunes each attachment's reliable connection.
	Reliable reliable.Config
	// InterestTTL is how long a heard interest advertisement — a host's or
	// a neighbour router's — stays valid without refresh; the router
	// refreshes its own every InterestTTL/4. Default 4x
	// daemon.InterestInterval (1s).
	InterestTTL time.Duration
	// Log, if non-nil, receives a line per forwarded message.
	Log io.Writer
	// StatsInterval enables self-hosted export: the router periodically
	// publishes its metrics snapshot as a self-describing SysStats object
	// on "_sys.stats.router-<name>", on every attached segment, and answers
	// "_sys.ping" probes there with a SysPong plus a fresh snapshot, like a
	// host. 0 disables.
	StatsInterval time.Duration
	// Health enables the router's alarm engine and flight recorder:
	// per-attachment retransmit-storm alarms are published on
	// "_sys.alarm.router-<name>.<kind>" on every attached segment, and
	// "_sys.dump" probes are answered with the recorder's text dump. Zero
	// disables the tier.
	Health telemetry.HealthConfig
	// Mesh tunes the mesh protocol every router runs: hello cadence, the
	// re-advertisement debounce, the status period. The zero value takes the
	// protocol defaults.
	Mesh mesh.Config

	// metrics is the telemetry registry the router's counters live in (each
	// attachment's reliable-protocol counters are folded in under
	// "reliable.<attachment>."): a private one unless an in-package test
	// sets it.
	metrics *telemetry.Registry
}

// Rule rewrites subjects crossing from one segment to another ("the router
// can also perform other functions, such as transforming subjects").
type Rule struct {
	// Match selects the subjects the rule applies to.
	Match subject.Pattern
	// RewritePrefix: the matched subject's first len(From) elements are
	// replaced with To. Empty strings leave the subject unchanged.
	FromPrefix, ToPrefix string
}

// Router errors.
var (
	ErrFewSegments = errors.New("router: need at least two attachments")
	ErrNoName      = errors.New("router: Options.Name is empty (it is the mesh router id and must be unique)")
)

// Attachment names one segment the router bridges, with optional subject
// transformation rules applied to traffic forwarded OUT onto it.
type Attachment struct {
	Segment transport.Segment
	Name    string
	Rules   []Rule
}

// rule is a Rule compiled at construction: the prefixes parsed once, and
// rewrite false for a rule that matches without rewriting.
type rule struct {
	match    subject.Pattern
	rewrite  bool
	from, to subject.Subject
}

type attachment struct {
	name    string
	index   int // position in Router.atts == mesh link index
	conn    *reliable.Conn
	rules   []rule
	hopNode string // trace hop name of an egress through this attachment

	// fwdBuf is the egress frame scratch for traffic arriving on this
	// attachment, owned by its single receive goroutine (attachmentLoop):
	// each egress frame is built here, handed to Publish (which copies
	// before returning), and the buffer reused — no pool round trip.
	fwdBuf []byte
}

// Router bridges segments.
type Router struct {
	opts Options

	metrics *telemetry.Registry
	ctr     counters
	// interner caches subject parses on the forwarding path (subjects
	// repeat far more often than they vary).
	interner *subject.Interner

	// typeCache holds class definitions harvested from def-carrying
	// compact publications crossing the router, keyed by fingerprint.
	// Definitions resolve structurally (no registry): the router never
	// decodes application values, it only answers "_sys.class.req" NAKs
	// on behalf of publishers on other segments — a late subscriber's
	// request is served at its own segment boundary instead of waiting a
	// round trip to the origin.
	typeCache *wire.TypeCache

	// mu guards guar and closed. Readers dominate: every guaranteed
	// publication checks its origin's path and every ack looks one up, but
	// the path only changes when a publisher moves or a topology shifts,
	// so forward takes the read lock and upgrades only on change.
	mu     sync.RWMutex
	atts   []*attachment
	guar   map[string]guarPath // origin token -> where it entered
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup

	// Health tier (nil unless Options.Health is enabled).
	engine *telemetry.Engine
	rec    *telemetry.Recorder
	// sys publishes every "_sys" telemetry object of this router, on every
	// attached segment, and answers the probes handle peeks (nil with every
	// tier off). The mesh loop ticks it.
	sys *sysagent.Agent

	// agent drives the mesh protocol; agent.m answers the forwarding path.
	agent *meshAgent
	// hist is the mesh flight-data ring (health tier on): the
	// re-advertisement and topology-change rates, with alarm edges noted
	// in-window, answered on "_sys.history" probes like a host's tier.
	hist *telemetry.History
}

type guarPath struct {
	att  *attachment
	from string
}

// maxGuarPaths bounds the ack-path table: its keys are peer-supplied bytes
// and a publisher's identity is new at every daemon start, so it cannot be
// left to grow. When a new origin finds it full the table is reset. An ack
// for a forgotten origin is dropped and counted like an egress drop; the
// publisher's next retransmission re-learns the path (at-least-once on the
// wire already covers a lost ack).
const maxGuarPaths = 4096

// Stats counts router events.
type Stats struct {
	Forwarded     uint64 // publications re-published on another segment
	Suppressed    uint64 // publications with no remote interest
	LoopDropped   uint64 // publications dropped at the hop limit
	AcksForwarded uint64
	Transformed   uint64 // subjects rewritten by rules
}

// counters holds the router's telemetry handles.
type counters struct {
	forwarded, sharedForwarded, suppressed *telemetry.Counter
	loopDropped, egressDropped             *telemetry.Counter
	acksForwarded, transformed             *telemetry.Counter
	classDefsHarvested, classNaksServed    *telemetry.Counter
}

// New creates a router bridging the given attachments.
func New(opts Options, atts ...Attachment) (*Router, error) {
	if len(atts) < 2 {
		return nil, ErrFewSegments
	}
	if opts.Name == "" {
		return nil, ErrNoName
	}
	if opts.InterestTTL <= 0 {
		opts.InterestTTL = time.Second
	}
	rules := make([][]rule, len(atts))
	for i, a := range atts {
		var err error
		if rules[i], err = compileRules(a.Rules); err != nil {
			return nil, fmt.Errorf("router: attachment %q: %w", a.Name, err)
		}
	}
	metrics := opts.metrics
	if metrics == nil {
		metrics = telemetry.NewRegistry()
	}
	r := &Router{
		opts:      opts,
		metrics:   metrics,
		interner:  subject.NewInterner(0),
		guar:      make(map[string]guarPath),
		typeCache: wire.NewTypeCache(0),
		done:      make(chan struct{}),
	}
	r.typeCache.CountMemo(metrics.Counter("wire.table_memo_miss"), metrics.Counter("wire.table_memo_full"))
	if opts.Health.Enabled() {
		r.rec = telemetry.NewRecorder(0)
		r.engine = telemetry.NewEngine("router-"+opts.Name, metrics, r.rec)
	}
	r.ctr = counters{
		forwarded:          metrics.Counter("router.forwarded"),
		sharedForwarded:    metrics.Counter("router.fastpath_forwarded"),
		suppressed:         metrics.Counter("router.suppressed"),
		loopDropped:        metrics.Counter("router.loop_dropped"),
		egressDropped:      metrics.Counter("router.egress_dropped"),
		acksForwarded:      metrics.Counter("router.acks_forwarded"),
		transformed:        metrics.Counter("router.transformed"),
		classDefsHarvested: metrics.Counter("router.class_defs_harvested"),
		classNaksServed:    metrics.Counter("router.class_naks_served"),
	}
	for _, a := range atts {
		ep, err := a.Segment.NewEndpoint("router:" + opts.Name + ":" + a.Name)
		if err != nil {
			r.closeAttachments()
			return nil, err
		}
		// Each attachment's protocol counters have their own prefix in the
		// router's registry, so per-segment streams stay distinguishable.
		prefix := reliable.CounterPrefix + "." + a.Name
		att := &attachment{
			name:    a.Name,
			index:   len(r.atts),
			conn:    reliable.NewSharded(ep, opts.Reliable, 1, metrics, prefix, r.rec),
			rules:   rules[len(r.atts)],
			hopNode: "router:" + opts.Name + ":" + a.Name,
		}
		r.atts = append(r.atts, att)
		if r.engine != nil {
			// Per-attachment retransmit storms: each attachment's stream has
			// its own counter prefix, so storms are attributed to a segment.
			r.engine.WatchRate(telemetry.WatchConfig{
				Kind:   "retransmit-storm",
				Target: a.Name,
				Raise:  telemetry.RetransmitStormRate,
			}, metrics.Counter(prefix+".retransmits"))
		}
	}
	r.agent = newMeshAgent(r, opts.Mesh)
	if r.engine != nil {
		// Mesh churn watch: a flapping link re-elects and re-advertises in a
		// tight loop; the readvertisement rate is the symptom every segment
		// pays for (Figure-8 medium occupancy), so it is the alarmed signal.
		r.engine.WatchRate(telemetry.WatchConfig{
			Kind:   "mesh-flap",
			Target: "mesh",
			Raise:  telemetry.MeshFlapRate,
		}, r.agent.readverts)
		// Flight-data ring for the mesh churn series: answered on
		// "_sys.history" probes so a monitor can see a flap window after the
		// fact, aligned with the alarm edges that fired in it.
		r.hist = telemetry.NewHistory(250 * time.Millisecond)
		r.hist.TrackRate("mesh.readvertisements", r.agent.readverts)
		r.hist.TrackRate("mesh.topology_changes", r.agent.topoChanges)
		r.hist.TrackRate("router.forwarded", r.ctr.forwarded)
		r.hist.TrackRate("router.suppressed", r.ctr.suppressed)
	}
	if opts.StatsInterval > 0 || r.engine != nil {
		sys, err := sysagent.New(sysagent.Config{
			Node:           "router-" + opts.Name,
			Registry:       mop.NewRegistry(),
			Publish:        r.publishSys,
			Metrics:        metrics,
			StatsInterval:  opts.StatsInterval,
			Engine:         r.engine,
			HealthInterval: opts.Health.Interval,
			History:        r.hist,
		})
		if err != nil {
			r.closeAttachments()
			return nil, err
		}
		r.sys = sys
	}
	for _, att := range r.atts {
		r.wg.Add(1)
		go r.attachmentLoop(att)
	}
	r.wg.Add(1)
	go r.agent.loop()
	return r, nil
}

// Metrics returns the router's telemetry registry.
func (r *Router) Metrics() *telemetry.Registry { return r.metrics }

// Stats returns a snapshot of the router counters (monotone atomics read
// in one pass: a consistent cut, see daemon.Stats).
func (r *Router) Stats() Stats {
	return Stats{
		Forwarded:     r.ctr.forwarded.Load(),
		Suppressed:    r.ctr.suppressed.Load(),
		LoopDropped:   r.ctr.loopDropped.Load(),
		AcksForwarded: r.ctr.acksForwarded.Load(),
		Transformed:   r.ctr.transformed.Load(),
	}
}

// Close detaches the router from all segments.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.done)
	r.mu.Unlock()
	r.closeAttachments()
	r.wg.Wait()
	return nil
}

func (r *Router) closeAttachments() {
	for _, att := range r.atts {
		_ = att.conn.Close()
	}
}

func (r *Router) attachmentLoop(att *attachment) {
	defer r.wg.Done()
	for {
		select {
		case <-r.done:
			return
		case m, ok := <-att.conn.Recv():
			if !ok {
				return
			}
			r.handle(att, m)
		}
	}
}

// handle dispatches one inbound message off a lazy header peek. Data
// envelopes and acks never decode: every side handler (mesh link-local,
// the "_sys" probes, compact class-def harvest, class requests) keys off
// the peeked kind/subject/payload views. Only an interest advertisement,
// whose pattern list the link's table keeps, decodes — a host's and a
// neighbour router's alike; which of the two sent it the router never asks.
func (r *Router) handle(att *attachment, m reliable.Message) {
	hdr, err := busproto.Peek(m.Payload)
	if err != nil {
		return
	}
	switch hdr.Base() {
	case busproto.KindInterest:
		env, err := busproto.Decode(m.Payload)
		if err != nil {
			return
		}
		r.agent.m.HandleInterest(att.index, m.From, env.Patterns, time.Now())
	case busproto.KindPublish, busproto.KindGuaranteed:
		// System traffic: every check below compares the subject view
		// against a constant ([]byte==const string compiles to an
		// allocation-free comparison), so plain application traffic pays
		// one leading-byte test.
		if len(hdr.Subject) > 0 && hdr.Subject[0] == '_' {
			if string(hdr.Subject) == mesh.HelloSubject {
				// Hellos define this link's adjacency: they never cross to
				// another segment. Status snapshots
				// ("_sys.mesh.status.<node>") are ordinary publications and
				// cross routers like anything else a monitor subscribes to.
				if hdr.Base() == busproto.KindPublish {
					r.agent.handleHello(att, hdr.Payload)
				}
				return
			}
			if r.sys != nil && hdr.Base() == busproto.KindPublish {
				// A "_sys.ping" / "_sys.dump" / "_sys.history" probe: the
				// agent answers for the tiers this router runs, on every
				// segment; the probe is then forwarded so hosts behind other
				// attachments answer too. Anything else it ignores.
				r.sys.Hear(hdr.Subject, hdr.Payload)
			}
			if string(hdr.Subject) == telemetry.ClassReqSubject {
				// Answer on the requester's segment with whatever definitions
				// this router holds, then forward the request — the origin or
				// holders on other segments fill in the rest.
				r.serveClassReq(att, hdr.Payload)
			}
		}
		if hdr.Compact() && wire.CompactCarriesDefs(hdr.Payload) {
			// Class definitions are crossing this segment: harvest them so
			// this router can answer "_sys.class.req" locally. Resolution
			// is structural (nil registry) — the router keeps every
			// fingerprint it sees, including superseded TDL definitions
			// still referenced by old publications.
			if err := wire.HarvestDefs(hdr.Payload, nil, r.typeCache); err == nil {
				r.ctr.classDefsHarvested.Inc()
			}
		}
		r.forward(att, m.From, &hdr)
	case busproto.KindGuarAck:
		r.forwardAck(att, hdr.Origin, m.Payload)
	}
}

// forward re-publishes a data envelope on every other segment with a
// matching subscription, without decoding it: each egress frame is spliced
// out of the ingress bytes (busproto.AppendForward) into the ingress
// attachment's scratch buffer and handed to the egress Publish, which
// copies into its retransmit window before returning. When nothing but the
// hops byte changes — untraced envelope, no rewrite on that egress — the
// frame is the same for every such egress, so it is built once and the one
// buffer published on each. A traced envelope takes a trace hop naming the
// egress attachment, and a rewritten subject differs per egress, so those
// frames are spliced per egress. A publication nobody wants touches no
// buffer at all.
func (r *Router) forward(src *attachment, from string, hdr *busproto.Header) {
	m := r.agent.m
	if !m.Forwarding(src.index) {
		// A blocked port receives (hellos keep the tree alive) but never
		// forwards: the redundant link's traffic travels the tree path.
		r.ctr.suppressed.Inc()
		return
	}
	// The spanning tree is loop-free by construction, so the hop budget
	// covers the tree diameter and only bounds pathology (a tree still
	// converging, a router whose name is not unique).
	if hdr.Hops >= mesh.MaxHops {
		r.ctr.loopDropped.Inc()
		return
	}
	subj, err := r.interner.ParseBytes(hdr.Subject)
	if err != nil {
		return
	}
	if hdr.Base() == busproto.KindGuaranteed && len(hdr.Origin) > 0 {
		r.noteGuarPath(hdr.Origin, src, from)
	}
	hops := hdr.Hops + 1
	var at int64 // trace hop timestamp: one clock read per traced message
	if hdr.Traced() {
		at = time.Now().UnixNano()
	}
	shared := false // src.fwdBuf holds the hops-only frame
	var forwarded, sharedForwarded uint64
	for _, dst := range r.atts {
		if dst == src {
			continue
		}
		if !m.Forwarding(dst.index) {
			continue
		}
		outSubj, transformed := subj, false
		if len(dst.rules) > 0 {
			outSubj, transformed = r.transform(dst, subj)
		}
		if !m.Wants(dst.index, outSubj) {
			continue
		}
		// The inbound frame may share its backing array with other receivers
		// on the segment (the transport broadcasts one copy), so every egress
		// frame is built in the router's own buffer.
		perEgress := transformed || hdr.Traced()
		switch {
		case perEgress:
			newSubj := ""
			if transformed {
				newSubj = outSubj.String()
			}
			src.fwdBuf = busproto.AppendForward(src.fwdBuf[:0], *hdr, hops, newSubj, dst.hopNode, at)
			shared = false
		case !shared:
			src.fwdBuf = busproto.AppendForward(src.fwdBuf[:0], *hdr, hops, "", "", 0)
			shared = true
		}
		if err := dst.conn.Publish(src.fwdBuf); err != nil {
			r.egressDropped(dst)
			continue
		}
		forwarded++
		if !perEgress {
			sharedForwarded++
		}
		if transformed {
			r.ctr.transformed.Inc()
		}
		if r.opts.Log != nil {
			fmt.Fprintf(r.opts.Log, "router %s: %s -> %s subject %s (hops %d)\n",
				r.opts.Name, src.name, dst.name, outSubj, hops)
		}
	}
	if forwarded == 0 {
		r.ctr.suppressed.Inc()
		return
	}
	r.ctr.forwarded.Add(forwarded)
	r.ctr.sharedForwarded.Add(sharedForwarded)
}

// egressDropped accounts a frame an egress attachment refused (its conn is
// closing, or a unicast window is full): counted and, with the health tier
// on, recorded — never retried, the reliable layer owns retransmission.
func (r *Router) egressDropped(dst *attachment) {
	r.ctr.egressDropped.Inc()
	if r.rec != nil {
		r.rec.Record(telemetry.EventDrop, dst.hopNode, 1, 0)
	}
}

// noteGuarPath records where a guaranteed publication entered so its acks
// can retrace the path. The steady state — same origin keeps arriving via
// the same attachment and sender — is a read-lock map probe with a
// zero-copy []byte key; only an actual path change (publisher moved,
// topology shifted, first sighting) takes the write lock and materializes
// the key string.
func (r *Router) noteGuarPath(origin []byte, src *attachment, from string) {
	r.mu.RLock()
	p, ok := r.guar[string(origin)]
	r.mu.RUnlock()
	if ok && p.att == src && p.from == from {
		return
	}
	r.mu.Lock()
	if _, known := r.guar[string(origin)]; !known && len(r.guar) >= maxGuarPaths {
		clear(r.guar)
	}
	r.guar[string(origin)] = guarPath{att: src, from: from}
	r.mu.Unlock()
}

// serveClassReq answers a "_sys.class.req" fingerprint request with the
// definitions this router has harvested, published on "_sys.class.def" on
// the segment the request arrived from.
func (r *Router) serveClassReq(att *attachment, payload []byte) {
	defs, ok := wire.AnswerClassReq(payload, nil, r.typeCache, nil)
	if !ok {
		return
	}
	out := busproto.Encode(busproto.Envelope{
		Kind: busproto.KindPublishCompact, Subject: telemetry.ClassDefSubject, Payload: defs,
	})
	if err := att.conn.Publish(out); err == nil {
		r.ctr.classNaksServed.Inc()
		_ = att.conn.Flush()
	}
}

// forwardAck relays a guaranteed-delivery acknowledgement, as received,
// back toward the segment the publication entered from (SendTo copies the
// frame before returning).
func (r *Router) forwardAck(src *attachment, origin, frame []byte) {
	r.mu.RLock()
	path, ok := r.guar[string(origin)]
	r.mu.RUnlock()
	if !ok {
		r.egressDropped(src) // path forgotten (maxGuarPaths): recorded where it arrived
		return
	}
	if path.att == src {
		return
	}
	if err := path.att.conn.SendTo(path.from, frame); err != nil {
		r.egressDropped(path.att)
		return
	}
	r.ctr.acksForwarded.Inc()
}

// ---------------------------------------------------------------------------
// attachment helpers

// compileRules parses each rule's prefixes once. A rule with an empty
// prefix matches without rewriting; a prefix that is not a subject is an
// error.
func compileRules(rules []Rule) ([]rule, error) {
	out := make([]rule, 0, len(rules))
	for _, ru := range rules {
		c := rule{match: ru.Match, rewrite: ru.FromPrefix != "" && ru.ToPrefix != ""}
		if c.rewrite {
			var err error
			if c.from, err = subject.Parse(ru.FromPrefix); err != nil {
				return nil, fmt.Errorf("rule FromPrefix: %w", err)
			}
			if c.to, err = subject.Parse(ru.ToPrefix); err != nil {
				return nil, fmt.Errorf("rule ToPrefix: %w", err)
			}
		}
		out = append(out, c)
	}
	return out, nil
}

// transform applies the attachment's first matching rewrite rule. The
// rewritten name is assembled on the stack and resolved through the
// interner, so a repeated subject costs no allocation.
func (r *Router) transform(a *attachment, s subject.Subject) (subject.Subject, bool) {
	for i := range a.rules {
		ru := &a.rules[i]
		if !ru.match.IsZero() && !ru.match.Matches(s) {
			continue
		}
		if !ru.rewrite {
			return s, false
		}
		if !s.HasPrefix(ru.from) {
			continue
		}
		var buf [128]byte
		out := append(buf[:0], ru.to.String()...)
		out = append(out, s.String()[len(ru.from.String()):]...)
		ns, err := r.interner.ParseBytes(out)
		if err != nil {
			continue
		}
		return ns, true
	}
	return s, false
}

// publishSys is the router's "_sys" publish path: one envelope, broadcast
// on every attached segment, so a monitor anywhere on the bridged bus sees
// the router's telemetry and probe answers.
func (r *Router) publishSys(subj string, payload []byte) {
	env := busproto.Encode(busproto.Envelope{Kind: busproto.KindPublish, Subject: subj, Payload: payload})
	for _, att := range r.atts {
		_ = att.conn.Publish(env)
		_ = att.conn.Flush()
	}
}

// Inject processes one encoded envelope as if it had been reliably
// received on the named attachment's segment from sender `from` — the
// forwarding engine runs exactly as for wire traffic (peek, interest
// match, fan-out, counters). The benchmark's per-layer replay drives the
// data plane directly with it. Concurrent Injects on the SAME
// attachment (or an Inject racing live traffic on that attachment) are
// not allowed: egress frames are built in a per-attachment scratch buffer
// owned by whichever goroutine is delivering for it.
func (r *Router) Inject(segment, from string, frame []byte) error {
	for _, att := range r.atts {
		if att.name == segment {
			r.handle(att, reliable.Message{From: from, Payload: frame})
			return nil
		}
	}
	return fmt.Errorf("router: no attachment %q", segment)
}

// MeshStatus returns a snapshot of the router's spanning-tree state. Tests
// and operational tooling use it to observe elections and port roles
// without decoding status publications.
func (r *Router) MeshStatus() mesh.Status { return r.agent.m.Snapshot() }

// WantsOn reports whether the named attachment's segment currently holds a
// subscription matching the subject (after that attachment's transforms).
// Operational tooling and examples use it to wait for interest propagation
// before relying on cross-segment forwarding of unretried publications.
func (r *Router) WantsOn(segmentName string, s subject.Subject) bool {
	for _, att := range r.atts {
		if att.name != segmentName {
			continue
		}
		if !r.agent.m.Forwarding(att.index) {
			return false
		}
		out, _ := r.transform(att, s)
		return r.agent.m.Wants(att.index, out)
	}
	return false
}
