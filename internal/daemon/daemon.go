// Package daemon implements the per-host Information Bus daemon. "In our
// implementation of subject-based addressing, we use a daemon on every
// host. Each application registers with its local daemon, and tells the
// daemon to which subjects it has subscribed. The daemon forwards each
// message to each application that has subscribed. It uses the subject
// contained in the message to decide which application receives which
// message." (§3.1)
//
// One Daemon owns one reliable connection to the network segment. Local
// applications attach as Clients, subscribe with wildcard patterns, and
// receive matching publications — whether they originated remotely or from
// another application on the same host. The daemon also participates in
// the guaranteed-delivery handshake: it acknowledges guaranteed messages
// that it delivered to at least one local subscriber (TickAcks), and it
// advertises its aggregate subscription interest for information routers
// (TickInterest).
package daemon

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"infobus/internal/bufpool"
	"infobus/internal/busproto"
	"infobus/internal/ledger"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
	"infobus/internal/wire"
)

// Delivery is one publication handed to a subscribed client.
type Delivery struct {
	Subject subject.Subject
	// Payload belongs to this publication's deliveries alone: a view of a
	// datagram no other endpoint shares, or the daemon's copy of a payload a
	// local publisher lent it. What is decoded from it may alias it
	// (Slot.Take).
	Payload []byte
	// From is the transport address of the publishing daemon.
	From string
	// Guaranteed marks a guaranteed-delivery publication; ID is its
	// publisher-side ledger identifier.
	Guaranteed bool
	ID         uint64
	// TraceID and Trace carry the per-hop telemetry trace when the
	// publication was sampled (Options.TracePeriod); Trace is empty
	// otherwise. The receiving daemon's own hop is already appended,
	// followed by the intra-daemon stage hops (lane enqueue, lane pop).
	// Each delivery's list is its own, carved from its lane's chunk of hops
	// (lane.newHops) with room for the stages still ahead of it, which it
	// keeps alive.
	TraceID uint64
	Trace   []busproto.TraceHop
	// Slot is shared by the deliveries of one publication fanned out to more
	// than one client, so its payload is decoded once per host; nil when a
	// single client matched. Take through it either way. It is carved from
	// its lane's chunk of slots (lane.newSlot), which a queued delivery keeps
	// alive.
	Slot *Slot
}

// Slot is where the clients one publication was fanned out to share the
// work of decoding it. The daemon never decodes and never looks at a value:
// routeLocal only counts the deliveries that may come to take one, and the
// takers bring the codec.
type Slot struct {
	mu      sync.Mutex
	takers  int  // deliveries that have not been handed a value yet
	decoded bool // master is set; a decoded value may itself be nil
	master  any  // what share is applied to; the last taker is handed it
}

// Take returns a value of the publication's payload for the caller. The
// first taker decodes and leaves the result behind as the master; every
// taker is handed share(master), except the last one outstanding, who is
// handed the master itself. The count is exact, except an evicted stash
// entry: a refused enqueue and a backlog its client discarded give their
// turns back (drop), while a stash entry evicted untaken keeps the master in
// the slot for good, erring towards sharing. A failed decode stores nothing
// and uses up no turn, so the same delivery may take again. Takers of one
// slot wait for each other's decode, which is the point. A nil Slot decodes.
//
// share may return the master itself when no taker can write into it (a
// frozen object of scalars and strings), and must copy whatever a taker can
// write or what may alias the payload: decode's value may, so only the
// value handed over unshared holds views, one per payload. A take after the
// master was handed over cannot happen — each delivery takes until it
// succeeds, once — but would decode again and, the count being below zero
// by then, be handed share's value: the payload would still have one holder
// of views in application hands, never two.
func (s *Slot) Take(decode func() (any, error), share func(any) any) (any, error) {
	if s == nil {
		return decode()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.decoded {
		v, err := decode()
		if err != nil {
			return nil, err
		}
		s.master, s.decoded = v, true
	}
	if s.takers--; s.takers == 0 {
		// Hand the master over and forget it: a taker the count did not
		// foresee would decode again and take share's value.
		v := s.master
		s.master, s.decoded = nil, false
		return v, nil
	}
	return share(s.master), nil
}

// drop gives back the turn of a delivery that will never take: one its
// client's column refused, or one its client's backlog discarded. The last
// turn given back lets the master go. A nil Slot has no turns.
func (s *Slot) drop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.takers--; s.takers == 0 {
		s.master, s.decoded = nil, false
	}
	s.mu.Unlock()
}

// appendHop records a hop on a traced delivery's list, dropping the record
// (not the delivery) when the list is already at busproto.MaxTraceHops. It
// appends in place: every list is carved with room for the stages ahead of
// its delivery and held by that delivery alone, so no sibling subscriber
// sees the write (routeLocal gives each client a list of its own).
func appendHop(trace []busproto.TraceHop, kind byte, node string, at int64) []busproto.TraceHop {
	if len(trace) >= busproto.MaxTraceHops {
		return trace
	}
	return append(trace, busproto.TraceHop{Kind: kind, Node: node, At: at})
}

// Daemon errors.
var (
	ErrClosed = errors.New("daemon: closed")
)

// InterestInterval is how often a daemon re-broadcasts its aggregate
// subscription interest for information routers; interestSettle is how long
// a burst of subscription changes must be quiet before the advertisement
// covering it goes out.
const (
	InterestInterval = 250 * time.Millisecond
	interestSettle   = 2 * time.Millisecond
)

// Daemon routes publications between the network and local clients.
type Daemon struct {
	conn     *reliable.Conn
	identity string // origin token of guaranteed publications and their acks; see Identity
	// tokens is the daemon's seeded random stream (identity, trace bases,
	// Token); see lanes.go.
	tokens *tokenSource

	// Delivery lanes (lanes.go): lane i is shard i of conn, the inbound
	// worker reading it, column i of every client's queue and the telemetry
	// here. subs has as many match-cache shards, keyed by subject. Immutable
	// after construction.
	lanes []*lane
	// closedFlag mirrors closed for the publish hot path, which must not
	// take d.mu (it would serialize concurrent local publishers).
	closedFlag atomic.Bool

	mu      sync.Mutex
	subs    *subject.Trie[*Client]
	clients map[*Client]struct{}
	onAck   func(id uint64, from string)
	// foster routes guaranteed-delivery acks addressed to other origins —
	// crashed publishers this daemon is replaying for (qledger recovery).
	// Nil until the first FosterAcks call, so the ack path costs an
	// untouched daemon nothing.
	foster map[string]func(id uint64, from string)
	closed bool
	kick   chan struct{} // the owner's tick is wanted sooner than it last said (Kicked)
	wg     sync.WaitGroup

	// Cached interest advertisement and the subs.Gen() it was read at, so
	// the periodic re-advertisement allocates nothing and no mutation of
	// subs can leave it stale. advWide: the cached set is an aggregate.
	// advSent: the last advertisement sent was not empty. The rest is
	// TickInterest's (advDue zero: no burst pending).
	advCache   []string
	advGen     uint64
	advWide    bool
	advSent    bool
	advChanged bool
	advDue     time.Time
	advRefresh time.Time

	// Guaranteed-delivery duplicate suppression: a publisher retransmits
	// until acknowledged, so the same (origin, id) may arrive many times;
	// consumers see it once ("if there is no failure, then the message
	// will be delivered exactly once", §3.1). guarRing is a fixed-capacity
	// FIFO over the set: once full, recording a new key overwrites (and
	// un-sees) the oldest in place, so eviction never re-slices and never
	// pins dead backing arrays.
	guarSeen map[guarKey]struct{}
	guarRing []guarKey
	guarHead int // index of the oldest ring entry once the ring is full
	guarCap  int // captured from guarSeenCap at construction
	// guarInflight claims a (origin, id) for the worker currently fanning
	// it out, closing the check-then-deliver window between guarSeen reads:
	// with several inbound workers, the origin's retransmission and a
	// recovery replayer's copy can arrive on different workers at once, and
	// without the claim both would deliver. Lazily allocated.
	guarInflight map[guarKey]struct{}

	metrics     *telemetry.Registry
	ctr         counters
	tracePeriod uint64
	traceBase   uint64        // random base xored into trace ids
	traceNode   string        // hop name this daemon records in traces
	pubSeq      atomic.Uint64 // local publication sequence, drives sampling

	// Health tier (nil when disabled): the alarm engine watching this
	// daemon's clients and dedup ring, and the flight recorder notable
	// events land in. Watch samples are atomic loads of gauges the
	// delivery path already maintains, so detection costs the hot path
	// nothing beyond those gauge updates.
	health        *telemetry.Engine
	rec           *telemetry.Recorder
	guarSeenGauge *telemetry.Gauge
	// interestPatterns is the distinct-pattern count behind the last
	// advertisement: how close the host is to subject.MaxAdvertisedPatterns.
	interestPatterns *telemetry.Gauge
}

// guarKey identifies a guaranteed publication: the publisher's origin token
// plus its ledger id. A struct key keeps dedup lookups allocation-free
// (string concatenation per inbound retry used to dominate the ack path).
type guarKey struct {
	origin string
	id     uint64
}

// guarSeenCap bounds the duplicate-suppression window. A variable so tests
// can shrink it to exercise eviction; each Daemon captures the value at
// construction.
var guarSeenCap = 8192

// Stats counts daemon-level events.
type Stats struct {
	PublishedLocal uint64 // publications submitted by local clients
	Inbound        uint64 // publications received from the network
	DeliveredLocal uint64 // deliveries to local clients (fan-out counted)
	NoSubscriber   uint64 // inbound publications matching no local client
	GuarAcksSent   uint64
	GuarAcksRecv   uint64
	CorruptDropped uint64
}

// counters holds the daemon's telemetry handles, resolved once at
// construction so the delivery path never touches the registry lock.
type counters struct {
	publishedLocal, inbound, deliveredLocal, noSubscriber *telemetry.Counter
	guarAcksSent, guarAcksRecv, corruptDropped            *telemetry.Counter
	guarAckDropped, traced, interestWidened               *telemetry.Counter
	traceE2E                                              *telemetry.Histogram
}

// Options tune the daemon beyond the reliable protocol.
type Options struct {
	// Metrics is the telemetry registry the daemon's counters live in, and
	// its reliable protocol's under reliable.CounterPrefix (shared with the
	// host's other components so one "_sys.stats.<node>" object covers the
	// whole host). Nil creates a private registry.
	Metrics *telemetry.Registry
	// TracePeriod enables per-hop message tracing: every TracePeriod-th
	// local publication is sent as a traced envelope carrying a trace id
	// and hop timestamps (publisher daemon, routers crossed, consumer
	// daemon). 0 disables tracing; untraced publications are byte-identical
	// to the legacy envelope format. Sampling is a deterministic counter,
	// not a random draw, so the hot path stays flat.
	TracePeriod uint64
	// Node names this daemon in trace hop records ("pubhost", not
	// "sim:1"); transport addresses are only unique per segment, so a
	// trace crossing routers needs the host-level name. Empty falls back
	// to the transport address.
	Node string
	// Health is the alarm engine this daemon registers its watches with
	// (per-client queue depth, dedup-ring pressure). Nil disables
	// detection.
	Health *telemetry.Engine
	// Recorder is the process flight recorder; notable daemon and protocol
	// events (corrupt drops, sampled trace completions, gap skips, peer
	// restarts) are recorded into it. Nil disables recording.
	Recorder *telemetry.Recorder
	// DeliveryLanes is the number of delivery lanes (see lanes.go): a lane
	// is a shard of senders — the inbound worker that handles them, one
	// column of every client's queue, one set of "daemon.lane<N>" metrics.
	// A client sees each sender's publications in order; across senders on
	// different lanes nothing is ordered. 0 — the default — selects
	// min(GOMAXPROCS, 8). 1 is the same engine at its smallest: one worker,
	// one queue column, one match-cache shard, and total arrival order.
	DeliveryLanes int
}

// New starts a daemon over a transport endpoint. cfg tunes the underlying
// reliable protocol; opts wires telemetry.
func New(ep transport.Endpoint, cfg reliable.Config, opts Options) *Daemon {
	metrics := opts.Metrics
	if metrics == nil {
		metrics = telemetry.NewRegistry()
	}
	// The token stream seeds from the same knob as the reliable epoch
	// (reliable.Config.Seed): a fixed per-host seed makes identities and
	// trace bases reproducible across netsim runs, zero stays unique.
	tokens := newTokenSource(cfg.Seed)
	lanes := newLanes(resolveLanes(opts.DeliveryLanes), metrics)
	d := &Daemon{
		// The protocol counters fold into the daemon's registry, so the
		// host's stats object covers both layers, and the protocol shares
		// the process flight recorder.
		conn:        reliable.NewSharded(ep, cfg, len(lanes), metrics, reliable.CounterPrefix, opts.Recorder),
		identity:    originToken(ep.Addr(), tokens.Next()),
		tokens:      tokens,
		lanes:       lanes,
		subs:        subject.NewShardedTrie[*Client](len(lanes)),
		clients:     make(map[*Client]struct{}),
		kick:        make(chan struct{}, 1),
		guarSeen:    make(map[guarKey]struct{}),
		guarCap:     guarSeenCap,
		metrics:     metrics,
		tracePeriod: opts.TracePeriod,
		traceNode:   opts.Node,
		traceBase:   tokens.Next(),
		health:      opts.Health,
		rec:         opts.Recorder,
	}
	if d.traceNode == "" {
		d.traceNode = d.conn.Addr()
	}
	d.ctr = counters{
		publishedLocal: metrics.Counter("daemon.published_local"),
		inbound:        metrics.Counter("daemon.inbound"),
		deliveredLocal: metrics.Counter("daemon.delivered_local"),
		noSubscriber:   metrics.Counter("daemon.no_subscriber"),
		guarAcksSent:   metrics.Counter("daemon.guar_acks_sent"),
		guarAcksRecv:   metrics.Counter("daemon.guar_acks_recv"),
		guarAckDropped: metrics.Counter("daemon.guar_ack_dropped"),
		corruptDropped: metrics.Counter("daemon.corrupt_dropped"),
		traced:         metrics.Counter("daemon.traced"),
		// Advertised set went from exact to aggregated (subject.MaxAdvertisedPatterns).
		interestWidened: metrics.Counter("daemon.interest_widened"),
		traceE2E:        metrics.Histogram("daemon.trace_e2e_ns"),
	}
	d.guarSeenGauge = metrics.Gauge("daemon.guar_seen")
	d.interestPatterns = metrics.Gauge("daemon.interest_patterns")
	for _, ln := range d.lanes {
		ln.acks = newAckSet(d.conn.SendTo, d.dropAck, d.wake)
	}
	if d.health != nil {
		// Dedup-ring pressure: a ring running near capacity is at risk of
		// un-seeing a publication still being retransmitted, which would
		// surface as a duplicate delivery. Raise at 80% of capacity.
		d.health.Watch(telemetry.WatchConfig{
			Kind:  "dedup-pressure",
			Raise: int64(d.guarCap) * 8 / 10,
		}, d.guarSeenGauge.Load)
	}
	// One inbound worker per lane, each reading its own shard of the
	// connection (workerLoop): the daemon's only goroutines.
	d.wg.Add(len(d.lanes))
	for _, ln := range d.lanes {
		go d.workerLoop(ln)
	}
	return d
}

// Metrics returns the daemon's telemetry registry.
func (d *Daemon) Metrics() *telemetry.Registry { return d.metrics }

// Identity returns the daemon's origin token: 8 bytes of binary, not text
// (print it in hex), drawn from its token stream and its address (lanes.go's
// originToken), so that it is new at every start unless Seed is fixed, and
// two hosts with the same Seed still differ. Its guaranteed publications and
// their acknowledgements carry it, so routers steer the acks back to this
// daemon and consumers tell its ids from another origin's. Peers read any
// length up to 256 bytes: a host of an older build, whose tokens were
// "<address>#<16 hex digits>", shares a segment with this one.
func (d *Daemon) Identity() string { return d.identity }

// Token draws the next value from the daemon's seeded random-token stream
// (reliable.Config.Seed). Host-level components (discovery round tokens,
// election tokens, random server picks) draw here instead of the global
// math/rand source, so a seeded netsim run is deterministic end to end.
func (d *Daemon) Token() uint64 { return d.tokens.Next() }

// Lanes returns the effective delivery-lane count.
func (d *Daemon) Lanes() int { return len(d.lanes) }

// TopSubjects merges the per-lane subject-family accounting tables and
// returns the heaviest k families by routed publications (k <= 0 keeps
// all tabled families). Accuracy is space-saving: counts may overestimate
// by at most each entry's Err.
func (d *Daemon) TopSubjects(k int) []telemetry.TopKEntry {
	tables := make([][]telemetry.TopKEntry, len(d.lanes))
	for i, ln := range d.lanes {
		tables[i] = ln.topk.Snapshot()
	}
	return telemetry.MergeTopK(k, tables...)
}

// LaneDepths returns the outstanding deliveries per lane (the
// "daemon.lane<N>.depth" gauges), read in one pass: exact on a quiescent
// daemon, otherwise it differs from any instant only by events in flight
// during the call.
func (d *Daemon) LaneDepths() []int64 {
	out := make([]int64, len(d.lanes))
	for i, ln := range d.lanes {
		out[i] = ln.depth.Load()
	}
	return out
}

// Addr returns the daemon's transport address (the publisher identity
// subscribers see).
func (d *Daemon) Addr() string { return d.conn.Addr() }

// Conn exposes the underlying reliable connection for protocol statistics.
func (d *Daemon) Conn() *reliable.Conn { return d.conn }

// Stats returns a snapshot of the daemon counters, monotone atomics in the
// telemetry registry loaded in one pass: exact on a quiescent daemon,
// otherwise it differs from any instant only by events in flight during the
// call.
func (d *Daemon) Stats() Stats {
	return Stats{
		PublishedLocal: d.ctr.publishedLocal.Load(),
		Inbound:        d.ctr.inbound.Load(),
		DeliveredLocal: d.ctr.deliveredLocal.Load(),
		NoSubscriber:   d.ctr.noSubscriber.Load(),
		GuarAcksSent:   d.ctr.guarAcksSent.Load(),
		GuarAcksRecv:   d.ctr.guarAcksRecv.Load(),
		CorruptDropped: d.ctr.corruptDropped.Load(),
	}
}

// OnGuaranteeAck registers the callback invoked when a guaranteed
// publication of this daemon is acknowledged by some consumer. Used by the
// bus layer to mark ledger entries delivered.
func (d *Daemon) OnGuaranteeAck(f func(id uint64, from string)) {
	d.mu.Lock()
	d.onAck = f
	d.mu.Unlock()
}

// Close shuts the daemon and all its clients down. The acknowledgements its
// lanes still owe go out before the connection closes: a clean shutdown
// leaves no publisher to its retransmission.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.closedFlag.Store(true)
	clients := make([]*Client, 0, len(d.clients))
	for c := range d.clients {
		clients = append(clients, c)
	}
	d.mu.Unlock()
	for _, ln := range d.lanes {
		ln.acks.sendAll()
	}
	err := d.conn.Close()
	d.wg.Wait()
	for _, c := range clients {
		c.shutdown(false)
	}
	return err
}

// traceSample decides whether the next local publication carries a trace
// and, if so, stamps e with the trace id and its hop list, carved from lane
// 0 at its exact length: the guaranteed-path stage hops tm and replicated
// stand for, then the publisher hop. A stage is the ledger's stage, group
// commit or fsync, each when its stamp is set, and the replication chunk
// when the ledger's commit hook replicated the batch: the hook mirrored it
// before the append returned (the qledger ordering contract), so now is an
// upper bound on the chunk broadcast.
func (d *Daemon) traceSample(e *busproto.Envelope, tm ledger.AppendTimings, replicated bool) {
	if d.tracePeriod == 0 {
		return
	}
	seq := d.pubSeq.Add(1)
	if seq%d.tracePeriod != 0 {
		return
	}
	switch e.Kind {
	case busproto.KindPublish:
		e.Kind = busproto.KindPublishTraced
	case busproto.KindGuaranteed:
		e.Kind = busproto.KindGuaranteedTraced
	case busproto.KindPublishCompact:
		e.Kind = busproto.KindPublishCompactTraced
	case busproto.KindGuaranteedCompact:
		e.Kind = busproto.KindGuaranteedCompactTraced
	default:
		return
	}
	e.TraceID = d.traceBase ^ seq
	now, replicaAt := time.Now().UnixNano(), int64(0)
	if replicated {
		replicaAt = now
	}
	stages := [...]busproto.TraceHop{
		{Kind: busproto.HopLedgerStage, At: tm.StagedAt},
		{Kind: busproto.HopGroupCommit, At: tm.CommitAt},
		{Kind: busproto.HopFsync, At: tm.SyncedAt},
		{Kind: busproto.HopReplicaChunk, At: replicaAt},
		{Kind: busproto.HopNode, At: now},
	}
	hops := stages[:0]
	for _, hop := range stages {
		if hop.At != 0 {
			hop.Node = d.traceNode
			hops = append(hops, hop)
		}
	}
	e.Trace = append(d.lanes[0].newHops(len(hops)), hops...)
	d.ctr.traced.Inc()
}

// Publish sends an ordinary reliable publication and routes it to local
// subscribers (network broadcast does not loop back) on lane 0: to its own
// clients the local daemon is one more sender. The payload says what
// it is: one in the compact dictionary wire format (wire.SendDict) goes out
// under the compact envelope kind, which tells receivers and routers that
// fingerprint resolution may be needed; everything else is identical.
//
// Every publish call borrows the payload for the duration of the call: what
// the daemon keeps of it is a copy, made once, when a local client matches.
// The caller may write, reuse or pool the payload as soon as the call
// returns.
func (d *Daemon) Publish(subj subject.Subject, payload []byte) error {
	e := busproto.Envelope{
		Kind:    busproto.DataKind(false, wire.IsCompact(payload), false),
		Subject: subj.String(), Payload: payload,
	}
	d.traceSample(&e, ledger.AppendTimings{}, false)
	// Pooled encode: Conn.Publish copies the envelope into its retransmit
	// window before returning, so the buffer can go straight back.
	buf := bufpool.Get(len(e.Subject) + len(payload) + 16)
	env := busproto.AppendEncode((*buf)[:0], e)
	*buf = env
	defer bufpool.Put(buf)
	// Atomic closed check: taking d.mu here would serialize every local
	// publisher on the host through one lock for a boolean read.
	if d.closedFlag.Load() {
		return ErrClosed
	}
	d.ctr.publishedLocal.Inc()
	if err := d.conn.Publish(env); err != nil {
		return err
	}
	d.routeLocal(d.lanes[0], Delivery{Subject: subj, Payload: payload, From: d.Addr(), TraceID: e.TraceID, Trace: e.Trace}, true)
	return nil
}

// PublishCompact is Publish; benchmark/replay.go calls it by this name.
func (d *Daemon) PublishCompact(subj subject.Subject, payload []byte) error {
	return d.Publish(subj, payload)
}

// PublishGuaranteed is PublishGuaranteedAs under this daemon's own identity,
// with no stage hops: a retransmission's.
func (d *Daemon) PublishGuaranteed(subj subject.Subject, payload []byte, id uint64) error {
	_, err := d.PublishGuaranteedAs(subj, payload, id, d.identity, ledger.AppendTimings{}, false)
	return err
}

// PublishGuaranteedAs sends a guaranteed publication carrying the caller's
// ledger id, and borrows the payload as Publish does. The caller is
// responsible for logging before calling and for retransmitting until the
// ack callback fires (see the bus layer).
//
// origin is the identity the envelope carries: the daemon's own (Identity),
// or that of a crashed publisher it re-publishes for. Consumer-side
// (origin, id) dedup then treats the replay and any original transmission as
// one publication; the trace gets a recovery-replay hop, and acks, which
// come back to this daemon, go to the origin's FosterAcks callback instead
// of OnGuaranteeAck.
//
// tm and replicated are what the guaranteed-path stage hops recorded before
// dissemination are made from: the ledger's stage timings, and whether its
// commit hook replicated the batch. Only when this publication is sampled
// for tracing do they become hops, ahead of the publisher hop; zero
// timings and false stand for none. The result is the assigned trace id (0
// when unsampled), so the caller can attach late stages — the quorum ack
// lands after the publish — as a sidecar trace (telemetry.SysTrace).
func (d *Daemon) PublishGuaranteedAs(subj subject.Subject, payload []byte, id uint64, origin string,
	tm ledger.AppendTimings, replicated bool) (uint64, error) {
	replay := origin != d.identity
	e := busproto.Envelope{
		Kind: busproto.DataKind(true, wire.IsCompact(payload), false), ID: id, Origin: origin,
		Subject: subj.String(), Payload: payload,
	}
	d.traceSample(&e, tm, replicated)
	if e.TraceID != 0 && replay {
		// Mark the hop as a recovery replay: the timeline downstream
		// monitors assemble must distinguish a replayed publication from
		// the origin's own transmission.
		e.AppendStageHop(busproto.HopRecoveryReplay, d.traceNode, time.Now().UnixNano())
	}
	buf := bufpool.Get(len(e.Origin) + len(e.Subject) + len(payload) + 32)
	env := busproto.AppendEncode((*buf)[:0], e)
	*buf = env
	defer bufpool.Put(buf)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return 0, ErrClosed
	}
	onAck := d.onAck
	if replay {
		onAck = d.foster[origin]
	}
	d.mu.Unlock()
	d.ctr.publishedLocal.Inc()
	if err := d.conn.Publish(env); err != nil {
		return e.TraceID, err
	}
	// A retransmission (seen) was already delivered locally; remote daemons
	// that missed it take it from the broadcast.
	delivered, _ := d.routeGuaranteed(d.lanes[0], origin, Delivery{
		Subject: subj, Payload: payload, From: d.Addr(), Guaranteed: true, ID: id,
		TraceID: e.TraceID, Trace: e.Trace,
	}, true)
	if delivered && onAck != nil {
		// A local subscriber consumed it: self-acknowledge.
		onAck(id, d.Addr())
	}
	return e.TraceID, nil
}

// FosterAcks routes guaranteed-delivery acknowledgements addressed to
// origin — a publisher this daemon is replaying for — to f. One callback
// per origin; DropFosterAcks removes it.
func (d *Daemon) FosterAcks(origin string, f func(id uint64, from string)) {
	d.mu.Lock()
	if d.foster == nil {
		d.foster = make(map[string]func(id uint64, from string))
	}
	d.foster[origin] = f
	d.mu.Unlock()
}

// DropFosterAcks stops routing acks for origin.
func (d *Daemon) DropFosterAcks(origin string) {
	d.mu.Lock()
	delete(d.foster, origin)
	d.mu.Unlock()
}

// Flush forces batched publications onto the wire.
func (d *Daemon) Flush() error { return d.conn.Flush() }

// ---------------------------------------------------------------------------
// Clients

// Client is one local application's attachment to the daemon.
type Client struct {
	name string
	d    *Daemon
	// lanes is the client's delivery queue, one column per daemon lane:
	// lane i's worker (and, on lane 0, the local publishers) append to
	// column i under that column's lock only. A sender belongs to one lane,
	// so each column holds its senders' deliveries in their order and the
	// consumer may take the columns in any fair order (popLocked).
	lanes  []clientQueue
	signal chan struct{}
	closed atomic.Bool

	// mu guards pats and cursor; it serializes concurrent consumers
	// (Next/TryNext) without ever being touched by enqueuers.
	mu     sync.Mutex
	pats   map[string]subject.Pattern
	cursor int // column the next pop looks at first

	// depth mirrors the total queued count (all columns) as an atomic so
	// the alarm engine can watch the client's backlog without locks. It is
	// the cross-lane aggregate on purpose: a stalled client must trip the
	// slow-consumer watermark no matter which lane its backlog sits on.
	depth atomic.Int64
	watch *telemetry.Watch // slow-consumer watch; nil when health is off
}

// clientQueue is one lane's column of a client's delivery queue.
// queue[head:] are the undelivered entries. The head index (instead of
// re-slicing queue[1:]) lets a drained column rewind to the start of its
// backing array, so a steady consumer costs zero appends after warm-up.
type clientQueue struct {
	mu     sync.Mutex
	queue  []Delivery
	head   int
	closed bool
	// n mirrors len(queue)-head so a pop can skip empty columns without
	// taking their locks.
	n atomic.Int32
}

// NewClient registers a local application with the daemon.
func (d *Daemon) NewClient(name string) (*Client, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	c := &Client{
		name:   name,
		d:      d,
		lanes:  make([]clientQueue, len(d.lanes)),
		signal: make(chan struct{}, 1),
		pats:   make(map[string]subject.Pattern),
	}
	if d.health != nil {
		c.watch = d.health.Watch(telemetry.WatchConfig{
			Kind:   "slow-consumer",
			Target: name,
			Raise:  telemetry.SlowConsumerDepth,
		}, c.depth.Load)
	}
	d.clients[c] = struct{}{}
	return c, nil
}

// Name returns the application name given at registration.
func (c *Client) Name() string { return c.name }

// Subscribe adds a subscription pattern. Matching publications — local or
// remote — will appear on Deliveries. Subscribing the same pattern twice
// is a no-op.
func (c *Client) Subscribe(pat subject.Pattern) error {
	c.d.mu.Lock()
	defer c.d.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() || c.d.closed {
		return ErrClosed
	}
	c.pats[pat.String()] = pat
	c.d.subs.Add(pat, c)
	c.d.kickInterest()
	return nil
}

// Unsubscribe removes a subscription pattern.
func (c *Client) Unsubscribe(pat subject.Pattern) error {
	c.d.mu.Lock()
	defer c.d.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() || c.d.closed {
		return ErrClosed
	}
	delete(c.pats, pat.String())
	c.d.subs.Remove(pat, c)
	c.d.kickInterest()
	return nil
}

// Patterns returns the client's current subscription patterns.
func (c *Client) Patterns() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.pats))
	for p := range c.pats {
		out = append(out, p)
	}
	return out
}

// Next blocks until a delivery is available or the client closes. ok is
// false after close once the queue is drained.
func (c *Client) Next(stop <-chan struct{}) (Delivery, bool) {
	for {
		if dv, ok := c.TryNext(); ok {
			return dv, true
		}
		if c.closed.Load() {
			// Drained (the pop above found nothing) and closed.
			return Delivery{}, false
		}
		select {
		case <-c.signal:
		case <-stop:
			return Delivery{}, false
		}
	}
}

// popLocked removes and returns the head of the first non-empty column at
// or after the cursor, and moves the cursor past it: each column is FIFO,
// which is all per-sender order needs, and the round robin lets no backlog
// on one column starve another (a waiting head is popped within len(lanes)
// pops). Nothing orders deliveries of different columns; with one lane the
// queue is the daemon's total arrival order. The vacated slot is zeroed so
// a queued payload cannot outlive its delivery; a drained column rewinds to
// reuse its backing array.
func (c *Client) popLocked() (Delivery, bool) {
	for k := range c.lanes {
		i := (c.cursor + k) % len(c.lanes)
		q := &c.lanes[i]
		if q.n.Load() == 0 {
			continue
		}
		q.mu.Lock()
		if q.head == len(q.queue) {
			q.mu.Unlock() // Close settled the column under us
			continue
		}
		dv := q.queue[q.head]
		q.queue[q.head] = Delivery{}
		q.head++
		if q.head == len(q.queue) {
			q.queue = q.queue[:0]
			q.head = 0
		}
		q.n.Add(-1)
		c.depth.Add(-1)
		c.d.lanes[i].depth.Add(-1)
		q.mu.Unlock()
		c.cursor = (i + 1) % len(c.lanes)
		if dv.TraceID != 0 {
			// The enqueue→pop delta is the lane residency time (client
			// backlog included); stamped outside the column lock.
			dv.Trace = appendHop(dv.Trace, busproto.HopLanePop, c.d.traceNode, time.Now().UnixNano())
		}
		return dv, true
	}
	return Delivery{}, false
}

// Ready is signalled when a delivery may be waiting, or the client closed:
// a consumer that also watches a timer selects on it and drains with TryNext.
func (c *Client) Ready() <-chan struct{} { return c.signal }

// TryNext returns a pending delivery without blocking.
func (c *Client) TryNext() (Delivery, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.popLocked()
}

// Pending returns the number of queued deliveries.
func (c *Client) Pending() int {
	return int(c.depth.Load())
}

// Close detaches the client from the daemon and discards its backlog.
func (c *Client) Close() error {
	c.d.mu.Lock()
	if !c.d.closed {
		c.mu.Lock()
		for _, p := range c.pats {
			c.d.subs.Remove(p, c)
		}
		c.pats = map[string]subject.Pattern{}
		c.mu.Unlock()
		delete(c.d.clients, c)
		c.d.kickInterest()
	}
	c.d.mu.Unlock()
	// Outside d.mu: removing a raised watch emits a clear edge, and the
	// engine sink publishes through this daemon (which takes d.mu).
	if c.watch != nil {
		c.d.health.Unwatch(c.watch)
		c.watch = nil
	}
	c.shutdown(true)
	return nil
}

// shutdown closes every column under its own lock, so nothing is enqueued
// after it returns. A client shut down by Daemon.Close stays drainable to
// its last entry; one its application closed (discard) settles what it
// leaves behind: payloads released, slot turns given back (the column's lock
// is taken before a slot's, never after), Client.depth and the lane gauges
// reduced.
func (c *Client) shutdown(discard bool) {
	c.closed.Store(true)
	for i := range c.lanes {
		q := &c.lanes[i]
		q.mu.Lock()
		q.closed = true
		if discard {
			for _, dv := range q.queue[q.head:] {
				dv.Slot.drop()
			}
			left := int64(len(q.queue) - q.head)
			q.queue, q.head = nil, 0
			q.n.Store(0)
			c.depth.Add(-left)
			c.d.lanes[i].depth.Add(-left)
		}
		q.mu.Unlock()
	}
	select {
	case c.signal <- struct{}{}:
	default:
	}
}

// enqueue appends a delivery to the client's queue column for ln. The
// queue is unbounded so one slow application cannot stall the host daemon
// (the trade-off the paper's daemon makes by dropping; we prefer
// losslessness and expose Pending for monitoring). Only the column's lock
// is taken: enqueues on different lanes never contend.
func (c *Client) enqueue(ln *lane, dv Delivery) bool {
	q := &c.lanes[ln.idx]
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.queue = append(q.queue, dv)
	q.n.Add(1)
	c.depth.Add(1)
	ln.depth.Add(1)
	q.mu.Unlock()
	select {
	case c.signal <- struct{}{}:
	default:
	}
	return true
}

// ---------------------------------------------------------------------------
// Inbound routing

// workerLoop is lane ln's inbound worker: it handles its shard's messages in
// order, delivering through its own lane, until the connection closes the
// shard. One sender is always handled by one worker — per-sender FIFO at the
// client and the qledger invariant that an ack record never overtakes its
// message record both ride on exactly that. A worker that falls behind fills
// its shard and, through the conn's loop, holds up the transport: nothing is
// dropped or spawned. Whenever the shard holds nothing more, the worker sends
// the lane's quick acknowledgement sets; the sets on the clock wait for
// TickAcks (acks.go).
func (d *Daemon) workerLoop(ln *lane) {
	defer d.wg.Done()
	w := d.newWorker(ln)
	shard := d.conn.RecvShard(ln.idx)
	for m := range shard {
		d.handleMessage(w, m)
		if len(shard) == 0 {
			ln.acks.flush()
		}
	}
}

// worker is what one lane's inbound worker owns alone: a subject interner
// (the shared one is a mutex-guarded map and would re-serialize the pool),
// the origin tokens of the guaranteed publications it has handled and the
// node names of the traced ones' hops.
type worker struct {
	ln       *lane
	subjects *subject.Interner
	origins  map[string]string
	nodes    map[string]string
}

// maxInterned bounds each of a worker's string tables. At the bound a table
// starts over: a daemon's identity is new at every start, so the tokens of
// publishers that restarted are never heard again, and a trace names only
// the few hosts and routers on its path.
const maxInterned = 256

func (d *Daemon) newWorker(ln *lane) *worker {
	return &worker{
		ln:       ln,
		subjects: subject.NewInterner(0),
		origins:  make(map[string]string),
		nodes:    make(map[string]string),
	}
}

// intern returns b as a string from tab, allocating only the first time tab
// meets it.
func intern(tab map[string]string, b []byte) string {
	if s, ok := tab[string(b)]; ok {
		return s
	}
	if len(tab) >= maxInterned {
		clear(tab)
	}
	s := string(b)
	tab[s] = s
	return s
}

// origin returns the origin token b names as a string.
func (w *worker) origin(b []byte) string { return intern(w.origins, b) }

// node returns the hop node name b names as a string.
func (w *worker) node(b []byte) string { return intern(w.nodes, b) }

// handleMessage routes one inbound message off one parse (busproto.Peek): the
// subject is interned from the frame's own bytes and the payload stays a view
// of the frame, so an ordinary publication materializes nothing, nor does a
// guaranteed one from an origin the worker knows. A traced publication
// materializes its hop list into a carve of its lane's chunk, with node
// names the worker has interned: one allocation per chunk of carves.
func (d *Daemon) handleMessage(w *worker, m reliable.Message) {
	h, err := busproto.Peek(m.Payload)
	if err != nil {
		d.dropCorrupt("corrupt-envelope")
		return
	}
	switch h.Base() {
	case busproto.KindPublish, busproto.KindGuaranteed:
		subj, err := w.subjects.ParseBytes(h.Subject)
		if err != nil {
			d.dropCorrupt("bad-subject")
			return
		}
		d.ctr.inbound.Inc()
		dv := Delivery{Subject: subj, Payload: h.Payload, From: m.From, ID: h.ID, TraceID: h.TraceID}
		if h.Traced() {
			d.traceArrival(w, &dv, h)
		}
		if h.Base() != busproto.KindGuaranteed {
			d.routeLocal(w.ln, dv, false)
			return
		}
		dv.Guaranteed = true
		origin := w.origin(h.Origin)
		delivered, seen := d.routeGuaranteed(w.ln, origin, dv, false)
		if delivered {
			d.ctr.guarAcksSent.Inc()
		}
		if delivered || seen {
			// Acknowledge on behalf of our subscribers, to the publisher —
			// again for a retransmission, in case it missed our first ack —
			// once the lane drains or the set's due tick comes.
			w.ln.acks.add(m.From, origin, h.ID)
		}
	case busproto.KindGuarAck:
		// Ours, or a crashed publisher's this daemon is replaying for (the
		// acker answers whoever retransmitted, which is us).
		ours := string(h.Origin) == d.identity
		d.mu.Lock()
		onAck := d.onAck
		if !ours {
			onAck = d.foster[string(h.Origin)]
		}
		d.mu.Unlock()
		if !ours && onAck == nil {
			return
		}
		n := 0
		h.EachAcked(func(id uint64) {
			n++
			if onAck != nil {
				onAck(id, m.From)
			}
		})
		d.ctr.guarAcksRecv.Add(uint64(n))
	}
}

// traceArrival gives a traced inbound delivery its hop list with this
// daemon's hop appended, and records, with the publisher's first-hop stamp,
// the end-to-end network+daemon latency (all simulated nodes share the host
// clock). The list is carved from w's lane with room for the hops it
// arrived with, this daemon's node hop, and the lane enqueue and pop ahead.
func (d *Daemon) traceArrival(w *worker, dv *Delivery, h busproto.Header) {
	now := time.Now().UnixNano()
	trace := h.AppendTrace(w.ln.newHops(int(h.TraceHops)+3), w.node)
	trace = appendHop(trace, busproto.HopNode, d.traceNode, now)
	if len(trace) > 0 {
		d.ctr.traceE2E.Observe(time.Duration(now - trace[0].At))
		if d.rec != nil {
			d.rec.Record(telemetry.EventTrace, d.traceNode, now-trace[0].At, int64(len(trace)))
		}
	}
	dv.Trace = trace
}

// dropCorrupt accounts an inbound message the daemon cannot route: counted
// and, with the health tier on, recorded under what was wrong with it.
func (d *Daemon) dropCorrupt(what string) {
	d.ctr.corruptDropped.Inc()
	if d.rec != nil {
		d.rec.Record(telemetry.EventDrop, what, 1, 0)
	}
}

// dropAck accounts an acknowledgement a full pending set discarded
// (acks.go): counted and recorded. The publisher's next retransmission is
// acknowledged again from the dedup ring.
func (d *Daemon) dropAck() {
	d.ctr.guarAckDropped.Inc()
	if d.rec != nil {
		d.rec.Record(telemetry.EventDrop, "guar-ack", 1, 0)
	}
}

// routeGuaranteed is the guaranteed fan-out, the same for an inbound
// publication and for the daemon's own: claim (origin, id), route, record.
// delivered: a local subscriber took it and the caller acknowledges. seen: it
// was delivered before — a retransmission, never re-delivered. Neither: no
// subscriber yet, or another goroutine holds the claim (guarBegin); acking
// then could confirm a delivery that ends up not happening, and the
// publisher's next retransmission is answered from guarSeen.
func (d *Daemon) routeGuaranteed(ln *lane, origin string, dv Delivery, local bool) (delivered, seen bool) {
	claimed, seen := d.guarBegin(origin, dv.ID)
	if !claimed {
		return false, seen
	}
	delivered = d.routeLocal(ln, dv, local) > 0
	d.guarEnd(origin, dv.ID, delivered)
	return delivered, false
}

// routeLocal fans a delivery out to every matching local client through its
// sender's lane ln — the calling worker's own, lane 0 for the daemon's own
// publications: ln's column of each client's queue takes the enqueue, so
// senders on different lanes share no queue lock, and one sender's
// deliveries reach a client's column from one goroutine, in order. A fan-out
// to several clients shares one Slot to decode through, carved from ln's
// chunk: one allocation per 64 such fan-outs on the lane. A delivery a
// client's column refuses gives its slot turn back. local says the delivery
// is the daemon's own publication, whose payload the publisher only lends:
// it costs one allocation, the copy the deliveries share, and only when some
// client matches. An inbound payload is a view of a datagram that is this
// publication's alone, delivered as it is.
//
// A traced delivery is stamped after the match, so one no client matches
// copies no hop. Each matched client gets a hop list of its own, with room
// for its pop, carved from ln's chunk: the last one the list the delivery
// arrived with, which traceArrival sized for it; the others, and every
// client of a local publication, whose list is its envelope's at its exact
// length, a copy. So no two pops ever write into one array.
func (d *Daemon) routeLocal(ln *lane, dv Delivery, local bool) int {
	// Per-subject-family accounting, one note per publication routed on this
	// lane (a map probe under the lane table's own mutex) — before the
	// fan-out, so a client that answers a delivery by reading TopSubjects
	// (the "_sys.history" probe) finds the delivery's own family counted.
	ln.topk.Note(dv.Subject.Family(), len(dv.Payload))
	matches := d.subs.Match(dv.Subject)
	if local && len(matches) > 0 {
		dv.Payload = bytes.Clone(dv.Payload)
	}
	if len(matches) > 1 {
		// Counted before the first enqueue: a client may take while the
		// fan-out is still running.
		dv.Slot = ln.newSlot(len(matches))
	}
	traced := dv.TraceID != 0 && len(matches) > 0
	trace := dv.Trace
	if traced {
		if local {
			trace = append(ln.newHops(len(trace)+2), trace...)
		}
		// One lane-enqueue hop per publication, copied to every client.
		trace = appendHop(trace, busproto.HopLaneEnqueue, d.traceNode, time.Now().UnixNano())
	}
	delivered := 0
	for i, c := range matches {
		if traced {
			dv.Trace = trace
			if i < len(matches)-1 {
				dv.Trace = append(ln.newHops(len(trace)+1), trace...)
			}
		}
		if c.enqueue(ln, dv) {
			delivered++
		} else {
			dv.Slot.drop()
		}
	}
	if delivered == 0 {
		d.ctr.noSubscriber.Inc()
	} else {
		ln.delivered.Add(uint64(delivered))
		d.ctr.deliveredLocal.Add(uint64(delivered))
	}
	if delivered < len(matches) {
		ln.topk.NoteDrop(dv.Subject.Family())
	}
	return delivered
}

// ---------------------------------------------------------------------------
// Interest advertisement (consumed by information routers)

// AdvertiseInterest broadcasts the daemon's aggregate subscription pattern
// set immediately; TickInterest calls it when the policy says so. A daemon
// that wants nothing says so once, when the empty set replaces a non-empty
// one — a router then drops the host's entry at that advertisement instead
// of at its TTL — and is otherwise silent: never periodically, never at
// start-up.
func (d *Daemon) AdvertiseInterest() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	// Gen is read first: a mutation slipping in after it (there is none
	// outside d.mu today) would only cost one redundant recomputation.
	if gen := d.subs.Gen(); gen != d.advGen {
		d.advGen, d.advCache = gen, d.subs.Aggregate(subject.MaxAdvertisedPatterns)
		n := d.subs.Distinct()
		d.interestPatterns.Set(int64(n))
		wide := n > subject.MaxAdvertisedPatterns
		if wide && !d.advWide {
			d.ctr.interestWidened.Inc()
			if d.rec != nil {
				d.rec.Record(telemetry.EventInterest, "widened", int64(n), subject.MaxAdvertisedPatterns)
			}
		}
		d.advWide = wide
	}
	patterns := d.advCache
	send := len(patterns) > 0 || d.advSent
	d.advSent = len(patterns) > 0
	d.mu.Unlock()
	if !send {
		return
	}
	buf := bufpool.Get(256)
	*buf = busproto.AppendEncode((*buf)[:0], busproto.Envelope{Kind: busproto.KindInterest, Patterns: patterns})
	_ = d.conn.Publish(*buf)
	bufpool.Put(buf)
	_ = d.conn.Flush()
}

// guarBegin opens the fan-out of a guaranteed publication. seen reports
// that the key was already delivered locally (caller re-acks, does not
// re-deliver); claimed reports that this caller now owns the fan-out and
// must finish with guarEnd. (false, false) means another goroutine holds
// the claim right now — with several inbound workers the origin's
// retransmission and a recovery replayer's copy can arrive on different
// workers at once, and without the claim both would pass the seen check
// and double-deliver.
func (d *Daemon) guarBegin(origin string, id uint64) (claimed, seen bool) {
	key := guarKey{origin: origin, id: id}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.guarSeen[key]; ok {
		return false, true
	}
	if _, ok := d.guarInflight[key]; ok {
		return false, false
	}
	if d.guarInflight == nil {
		d.guarInflight = make(map[guarKey]struct{})
	}
	d.guarInflight[key] = struct{}{}
	return true, false
}

// guarEnd closes a fan-out claimed by guarBegin. Delivered publications
// are recorded so publisher retransmissions are suppressed ("if there is
// no failure, then the message will be delivered exactly once"). Only
// delivered messages are recorded: a daemon with no matching subscriber
// keeps accepting retries, so a subscriber that appears later still
// receives the message.
func (d *Daemon) guarEnd(origin string, id uint64, delivered bool) {
	key := guarKey{origin: origin, id: id}
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.guarInflight, key)
	if delivered {
		d.guarRecordLocked(key)
	}
}

// guarRecordLocked marks a key delivered under d.mu. Recording an
// already-seen key is a no-op, so the ring holds no duplicates and every
// slot's eviction removes exactly its own key.
func (d *Daemon) guarRecordLocked(key guarKey) {
	if _, dup := d.guarSeen[key]; dup {
		return
	}
	d.guarSeen[key] = struct{}{}
	if len(d.guarRing) < d.guarCap {
		d.guarRing = append(d.guarRing, key)
		d.guarSeenGauge.Set(int64(len(d.guarSeen)))
		return
	}
	delete(d.guarSeen, d.guarRing[d.guarHead])
	d.guarRing[d.guarHead] = key
	d.guarHead = (d.guarHead + 1) % d.guarCap
	d.guarSeenGauge.Set(int64(len(d.guarSeen)))
}

// kickInterest notes a subscription change, under d.mu, and signals Kicked.
func (d *Daemon) kickInterest() {
	d.advChanged = true
	d.wake()
}

// wake signals Kicked without blocking: a signal already waiting covers this
// one.
func (d *Daemon) wake() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// Kicked is signalled when the daemon wants its owner's tick sooner than the
// last TickInterest or TickAcks said: by a subscription change, which
// TickInterest stamps, and by an acknowledgement set going on the clock,
// which TickAcks stamps.
func (d *Daemon) Kicked() <-chan struct{} { return d.kick }

// TickInterest is the interest policy on its owner's clock: it advertises
// interestSettle after the last change of a burst — even a burst that left
// the set as it was — and every InterestInterval, and returns when it next
// wants the clock. A host's loop calls it then and whenever Kicked is
// signalled; a daemon nobody ticks advertises only when its owner calls.
func (d *Daemon) TickInterest(now time.Time) time.Time {
	d.mu.Lock()
	if d.advChanged {
		d.advChanged, d.advDue = false, now.Add(interestSettle)
	}
	if d.advRefresh.IsZero() {
		d.advRefresh = now.Add(InterestInterval)
	}
	send := !d.advDue.IsZero() && !now.Before(d.advDue)
	if send {
		d.advDue = time.Time{}
	}
	if !now.Before(d.advRefresh) {
		d.advRefresh, send = now.Add(InterestInterval), true
	}
	next := d.advRefresh
	if !d.advDue.IsZero() && d.advDue.Before(next) {
		next = d.advDue
	}
	d.mu.Unlock()
	if send {
		d.AdvertiseInterest()
	}
	return next
}

// TickAcks is the acknowledgement policy on its owner's clock (acks.go): it
// sends every lane's sets that are due at now and returns when it next wants
// the clock, zero when no set is on it. A host's loop calls it then and
// whenever Kicked is signalled; until the first call no set goes on the clock
// and every set is sent when its lane drains.
func (d *Daemon) TickAcks(now time.Time) time.Time {
	var next time.Time
	for _, ln := range d.lanes {
		if due := ln.acks.tick(now); !due.IsZero() && (next.IsZero() || due.Before(next)) {
			next = due
		}
	}
	return next
}
