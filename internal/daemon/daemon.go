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
// that it delivered to at least one local subscriber, and it periodically
// advertises its aggregate subscription interest for information routers.
package daemon

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"infobus/internal/bufpool"
	"infobus/internal/busproto"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
	"infobus/internal/wire"
)

// Delivery is one publication handed to a subscribed client.
type Delivery struct {
	Subject subject.Subject
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
	TraceID uint64
	Trace   []busproto.TraceHop
	// Slot is shared by the deliveries of one publication fanned out to more
	// than one client, so its payload is decoded once per host; nil when a
	// single client matched. Take through it either way.
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
	master  any  // referenced by no taker while it is here
}

// Take returns a value of the publication's payload that is the caller's
// alone. The first taker decodes and leaves the result behind as the master;
// every taker is handed clone(master), except the last one outstanding, who
// is handed the master itself. The count can only err towards cloning: a
// delivery that is never taken (a closed client, an evicted stash entry, a
// refused enqueue) keeps the master in the slot for good. A failed decode
// stores nothing and uses up no turn, so the same delivery may take again.
// Takers of one slot wait for each other's decode, which is the point. A nil
// Slot decodes.
func (s *Slot) Take(decode func() (any, error), clone func(any) any) (any, error) {
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
		// foresee would decode again, never share.
		v := s.master
		s.master, s.decoded = nil, false
		return v, nil
	}
	return clone(s.master), nil
}

// appendHop records an intra-node stage hop on a traced delivery, with
// the same copy-on-append and cap-and-drop discipline as
// busproto.Envelope.AppendStageHop (queued deliveries share the decoded
// trace slice, so append-in-place would race sibling subscribers).
func (dv *Delivery) appendHop(kind byte, node string, at int64) {
	if dv.TraceID == 0 || len(dv.Trace) >= busproto.MaxTraceHops {
		return
	}
	trace := make([]busproto.TraceHop, len(dv.Trace), len(dv.Trace)+1)
	copy(trace, dv.Trace)
	dv.Trace = append(trace, busproto.TraceHop{Kind: kind, Node: node, At: at})
}

// Daemon errors.
var (
	ErrClosed = errors.New("daemon: closed")
)

// InterestInterval is how often a daemon re-broadcasts its aggregate
// subscription interest for information routers. Advertisements are also
// sent immediately on every subscription change.
const InterestInterval = 250 * time.Millisecond

// Daemon routes publications between the network and local clients.
type Daemon struct {
	conn     *reliable.Conn
	identity string // globally unique origin token for guaranteed acks
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
	done   chan struct{}
	kick   chan struct{} // debounced interest re-advertisement requests
	wg     sync.WaitGroup

	// Cached interest advertisement and the subs.Gen() it was read at, so
	// the periodic re-advertisement allocates nothing and no mutation of
	// subs can leave it stale. advWide: the cached set is an aggregate.
	// advSent: the last advertisement sent was not empty.
	advCache []string
	advGen   uint64
	advWide  bool
	advSent  bool

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
	slowDepth     int64
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
	// Metrics is the telemetry registry the daemon's counters live in
	// (shared with the host's other components so one "_sys.stats.<node>"
	// object covers the whole host). Nil creates a private registry.
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
	// Recorder is the process flight recorder; notable daemon events
	// (corrupt drops, sampled trace completions) are recorded into it.
	// Nil disables recording.
	Recorder *telemetry.Recorder
	// SlowConsumerDepth is the client queue depth at which the
	// "slow-consumer" alarm raises. Zero means the telemetry default
	// (1024).
	SlowConsumerDepth int64
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
	if cfg.Metrics == nil {
		// Fold the protocol counters into the same registry so the host's
		// stats object covers both layers.
		cfg.Metrics = metrics
	}
	if cfg.Recorder == nil {
		// The protocol layer shares the process flight recorder.
		cfg.Recorder = opts.Recorder
	}
	// The token stream seeds from the same knob as the reliable epoch
	// (reliable.Config.Seed): a fixed per-host seed makes identities and
	// trace bases reproducible across netsim runs, zero stays unique.
	tokens := newTokenSource(cfg.Seed)
	lanes := newLanes(resolveLanes(opts.DeliveryLanes), metrics)
	d := &Daemon{
		conn:        reliable.NewSharded(ep, cfg, len(lanes)),
		identity:    fmt.Sprintf("%s#%016x", ep.Addr(), tokens.Next()),
		tokens:      tokens,
		lanes:       lanes,
		subs:        subject.NewShardedTrie[*Client](len(lanes)),
		clients:     make(map[*Client]struct{}),
		done:        make(chan struct{}),
		kick:        make(chan struct{}, 1),
		guarSeen:    make(map[guarKey]struct{}),
		guarCap:     guarSeenCap,
		metrics:     metrics,
		tracePeriod: opts.TracePeriod,
		traceNode:   opts.Node,
		traceBase:   tokens.Next(),
		health:      opts.Health,
		rec:         opts.Recorder,
		slowDepth:   opts.SlowConsumerDepth,
	}
	if d.traceNode == "" {
		d.traceNode = d.conn.Addr()
	}
	if d.slowDepth <= 0 {
		d.slowDepth = telemetry.HealthConfig{}.WithDefaults().SlowConsumerDepth
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
	// connection (workerLoop).
	d.wg.Add(len(d.lanes) + 1)
	for _, ln := range d.lanes {
		go d.workerLoop(ln)
	}
	go d.interestLoop()
	return d
}

// Metrics returns the daemon's telemetry registry.
func (d *Daemon) Metrics() *telemetry.Registry { return d.metrics }

// Identity returns the daemon's unique origin token. Guaranteed-delivery
// acknowledgements carry it so routers can steer them back to this daemon.
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

// Close shuts the daemon and all its clients down.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.closedFlag.Store(true)
	close(d.done)
	clients := make([]*Client, 0, len(d.clients))
	for c := range d.clients {
		clients = append(clients, c)
	}
	d.mu.Unlock()
	err := d.conn.Close()
	d.wg.Wait()
	for _, c := range clients {
		c.shutdown(false)
	}
	return err
}

// traceSample decides whether the next local publication carries a trace
// and, if so, stamps e with the trace id and the publisher hop.
func (d *Daemon) traceSample(e *busproto.Envelope) {
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
	e.AppendHop(d.traceNode, time.Now().UnixNano())
	d.ctr.traced.Inc()
}

// Publish sends an ordinary reliable publication and routes it to local
// subscribers (network broadcast does not loop back) on lane 0: to its own
// clients the local daemon is one more sender. The payload says what
// it is: one in the compact dictionary wire format (wire.SendDict) goes out
// under the compact envelope kind, which tells receivers and routers that
// fingerprint resolution may be needed; everything else is identical.
func (d *Daemon) Publish(subj subject.Subject, payload []byte) error {
	e := busproto.Envelope{
		Kind:    busproto.DataKind(false, wire.IsCompact(payload), false),
		Subject: subj.String(), Payload: payload,
	}
	d.traceSample(&e)
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
	d.routeLocal(d.lanes[0], Delivery{Subject: subj, Payload: payload, From: d.Addr(), TraceID: e.TraceID, Trace: e.Trace})
	return nil
}

// PublishCompact is Publish; benchmark/replay.go calls it by this name
// (ROADMAP item 3(f)).
func (d *Daemon) PublishCompact(subj subject.Subject, payload []byte) error {
	return d.Publish(subj, payload)
}

// PublishGuaranteed sends a guaranteed publication carrying the caller's
// ledger id. The caller is responsible for logging before calling and for
// retransmitting until the ack callback fires (see the bus layer).
func (d *Daemon) PublishGuaranteed(subj subject.Subject, payload []byte, id uint64) error {
	_, err := d.publishGuaranteed(subj, payload, id, d.identity, nil)
	return err
}

// PublishGuaranteedTraced is PublishGuaranteed with the guaranteed-path
// stage hops the bus layer recorded before dissemination (ledger stage /
// group commit / fsync, replication chunk): when this publication is
// sampled for tracing, pre is prepended ahead of the publisher hop. It
// reports the assigned trace id (0 when unsampled) so the caller can
// attach late stages — the quorum ack lands after the publish — as a
// sidecar trace (telemetry.SysTrace).
func (d *Daemon) PublishGuaranteedTraced(subj subject.Subject, payload []byte, id uint64, pre []busproto.TraceHop) (uint64, error) {
	return d.publishGuaranteed(subj, payload, id, d.identity, pre)
}

// PublishGuaranteedOrigin re-publishes a guaranteed publication on behalf
// of another publisher: the envelope carries origin (the crashed
// publisher's identity token) instead of this daemon's, so consumer-side
// (origin, id) dedup treats the replay and any original transmission as
// one publication. Acknowledgements come back to this daemon (acks are
// unicast to the sender) and are routed through FosterAcks.
func (d *Daemon) PublishGuaranteedOrigin(subj subject.Subject, payload []byte, id uint64, origin string) error {
	_, err := d.publishGuaranteed(subj, payload, id, origin, nil)
	return err
}

// publishGuaranteed is the one guaranteed-publish body. origin is the
// identity the envelope carries: the daemon's own, or that of a publisher
// it is replaying for — then the trace gets a recovery-replay hop and the
// self-acknowledgement goes to the origin's foster callback, not onAck.
func (d *Daemon) publishGuaranteed(subj subject.Subject, payload []byte, id uint64, origin string, pre []busproto.TraceHop) (uint64, error) {
	replay := origin != d.identity
	e := busproto.Envelope{
		Kind: busproto.DataKind(true, wire.IsCompact(payload), false), ID: id, Origin: origin,
		Subject: subj.String(), Payload: payload,
	}
	// Pre-hops are only transmitted when traceSample picks this
	// publication: it appends the publisher hop after them, and the
	// untraced encode ignores Trace entirely.
	e.Trace = pre
	d.traceSample(&e)
	switch {
	case e.TraceID == 0:
		e.Trace = nil // unsampled: the local fan-out must not carry pre
	case replay:
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
	})
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
			Raise:  d.slowDepth,
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
			dv.appendHop(busproto.HopLanePop, c.d.traceNode, time.Now().UnixNano())
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
// leaves behind: payloads released, Client.depth and the lane gauges reduced.
func (c *Client) shutdown(discard bool) {
	c.closed.Store(true)
	for i := range c.lanes {
		q := &c.lanes[i]
		q.mu.Lock()
		q.closed = true
		if discard {
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
// dropped or spawned. Each worker has a private subject interner: the shared
// one is a mutex-guarded map and would re-serialize the pool.
func (d *Daemon) workerLoop(ln *lane) {
	defer d.wg.Done()
	in := subject.NewInterner(0)
	for m := range d.conn.RecvShard(ln.idx) {
		d.handleMessage(in, ln, m)
	}
}

// handleMessage routes one inbound message. It peeks: the subject is interned
// from the frame's own bytes and the payload stays a view of the frame, so an
// ordinary publication materializes nothing. Only the kinds that need an owned
// origin or hop list (guaranteed, traced, acks) are decoded.
func (d *Daemon) handleMessage(in *subject.Interner, ln *lane, m reliable.Message) {
	h, err := busproto.Peek(m.Payload)
	if err != nil {
		d.dropCorrupt("corrupt-envelope")
		return
	}
	switch h.Base() {
	case busproto.KindPublish, busproto.KindGuaranteed:
		subj, err := in.ParseBytes(h.Subject)
		if err != nil {
			d.dropCorrupt("bad-subject")
			return
		}
		d.ctr.inbound.Inc()
		dv := Delivery{Subject: subj, Payload: h.Payload, From: m.From}
		guaranteed := h.Base() == busproto.KindGuaranteed
		if !guaranteed && !h.Traced() {
			d.routeLocal(ln, dv)
			return
		}
		env, _ := busproto.Decode(m.Payload) // accepts exactly what Peek accepted
		if env.Traced() {
			// Record the consumer-daemon hop and, with the publisher's
			// first-hop stamp, the end-to-end network+daemon latency (all
			// simulated nodes share the host clock).
			now := time.Now().UnixNano()
			env.AppendHop(d.traceNode, now)
			if len(env.Trace) > 0 {
				d.ctr.traceE2E.Observe(time.Duration(now - env.Trace[0].At))
				if d.rec != nil {
					d.rec.Record(telemetry.EventTrace, d.traceNode,
						now-env.Trace[0].At, int64(len(env.Trace)))
				}
			}
		}
		dv.Guaranteed, dv.ID, dv.TraceID, dv.Trace = guaranteed, env.ID, env.TraceID, env.Trace
		if !guaranteed {
			d.routeLocal(ln, dv)
			return
		}
		delivered, seen := d.routeGuaranteed(ln, env.Origin, dv)
		if delivered {
			d.ctr.guarAcksSent.Inc()
		}
		if delivered || seen {
			// Acknowledge on behalf of our subscribers, unicast to the
			// publisher — again for a retransmission, in case it missed our
			// first ack.
			d.sendGuarAck(m.From, env.ID, env.Origin)
		}
	case busproto.KindGuarAck:
		env, _ := busproto.Decode(m.Payload)
		if env.Origin != d.identity {
			// Not ours — but it may belong to a crashed publisher this
			// daemon is replaying for (the acker unicasts to whoever
			// retransmitted, which is us).
			d.mu.Lock()
			foster := d.foster[env.Origin]
			d.mu.Unlock()
			if foster != nil {
				d.ctr.guarAcksRecv.Inc()
				foster(env.ID, m.From)
			}
			return
		}
		d.ctr.guarAcksRecv.Inc()
		d.mu.Lock()
		onAck := d.onAck
		d.mu.Unlock()
		if onAck != nil {
			onAck(env.ID, m.From)
		}
	}
}

// dropCorrupt accounts an inbound message the daemon cannot route: counted
// and, with the health tier on, recorded under what was wrong with it.
func (d *Daemon) dropCorrupt(what string) {
	d.ctr.corruptDropped.Inc()
	if d.rec != nil {
		d.rec.Record(telemetry.EventDrop, what, 1, 0)
	}
}

// sendGuarAck unicasts a guaranteed-delivery acknowledgement through a
// pooled buffer (Conn.SendTo copies before returning). An ack the conn
// refuses (the unicast window to the publisher is full, or the conn is
// closing) is counted and recorded, not retried: the publisher's next
// retransmission is re-acknowledged from the dedup ring.
func (d *Daemon) sendGuarAck(to string, id uint64, origin string) {
	buf := bufpool.Get(len(origin) + 16)
	*buf = busproto.AppendEncode((*buf)[:0], busproto.Envelope{Kind: busproto.KindGuarAck, ID: id, Origin: origin})
	err := d.conn.SendTo(to, *buf)
	bufpool.Put(buf)
	if err != nil {
		d.ctr.guarAckDropped.Inc()
		if d.rec != nil {
			d.rec.Record(telemetry.EventDrop, "guar-ack", 1, 0)
		}
	}
}

// routeGuaranteed is the guaranteed fan-out, the same for an inbound
// publication and for the daemon's own: claim (origin, id), route, record.
// delivered: a local subscriber took it and the caller acknowledges. seen: it
// was delivered before — a retransmission, never re-delivered. Neither: no
// subscriber yet, or another goroutine holds the claim (guarBegin); acking
// then could confirm a delivery that ends up not happening, and the
// publisher's next retransmission is answered from guarSeen.
func (d *Daemon) routeGuaranteed(ln *lane, origin string, dv Delivery) (delivered, seen bool) {
	claimed, seen := d.guarBegin(origin, dv.ID)
	if !claimed {
		return false, seen
	}
	delivered = d.routeLocal(ln, dv) > 0
	d.guarEnd(origin, dv.ID, delivered)
	return delivered, false
}

// routeLocal fans a delivery out to every matching local client through its
// sender's lane ln — the calling worker's own, lane 0 for the daemon's own
// publications: ln's column of each client's queue takes the enqueue, so
// senders on different lanes share no queue lock, and one sender's
// deliveries reach a client's column from one goroutine, in order. A fan-out
// to several clients costs one allocation, the Slot they decode through.
func (d *Daemon) routeLocal(ln *lane, dv Delivery) int {
	if dv.TraceID != 0 {
		// One lane-enqueue hop per publication (not per subscriber): the
		// fan-out below shares the stamped trace.
		dv.appendHop(busproto.HopLaneEnqueue, d.traceNode, time.Now().UnixNano())
	}
	// Per-subject-family accounting, one note per publication routed on this
	// lane (a map probe under the lane table's own mutex) — before the
	// fan-out, so a client that answers a delivery by reading TopSubjects
	// (the "_sys.history" probe) finds the delivery's own family counted.
	ln.topk.Note(dv.Subject.Family(), len(dv.Payload))
	matches := d.subs.Match(dv.Subject)
	if len(matches) > 1 {
		// Counted before the first enqueue: a client may take while the
		// fan-out is still running.
		dv.Slot = &Slot{takers: len(matches)}
	}
	delivered := 0
	for _, c := range matches {
		if c.enqueue(ln, dv) {
			delivered++
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
// set immediately. It is also called periodically and on every
// subscription change. A daemon that wants nothing says so once, when the
// empty set replaces a non-empty one — a router then drops the host's entry
// at that advertisement instead of at its TTL — and is otherwise silent:
// never periodically, never at start-up.
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

// kickInterest schedules a prompt advertisement without blocking the
// caller; bursts of subscription changes collapse into one broadcast.
func (d *Daemon) kickInterest() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

func (d *Daemon) interestLoop() {
	defer d.wg.Done()
	ticker := time.NewTicker(InterestInterval)
	defer ticker.Stop()
	debounce := time.NewTimer(time.Hour)
	debounce.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-d.kick:
			// Let a burst of Subscribe calls settle briefly, then send one
			// advertisement covering them all. Stop-and-drain before Reset:
			// if the timer fired between our last receive and this kick, the
			// stale expiry sits in debounce.C and would otherwise make the
			// reset fire immediately, defeating the debounce (this loop is
			// the only reader, so the non-blocking drain cannot race).
			if !debounce.Stop() {
				select {
				case <-debounce.C:
				default:
				}
			}
			debounce.Reset(2 * time.Millisecond)
		case <-debounce.C:
			d.AdvertiseInterest()
		case <-ticker.C:
			d.AdvertiseInterest()
		}
	}
}
