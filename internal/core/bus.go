// Package core implements the Information Bus itself — the paper's primary
// contribution. A Bus gives an application:
//
//   - Publish: label a self-describing data object with a subject and
//     disseminate it (reliable delivery; P1, P4);
//   - PublishGuaranteed: the stronger quality of service that logs to
//     non-volatile storage first and retransmits until acknowledged;
//   - Subscribe: receive objects by subject pattern, anonymously — no
//     knowledge of who produces them (P4);
//   - Registry: the host's type universe, automatically extended by
//     incoming self-describing objects (P2, P3).
//
// The architecture below a Bus mirrors the paper: every simulated host
// runs one daemon (internal/daemon) over the reliable protocol
// (internal/reliable) over broadcast datagrams (internal/transport,
// internal/netsim). Applications on a host attach to the daemon through
// Host.NewBus.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"infobus/internal/bufpool"
	"infobus/internal/busproto"
	"infobus/internal/daemon"
	"infobus/internal/ledger"
	"infobus/internal/mop"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/sysagent"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
	"infobus/internal/wire"
)

// Host is one workstation on the bus: a transport endpoint, its daemon,
// and the process-wide type registry shared by the applications on it.
type Host struct {
	name    string
	daemon  *daemon.Daemon
	reg     *mop.Registry
	metrics *telemetry.Registry
	ctr     busCounters

	// Type-dictionary compression (wire/dict.go). typeCache is always
	// live — any host may receive compact publications; sendDict is set
	// only when HostConfig.CompactTypes enables compact publishing.
	typeCache *wire.TypeCache
	sendDict  *wire.SendDict
	// subjects interns the subjects applications publish on, so a repeated
	// subject is a map hit, not a strings.Split. The daemon's interners
	// serve the inbound path and stay its own.
	subjects *subject.Interner
	// payloadHint is the size of the last payload marshal encoded: the
	// capacity its scratch buffer starts from.
	payloadHint atomic.Int64

	mu     sync.Mutex
	ledger *ledger.Ledger
	buses  []*Bus
	closed bool
	// The host's periodic duties are parts ticked by one loop (loop.go):
	// retry (nil without a ledger) and csync are fixed at construction; loop
	// is nil until a part needs the clock or the bus, and guarded by mu.
	retry *guaranteeRetrier
	csync classSync
	loop  *hostLoop
	// guarGate, when set, blocks PublishGuaranteed returns until the
	// replication tier confirms quorum durability (internal/qledger). Nil —
	// the default — costs one pointer load under the mutex already taken.
	// The returned stamp is when the write quorum was reached (unix ns, 0
	// unknown); it becomes the traced publication's quorum-ack hop.
	guarGate func(id uint64) (int64, error)
	// tracing mirrors Telemetry.TraceSampling > 0: the guaranteed path
	// only assembles stage-hop slices when some publication could carry
	// them (the untraced path must stay allocation-flat).
	tracing bool
	// closeHooks run first in Close, in reverse registration order, so
	// layers stacked above the host (replication agents) detach before the
	// daemon and ledger go away underneath them.
	closeHooks []func()

	// Health tier (nil unless Telemetry.Health.Interval > 0) and flight-data
	// ring (nil unless Telemetry.HistoryInterval > 0), fixed at construction.
	recorder *telemetry.Recorder
	engine   *telemetry.Engine
	hist     *telemetry.History

	// sys publishes every "_sys" telemetry object of this host (sys.go);
	// guarded by mu because a host with every tier off creates it on its
	// first trace sidecar.
	sys *sysagent.Agent
}

// busCounters are the host's bus-layer telemetry handles.
type busCounters struct {
	published, publishedGuaranteed *telemetry.Counter
	events, undecodableDropped     *telemetry.Counter
	// guarRetransmits counts guaranteed-delivery retransmissions; together
	// with the reliable stream's retransmit counter it feeds the
	// retransmit-storm alarm.
	guarRetransmits *telemetry.Counter
	// Type-dictionary compression: compact publications sent, compact
	// events decoded, deliveries deferred on a fingerprint miss, NAK
	// requests sent/served, and definitions harvested from replies.
	compactPublished, compactEvents *telemetry.Counter
	decodeDeferred                  *telemetry.Counter
	classNakSent, classNakServed    *telemetry.Counter
	classDefsHarvested              *telemetry.Counter
}

// TelemetryConfig tunes the host's self-observation (internal/telemetry).
type TelemetryConfig struct {
	// Registry is the host's metrics registry, shared by the daemon, the
	// reliable protocol, the ledger, and the bus layer. Nil creates one;
	// retrieve it with Host.Metrics.
	Registry *telemetry.Registry
	// TraceSampling is the fraction of publications carrying a per-hop
	// trace (trace id + a timestamp per daemon/router crossed). 0 disables
	// tracing — untraced publications are byte-identical on the wire to a
	// host with tracing never configured. 1 traces everything. Intermediate
	// rates sample deterministically (every ⌈1/rate⌉-th publication).
	TraceSampling float64
	// StatsInterval enables self-hosted export: the host periodically
	// publishes its metrics snapshot as a self-describing SysStats object
	// on "_sys.stats.<node>" and answers "_sys.ping" probes with a SysPong
	// plus a fresh snapshot. 0 disables.
	StatsInterval time.Duration
	// Health enables the alarm engine and flight recorder: slow-consumer,
	// retransmit-storm, dedup-pressure, and ledger-backlog alarms are
	// published on "_sys.alarm.<node>.<kind>", and "_sys.dump" probes are
	// answered with the flight recorder's recent-event ring. Zero (its
	// Interval in particular) disables the tier entirely.
	Health telemetry.HealthConfig
	// HistoryInterval enables the flight-data tier: a sampler snapshots the
	// host's key rates, queue depths, and latency percentiles into
	// fixed-window rings every interval (telemetry.History), answers
	// "_sys.history" probes with the full window as a SysHistory object on
	// "_sys.history.<node>", and publishes short digests of the same series
	// there unprompted. 0 disables the tier. Each series keeps the telemetry
	// default of 256 slots (≈ 64 s at a 250 ms interval).
	HistoryInterval time.Duration
	// HistoryDigestTicks is how many sampler ticks between unsolicited
	// digests; 0 selects the default (8 — every 2 s at the default
	// interval), negative disables digests (probe-only).
	HistoryDigestTicks int
}

// tracePeriod converts a sampling fraction to the daemon's every-Nth
// counter period.
func (tc TelemetryConfig) tracePeriod() uint64 {
	switch {
	case tc.TraceSampling <= 0:
		return 0
	case tc.TraceSampling >= 1:
		return 1
	default:
		return uint64(math.Round(1 / tc.TraceSampling))
	}
}

// HostConfig tunes a host.
type HostConfig struct {
	// Reliable tunes the reliable-delivery protocol (batching included).
	Reliable reliable.Config
	// LedgerPath enables guaranteed delivery: the write-ahead log file for
	// publications awaiting acknowledgement. Empty disables
	// PublishGuaranteed on this host.
	LedgerPath string
	// LedgerSync makes guaranteed publications durable against machine
	// crashes: each committed ledger batch is fsynced before
	// PublishGuaranteed returns. Concurrent publications share one fsync
	// per group-committed batch.
	LedgerSync bool
	// RetryInterval is the base delay before an unacknowledged guaranteed
	// publication is first retransmitted; further retransmissions back off
	// exponentially from it, to DefaultRetryBackoffCap. Default 100ms.
	RetryInterval time.Duration
	// Registry lets several hosts share one type universe (common in
	// tests). Nil creates a fresh registry.
	Registry *mop.Registry
	// Telemetry tunes metrics, tracing, and the "_sys.>" stats export.
	Telemetry TelemetryConfig
	// CompactTypes enables type-dictionary compression for this host's
	// publications: class descriptors cross the medium once (wire.SendDict)
	// and thereafter travel as 8-byte fingerprints, cutting the
	// self-describing overhead out of steady-state messages. Receivers
	// need no configuration — the compact envelope kinds are understood
	// by every daemon, which resolves fingerprints through its cache and
	// NAKs unknown ones on "_sys.class.req".
	CompactTypes bool
	// CompactResendEvery is the inline fallback period: a class whose
	// definition has ridden as a fingerprint for this many consecutive
	// publications gets its full definition re-sent, so progress never
	// depends on the NAK path. <= 0 selects wire.DefaultResendEvery.
	CompactResendEvery int
	// CompactNakInterval is how often outstanding class-definition
	// requests are re-published while undecoded compact deliveries are
	// pending. Default 50ms.
	CompactNakInterval time.Duration
	// ReplicationFactor enables the quorum ledger tier (internal/qledger,
	// wired by infobus.NewHost): each committed ledger batch is mirrored to
	// this many peer replicas and PublishGuaranteed returns only once a
	// majority of the replication group is durable. 0 — the default — keeps
	// the single-node guaranteed path byte-for-byte unchanged. The core
	// package itself only carries the value; it never reads it.
	ReplicationFactor int
	// ReplicaAckTimeout bounds how long a guaranteed publication waits for
	// quorum acknowledgement before failing with qledger.ErrQuorumTimeout.
	// 0 selects the qledger default.
	ReplicaAckTimeout time.Duration
	// ReplFsyncPolicy selects replica-side durability: "batch" (default —
	// fsync each applied batch, the paper-faithful quorum) or "lazy" (write
	// without fsync; quorum means process-crash durability only).
	ReplFsyncPolicy string
	// ReplicaDir is where this host stores mirrored peers' replica logs.
	// Non-empty enrolls the host as a replica even with ReplicationFactor 0.
	ReplicaDir string
	// DeliveryLanes is the daemon's lane count (see internal/daemon): a lane
	// is a shard of senders with its own inbound worker and its own column of
	// every client's queue. Order holds per sender, never across senders.
	// 0 — the default — selects min(GOMAXPROCS, 8); 1 is the same engine
	// with one lane, which also keeps the host's total arrival order.
	DeliveryLanes int
}

// Bus errors.
var (
	ErrClosed          = errors.New("core: closed")
	ErrNoLedger        = errors.New("core: guaranteed delivery requires a ledger (set HostConfig.LedgerPath)")
	ErrNotDataObject   = errors.New("core: value cannot travel on the bus")
	ErrReservedSubject = errors.New("core: the _sys subject space is reserved for bus telemetry")
)

// NewHost attaches a workstation to a network segment.
func NewHost(seg transport.Segment, name string, cfg HostConfig) (*Host, error) {
	ep, err := seg.NewEndpoint(name)
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = mop.NewRegistry()
	}
	metrics := cfg.Telemetry.Registry
	if metrics == nil {
		metrics = telemetry.NewRegistry()
	}
	rcfg := cfg.Reliable
	if rcfg.Metrics == nil {
		rcfg.Metrics = metrics
	}
	hcfg := cfg.Telemetry.Health
	var engine *telemetry.Engine
	var rec *telemetry.Recorder
	if hcfg.Enabled() {
		hcfg = hcfg.WithDefaults()
		rec = telemetry.NewRecorder(0)
		engine = telemetry.NewEngine(name, metrics, rec)
		if rcfg.Recorder == nil {
			rcfg.Recorder = rec
		}
	}
	h := &Host{
		name: name,
		daemon: daemon.New(ep, rcfg, daemon.Options{
			Metrics:           metrics,
			TracePeriod:       cfg.Telemetry.tracePeriod(),
			Node:              name,
			Health:            engine,
			Recorder:          rec,
			SlowConsumerDepth: hcfg.SlowConsumerDepth,
			DeliveryLanes:     cfg.DeliveryLanes,
		}),
		reg:      reg,
		metrics:  metrics,
		recorder: rec,
		engine:   engine,
		ctr: busCounters{
			published:           metrics.Counter("bus.published"),
			publishedGuaranteed: metrics.Counter("bus.published_guaranteed"),
			guarRetransmits:     metrics.Counter("bus.guar_retransmits"),
			events:              metrics.Counter("bus.events"),
			undecodableDropped:  metrics.Counter("bus.undecodable_dropped"),
			compactPublished:    metrics.Counter("bus.compact_published"),
			compactEvents:       metrics.Counter("bus.compact_events"),
			decodeDeferred:      metrics.Counter("bus.decode_deferred"),
			classNakSent:        metrics.Counter("bus.class_nak_sent"),
			classNakServed:      metrics.Counter("bus.class_nak_served"),
			classDefsHarvested:  metrics.Counter("bus.class_defs_harvested"),
		},
		typeCache: wire.NewTypeCache(0),
		subjects:  subject.NewInterner(0),
		tracing:   cfg.Telemetry.tracePeriod() > 0,
	}
	// Table-memo hits are bus.events minus the misses.
	h.typeCache.CountMemo(metrics.Counter("wire.table_memo_miss"), metrics.Counter("wire.table_memo_full"))
	if cfg.CompactTypes {
		h.sendDict = wire.NewSendDict(cfg.CompactResendEvery)
	}
	h.csync = classSync{
		reg: reg, cache: h.typeCache, dict: h.sendDict, ctr: &h.ctr,
		interval: cfg.CompactNakInterval,
		publish:  h.publishSys,
		want:     make(map[uint64]bool),
	}
	if h.csync.interval <= 0 {
		h.csync.interval = 50 * time.Millisecond
	}
	if cfg.LedgerPath != "" {
		led, err := ledger.Open(cfg.LedgerPath, ledger.Options{
			Sync:     cfg.LedgerSync,
			Metrics:  metrics,
			Recorder: rec,
		})
		if err != nil {
			_ = h.daemon.Close()
			return nil, err
		}
		h.ledger = led
		h.retry = newGuaranteeRetrier(led, cfg.RetryInterval, h.ctr.guarRetransmits, h.daemon.PublishGuaranteed)
		h.daemon.OnGuaranteeAck(func(id uint64, _ string) { _ = led.Ack(id) })
	}
	prefix := rcfg.MetricsPrefix
	if prefix == "" {
		prefix = "reliable"
	}
	err = h.startSys(cfg, hcfg, prefix)
	if err == nil && (h.sys != nil || h.retry != nil || cfg.CompactTypes) {
		// A compact publisher must answer _sys.class.req NAKs from the
		// start; pure receivers hear the class subjects from their first
		// fingerprint miss instead, so legacy topologies advertise no extra
		// interest.
		_, err = h.ensureLoop(cfg.CompactTypes)
	}
	if err != nil {
		_ = h.Close()
		return nil, err
	}
	return h, nil
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Addr returns the host daemon's transport address.
func (h *Host) Addr() string { return h.daemon.Addr() }

// Registry returns the host's type registry.
func (h *Host) Registry() *mop.Registry { return h.reg }

// Metrics returns the host's telemetry registry: bus, daemon, reliable
// protocol, and ledger counters, one shared namespace per host.
func (h *Host) Metrics() *telemetry.Registry { return h.metrics }

// Daemon exposes the host daemon, mainly for statistics.
func (h *Host) Daemon() *daemon.Daemon { return h.daemon }

// Token draws the next value from the host's seeded random-token stream
// (HostConfig.Reliable.Seed). Components layered on the bus — discovery
// round tokens, election tokens, random server picks — draw here instead
// of the global math/rand source, so a seeded netsim run is deterministic
// end to end.
func (h *Host) Token() uint64 { return h.daemon.Token() }

// Recorder returns the host's flight recorder, or nil when the health
// tier is disabled (TelemetryConfig.Health).
func (h *Host) Recorder() *telemetry.Recorder { return h.recorder }

// ActiveAlarms returns the currently raised health alarms (nil when the
// health tier is disabled, or when nothing is raised).
func (h *Host) ActiveAlarms() []telemetry.AlarmEvent {
	if h.engine == nil {
		return nil
	}
	return h.engine.Active()
}

// HealthDump returns the active alarms plus the flight-recorder ring as
// text — the same answer a "_sys.dump" probe gets — or "" when the health
// tier is disabled.
func (h *Host) HealthDump() string {
	if h.engine == nil {
		return ""
	}
	return h.engine.DumpText()
}

// Ledger exposes the host's write-ahead ledger (nil without LedgerPath).
// The replication tier hooks its commit stream; applications use the Bus
// API instead.
func (h *Host) Ledger() *ledger.Ledger {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ledger
}

// HealthEngine returns the host's alarm engine, or nil when the health
// tier is disabled (TelemetryConfig.Health).
func (h *Host) HealthEngine() *telemetry.Engine { return h.engine }

// History returns the host's flight-data recorder, or nil when the tier
// is disabled (TelemetryConfig.HistoryInterval). Layers above the host
// may register extra series on it before traffic starts.
func (h *Host) History() *telemetry.History { return h.hist }

// SetGuaranteeGate installs (or, with nil, removes) the quorum gate:
// PublishGuaranteed calls it with the ledger id after local durability and
// dissemination, and propagates its error. The entry stays pending on
// error, so the retrier and crash recovery still cover it. On success the
// gate reports when the write quorum was reached (unix ns, 0 when
// unknown); a traced publication publishes that stamp as a quorum-ack
// sidecar hop on "_sys.trace.<node>".
func (h *Host) SetGuaranteeGate(gate func(id uint64) (int64, error)) {
	h.mu.Lock()
	h.guarGate = gate
	h.mu.Unlock()
}

// AddCloseHook registers f to run at the start of Close, before the buses,
// daemon, and ledger shut down. Hooks run in reverse registration order,
// once, on the closing goroutine.
func (h *Host) AddCloseHook(f func()) {
	h.mu.Lock()
	h.closeHooks = append(h.closeHooks, f)
	h.mu.Unlock()
}

// PendingGuaranteed returns the guaranteed publications not yet
// acknowledged (from the ledger), including entries recovered after a
// restart.
func (h *Host) PendingGuaranteed() []ledger.Entry {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ledger == nil {
		return nil
	}
	return h.ledger.Pending()
}

// Close shuts down the host: its loop, buses, daemon, and ledger.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	buses := append([]*Bus(nil), h.buses...)
	loop := h.loop
	h.sys = nil
	hooks := h.closeHooks
	h.closeHooks = nil
	h.mu.Unlock()
	for i := len(hooks) - 1; i >= 0; i-- {
		hooks[i]()
	}
	if loop != nil {
		close(loop.done)
		<-loop.exited
		_ = loop.client.Close()
	}
	for _, b := range buses {
		_ = b.Close()
	}
	err := h.daemon.Close()
	if h.ledger != nil {
		if cerr := h.ledger.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// NewBus attaches an application to the host's daemon. appName labels the
// application in monitoring output.
func (h *Host) NewBus(appName string) (*Bus, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	client, err := h.daemon.NewClient(appName)
	if err != nil {
		return nil, err
	}
	b := &Bus{
		host:   h,
		client: client,
		done:   make(chan struct{}),
		redo:   make(chan struct{}, 1),
		subs:   subject.NewTrie[*Subscription](),
	}
	go b.dispatchLoop()
	h.buses = append(h.buses, b)
	return b, nil
}

// ---------------------------------------------------------------------------
// Bus

// Bus is one application's handle on the Information Bus.
type Bus struct {
	host   *Host
	client *daemon.Client
	done   chan struct{}
	redo   chan struct{} // class definitions arrived: retry the stash

	mu     sync.Mutex
	subs   *subject.Trie[*Subscription]
	all    []*Subscription // each at its own Subscription.slot
	closed bool

	// pending holds compact deliveries whose class fingerprints are not
	// resolved yet; they are retried when _sys.class.def replies land
	// (classSync). Bounded: beyond maxPendingDecodes the oldest entry is
	// dropped — the guaranteed-delivery retrier or the publisher's inline
	// fallback will carry the data again. Owned by dispatchLoop.
	pending []daemon.Delivery
}

// maxPendingDecodes bounds the per-bus stash of undecodable compact
// deliveries awaiting class definitions.
const maxPendingDecodes = 64

// Event is one received publication, decoded back into a self-describing
// object.
type Event struct {
	// Subject the object was published under.
	Subject subject.Subject
	// Value is the decoded data object (any mop.Value). It is private to the
	// receiving Bus: no other application on the host, however many got the
	// same publication, can see what this one does to it. Subscriptions of
	// one Bus that match the same publication share the one Value.
	Value mop.Value
	// From is the transport address of the publishing host's daemon; note
	// that applications normally ignore it (P4: anonymous communication).
	From string
	// Guaranteed marks guaranteed-delivery publications.
	Guaranteed bool
	// TraceID and Trace carry the per-hop telemetry trace when this
	// publication was sampled (TelemetryConfig.TraceSampling): one
	// timestamped hop per daemon and router it crossed. Trace is empty for
	// unsampled publications.
	TraceID uint64
	Trace   []busproto.TraceHop
}

// Subscription is a live subject subscription. Events arrive on C. Cancel
// to stop; C closes when the subscription or the bus closes.
type Subscription struct {
	// C delivers matching publications in per-publisher FIFO order.
	C <-chan Event

	pattern subject.Pattern
	bus     *Bus
	slot    int // index in bus.all, under bus.mu
	ch      chan Event
	done    chan struct{}
	sendMu  sync.Mutex // held around sends so close never races a sender
	once    sync.Once
}

// deliver hands an event to the subscription, giving up if the
// subscription or the bus shuts down while the buffer is full.
func (s *Subscription) deliver(ev Event, busDone <-chan struct{}) {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	select {
	case <-s.done:
		return
	default:
	}
	select {
	case s.ch <- ev:
	case <-s.done:
	case <-busDone:
	}
}

// shutdown closes the subscription exactly once, after any in-flight
// delivery has drained.
func (s *Subscription) shutdown() {
	s.once.Do(func() {
		close(s.done)
		s.sendMu.Lock()
		close(s.ch)
		s.sendMu.Unlock()
	})
}

// Pattern returns the subscription's subject pattern.
func (s *Subscription) Pattern() subject.Pattern { return s.pattern }

// Cancel stops the subscription and closes C.
func (s *Subscription) Cancel() {
	s.bus.removeSub(s)
}

// Host returns the host this bus is attached to.
func (b *Bus) Host() *Host { return b.host }

// Registry returns the host's type registry.
func (b *Bus) Registry() *mop.Registry { return b.host.reg }

// Publish labels a data object with a subject and disseminates it with
// reliable delivery.
//
// The "_sys.>" subject space is reserved: only the bus machinery publishes
// there (so subscribers can trust "_sys.stats.<node>" objects), with three
// exceptions — any application may publish on "_sys.ping" to probe the
// exporting nodes, on "_sys.dump" to request flight-recorder dumps, and on
// "_sys.history" to request flight-data windows.
func (b *Bus) Publish(subj string, value mop.Value) error {
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return ErrClosed
	}
	s, err := b.host.subjects.Parse(subj)
	if err != nil {
		return err
	}
	if subject.IsSys(s) {
		if str := s.String(); str != telemetry.PingSubject && str != telemetry.DumpSubject &&
			str != telemetry.HistorySubject {
			return fmt.Errorf("%q: %w", subj, ErrReservedSubject)
		}
	}
	payload, err := b.host.marshal(value)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNotDataObject, err)
	}
	b.host.ctr.published.Inc()
	if b.host.sendDict != nil {
		b.host.ctr.compactPublished.Inc()
	}
	return b.host.daemon.Publish(s, payload)
}

// marshal encodes a value for the wire: through the host's send
// dictionary when compact publishing is enabled, self-contained otherwise.
// The encoder works in pooled scratch — sized by the host's previous
// payload, so a stream of like-sized objects never regrows it — and the
// payload returned is one exact-size copy: the daemon's local fan-out hands
// the payload to subscribers' queues, so the payload itself can never be
// pooled, but the appends that grow it can.
func (h *Host) marshal(value mop.Value) (payload []byte, err error) {
	scratch := bufpool.Get(int(h.payloadHint.Load()))
	defer bufpool.Put(scratch)
	if h.sendDict != nil {
		*scratch, err = h.sendDict.AppendMarshal(*scratch, value)
	} else {
		*scratch, err = wire.AppendMarshal(*scratch, value)
	}
	if err != nil {
		return nil, err
	}
	h.payloadHint.Store(int64(len(*scratch)))
	return append(make([]byte, 0, len(*scratch)), *scratch...), nil
}

// PublishGuaranteed logs the object to the host ledger, then disseminates
// it, retransmitting until some consumer acknowledges. It returns the
// ledger id, which leaves the pending set once acknowledged.
func (b *Bus) PublishGuaranteed(subj string, value mop.Value) (uint64, error) {
	b.mu.Lock()
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	s, err := b.host.subjects.Parse(subj)
	if err != nil {
		return 0, err
	}
	if subject.IsSys(s) {
		// No ping exception here: system probes are fire-and-forget.
		return 0, fmt.Errorf("%q: %w", subj, ErrReservedSubject)
	}
	b.host.mu.Lock()
	led, gate := b.host.ledger, b.host.guarGate
	b.host.mu.Unlock()
	if led == nil {
		return 0, ErrNoLedger
	}
	payload, err := b.host.marshal(value)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrNotDataObject, err)
	}
	// Log before sending (§3.1). The ledger stores the payload as
	// encoded; its header says whether it is in the compact format.
	id, tm, err := led.AppendTimed(s.String(), payload)
	if err != nil {
		return 0, err
	}
	b.host.ctr.publishedGuaranteed.Inc()
	// Guaranteed-path stage hops: only assembled when tracing is enabled
	// at all; the daemon transmits them only on sampled publications.
	var pre []busproto.TraceHop
	if b.host.tracing {
		pre = make([]busproto.TraceHop, 0, 4)
		pre = append(pre, busproto.TraceHop{Kind: busproto.HopLedgerStage, Node: b.host.name, At: tm.StagedAt})
		if tm.CommitAt != 0 {
			pre = append(pre, busproto.TraceHop{Kind: busproto.HopGroupCommit, Node: b.host.name, At: tm.CommitAt})
		}
		if tm.SyncedAt != 0 {
			pre = append(pre, busproto.TraceHop{Kind: busproto.HopFsync, Node: b.host.name, At: tm.SyncedAt})
		}
		if gate != nil {
			// The ledger's commit hook mirrored the batch as a replication
			// chunk before AppendTimed returned (the qledger ordering
			// contract), so now is an upper bound on the chunk broadcast.
			pre = append(pre, busproto.TraceHop{Kind: busproto.HopReplicaChunk, Node: b.host.name, At: time.Now().UnixNano()})
		}
	}
	if b.host.sendDict != nil {
		b.host.ctr.compactPublished.Inc()
	}
	traceID, err := b.host.daemon.PublishGuaranteedTraced(s, payload, id, pre)
	if err != nil {
		return id, err
	}
	// The retrier re-publishes from here on until the ack lands.
	if gate != nil {
		// Replicated mode: hold the publisher until a majority of replicas
		// acknowledged the commit batch carrying this id. On error the entry
		// is already pending locally and disseminated, so nothing is lost —
		// the caller just lacks the quorum guarantee.
		quorumAt, gerr := gate(id)
		if gerr != nil {
			return id, gerr
		}
		if traceID != 0 && quorumAt != 0 {
			// The quorum ack landed after the envelope left: publish it as
			// a sidecar trace monitors merge by trace id.
			b.host.publishTraceSidecar(traceID, quorumAt)
		}
	}
	return id, nil
}

// Subscribe registers interest in a subject pattern ("news.equity.*",
// "fab5.>", ...). The returned subscription's channel receives every
// matching publication from any producer, current or future.
func (b *Bus) Subscribe(pattern string) (*Subscription, error) {
	pat, err := subject.ParsePattern(pattern)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	// A modest buffer decouples the dispatcher from a briefly busy
	// subscriber without making large subscription populations (Figure 8
	// subscribes to 10 000 subjects per consumer) expensive to keep live.
	ch := make(chan Event, 32)
	sub := &Subscription{pattern: pat, bus: b, slot: len(b.all), ch: ch, done: make(chan struct{})}
	sub.C = ch
	if err := b.client.Subscribe(pat); err != nil {
		return nil, err
	}
	b.subs.Add(pat, sub)
	b.all = append(b.all, sub)
	return sub, nil
}

func (b *Bus) removeSub(s *Subscription) {
	b.mu.Lock()
	patterns := b.subs.Distinct()
	removed := b.subs.Remove(s.pattern, s)
	if removed && !b.closed {
		last := len(b.all) - 1
		b.all[s.slot] = b.all[last]
		b.all[s.slot].slot = s.slot
		b.all[last] = nil
		b.all = b.all[:last]
		// Drop the daemon-side subscription only if no other subscription
		// of this bus uses the same pattern: the trie counts its distinct
		// patterns, and the count fell only if s was the last on its own.
		if b.subs.Distinct() < patterns {
			_ = b.client.Unsubscribe(s.pattern)
		}
	}
	b.mu.Unlock()
	if removed {
		s.shutdown()
	}
}

// Flush pushes batched publications onto the wire immediately.
func (b *Bus) Flush() error { return b.host.daemon.Flush() }

// Close detaches the application from the bus and closes all of its
// subscriptions.
func (b *Bus) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	subs := b.all
	b.all = nil
	b.mu.Unlock()
	close(b.done)
	err := b.client.Close()
	for _, s := range subs {
		s.shutdown()
	}
	return err
}

// dispatchLoop decodes daemon deliveries and fans them out to matching
// subscriptions. It is the only goroutine that hands this bus's events to
// its subscribers: the stash is retried here too, so a subscriber that does
// not drain its channel holds up this bus and nothing else.
func (b *Bus) dispatchLoop() {
	for {
		for dv, ok := b.client.TryNext(); ok; dv, ok = b.client.TryNext() {
			b.dispatch(dv)
		}
		select {
		case <-b.done:
			return
		case <-b.client.Ready():
		case <-b.redo:
			b.retryPending()
		}
	}
}

// dispatch takes one delivery's value and fans it out. The value comes
// through the delivery's slot: of the buses on this host one publication
// reached, the first decodes and the others are handed clones, so each bus
// gets an object no other bus can see. A compact delivery whose
// class fingerprints are not cached yet is stashed and NAKed instead of
// dropped; it is retried, through the same slot, once classSync has harvested
// the definitions.
func (b *Bus) dispatch(dv daemon.Delivery) {
	compact := wire.IsCompact(dv.Payload)
	value, err := dv.Slot.Take(func() (mop.Value, error) {
		return wire.UnmarshalWith(dv.Payload, b.host.reg, b.host.typeCache)
	}, mop.CloneValue)
	if err != nil {
		var missing *wire.MissingFingerprintsError
		if errors.As(err, &missing) {
			b.host.ctr.decodeDeferred.Inc()
			b.stashPending(dv)
			b.host.requestClasses(missing.FPs)
			return
		}
		b.host.dropUndecodable("undecodable-payload") // foreign or corrupt object
		return
	}
	b.host.ctr.events.Inc()
	if compact {
		b.host.ctr.compactEvents.Inc()
	}
	ev := Event{
		Subject:    dv.Subject,
		Value:      value,
		From:       dv.From,
		Guaranteed: dv.Guaranteed,
		TraceID:    dv.TraceID,
		Trace:      dv.Trace,
	}
	b.mu.Lock()
	targets := b.subs.Match(dv.Subject)
	b.mu.Unlock()
	for _, sub := range targets {
		sub.deliver(ev, b.done)
	}
}

// dropUndecodable accounts a delivery a bus gives up on: counted and, with
// the health tier on, recorded under the reason.
func (h *Host) dropUndecodable(why string) {
	h.ctr.undecodableDropped.Inc()
	if h.recorder != nil {
		h.recorder.Record(telemetry.EventDrop, why, 1, 0)
	}
}

func (b *Bus) stashPending(dv daemon.Delivery) {
	if len(b.pending) >= maxPendingDecodes {
		b.host.dropUndecodable("decode-stash-full")
		copy(b.pending, b.pending[1:])
		b.pending = b.pending[:len(b.pending)-1]
	}
	b.pending = append(b.pending, dv)
}

// retryPending re-dispatches stashed deliveries after new class
// definitions were installed; still-unresolved ones re-stash themselves.
func (b *Bus) retryPending() {
	stash := b.pending
	b.pending = nil
	for _, dv := range stash {
		b.dispatch(dv)
	}
}
