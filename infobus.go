// Package infobus is the public facade of this reproduction of "The
// Information Bus — An Architecture for Extensible Distributed Systems"
// (Oki, Pfluegl, Siegel, Skeen; SOSP 1993).
//
// The bus disseminates self-describing data objects by subject:
//
//	seg := infobus.NewSimSegment(infobus.DefaultNetConfig())
//	host, _ := infobus.NewHost(seg, "trader-7", infobus.HostConfig{})
//	bus, _ := host.NewBus("news-monitor")
//
//	sub, _ := bus.Subscribe("news.equity.*")      // anonymous consumption (P4)
//	_ = bus.Publish("news.equity.gmc", story)     // reliable delivery
//	ev := <-sub.C                                  // ev.Value is a mop.Value
//
// Design principles realised here, with the packages that embody them:
//
//	P1 minimal core semantics  — internal/core, internal/reliable
//	P2 self-describing objects — internal/mop, internal/wire
//	P3 dynamic classing        — internal/tdl
//	P4 anonymous communication — internal/subject, internal/discovery
//
// Higher layers: request/reply RMI with discovery (internal/rmi),
// information routers bridging network segments (internal/router), the
// Object Repository adapter over a relational store (internal/repository,
// internal/relstore), feed and terminal adapters (internal/adapter), and
// the trading-floor example services (internal/monitor, internal/keyword).
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// reproduction of the paper's performance appendix.
package infobus

import (
	"infobus/internal/busproto"
	"infobus/internal/core"
	"infobus/internal/discovery"
	"infobus/internal/mop"
	"infobus/internal/netsim"
	"infobus/internal/qledger"
	"infobus/internal/reliable"
	"infobus/internal/rmi"
	"infobus/internal/router"
	"infobus/internal/subject"
	"infobus/internal/tdl"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
)

// Core bus API.
type (
	// Host is one workstation: a transport endpoint plus its daemon.
	Host = core.Host
	// HostConfig tunes a host (reliable protocol, guaranteed-delivery
	// ledger, shared type registry).
	HostConfig = core.HostConfig
	// ReplicationConfig tunes the quorum ledger tier Replicate attaches
	// (replication factor, quorum timeout, replica directory).
	ReplicationConfig = qledger.Config
	// Bus is an application's handle on the Information Bus.
	Bus = core.Bus
	// Event is one received publication. A []byte in its Value and its
	// Trace are views that keep what they view alive (a datagram, a lane's
	// 4 KB chunk of trace hops): copy one that is kept long.
	Event = core.Event
	// Subscription is a live subject subscription.
	Subscription = core.Subscription
)

// Network substrate.
type (
	// NetConfig configures the simulated broadcast Ethernet.
	NetConfig = netsim.Config
	// Segment is a broadcast domain (simulated or UDP loopback).
	Segment = transport.Segment
	// ReliableConfig tunes the reliable-delivery protocol, including the
	// appendix's batching parameter. Its counters are the node's own: a
	// host's go in Host.Metrics() as "reliable.*", a router attachment's
	// as "reliable.<attachment>.*".
	ReliableConfig = reliable.Config
)

// Meta-object protocol (P2).
type (
	// Type is an immutable type descriptor.
	Type = mop.Type
	// Attr is one named, typed attribute.
	Attr = mop.Attr
	// Operation is one operation signature in a type's interface.
	Operation = mop.Operation
	// Param is one operation parameter.
	Param = mop.Param
	// Object is a dynamic instance of a class.
	Object = mop.Object
	// Value is any dynamic value the bus can carry.
	Value = mop.Value
	// List is the dynamic list value.
	List = mop.List
	// Registry maps type names to classes; the run-time type universe.
	Registry = mop.Registry
)

// RMI (request/reply) and discovery.
type (
	// RMIServer serves method invocations for a service subject.
	RMIServer = rmi.Server
	// RMIClient invokes methods on a discovered server.
	RMIClient = rmi.Client
	// RMIServerOptions tune a server (load reporting, standby).
	RMIServerOptions = rmi.ServerOptions
	// RMIDialOptions tune discovery and invocation.
	RMIDialOptions = rmi.DialOptions
	// RMIHandler executes operations of a service object.
	RMIHandler = rmi.Handler
	// DiscoveryOptions tune a "Who's out there?" round.
	DiscoveryOptions = discovery.Options
	// Found is one discovered participant.
	Found = discovery.Found
	// Router bridges bus segments (the WAN information router).
	Router = router.Router
	// RouterAttachment names one bridged segment.
	RouterAttachment = router.Attachment
	// RouterOptions tune a router.
	RouterOptions = router.Options
	// TDL is the interpreted dynamic-classing language (P3).
	TDL = tdl.Interp
)

// Telemetry and self-hosted observability ("_sys.>").
type (
	// TelemetryConfig tunes per-hop tracing, the periodic
	// "_sys.stats.<node>" export, the health tier and the history tier
	// (HostConfig.Telemetry). The host owns its metrics registry
	// (Host.Metrics()); a history tier sends a digest every
	// sysagent.DigestSamples (8) sampler ticks.
	TelemetryConfig = core.TelemetryConfig
	// TraceHop is one timestamped hop in a sampled publication's trace
	// (Event.Trace): the publisher daemon, each router crossed, the
	// consumer daemon.
	TraceHop = busproto.TraceHop
	// Metrics is a host's telemetry registry (Host.Metrics()).
	Metrics = telemetry.Registry
	// MetricValue is one exported metric in a registry snapshot.
	MetricValue = telemetry.Metric
	// HealthConfig enables the health tier at its sampling Interval —
	// slow-consumer, retransmit-storm, dedup-pressure, ledger-backlog and
	// mesh-flap alarms plus the flight recorder (TelemetryConfig.Health,
	// RouterOptions.Health). The thresholds are constants: 1024 queued
	// messages, 500 retransmissions/s and 50 re-advertisements/s.
	HealthConfig = telemetry.HealthConfig
	// AlarmEvent is one alarm raise/clear edge (Host.ActiveAlarms()).
	AlarmEvent = telemetry.AlarmEvent
	// FlightRecorder is the fixed-size ring of notable bus events a
	// health-enabled node keeps (Host.Recorder()).
	FlightRecorder = telemetry.Recorder
	// TraceAssembler groups sampled hop traces (Event.Trace) into
	// per-route latency breakdowns; ibmon -sys uses it.
	TraceAssembler = telemetry.TraceAssembler
	// History is the flight-data recorder: fixed-window time-series rings
	// over a host's rates, depths, and latency percentiles
	// (TelemetryConfig.HistoryInterval, Host.History()).
	History = telemetry.History
	// TopKEntry is one subject family's accounting row in the daemon's
	// bounded per-lane tables (published with every SysHistory object).
	TopKEntry = telemetry.TopKEntry
)

// System subjects. The "_sys.>" space is reserved: user publications are
// rejected with ErrReservedSubject, except SysPingSubject, where any
// application may publish a probe that exporting nodes answer on
// "_sys.pong.<node>".
const (
	SysStatsPrefix = telemetry.StatsSubjectPrefix
	SysPingSubject = telemetry.PingSubject
	SysPongPrefix  = telemetry.PongSubjectPrefix
	// SysAlarmPrefix: health alarm edges publish on
	// "_sys.alarm.<node>.<kind>" when TelemetryConfig.Health is enabled.
	SysAlarmPrefix = telemetry.AlarmSubjectPrefix
	// SysDumpSubject: the second user-publishable system subject; every
	// health-enabled node answers a probe here with its flight-recorder
	// dump on SysDumpedPrefix.<node>.
	SysDumpSubject = telemetry.DumpSubject
	// SysDumpedPrefix: flight-recorder dump answers.
	SysDumpedPrefix = telemetry.DumpedSubjectPrefix
	// SysHistorySubject: the third user-publishable system subject; every
	// history-enabled node answers a probe here with its flight-data window
	// (a SysHistory object) on "_sys.history.<node>", where it also
	// publishes periodic digests unprompted.
	SysHistorySubject = telemetry.HistorySubject
	// SysHistoryPrefix: per-node flight-data publications; subscribe
	// "_sys.history.>" for every node's windows and digests.
	SysHistoryPrefix = telemetry.HistorySubjectPrefix
	// SysTracePrefix: trace sidecars — stage hops known only after a traced
	// envelope departed (the quorum-ack stamp of a replicated guaranteed
	// publish) publish as SysTrace objects on "_sys.trace.<node>"; a
	// TraceAssembler merges them by trace id (AddSidecar).
	SysTracePrefix = telemetry.TraceSubjectPrefix
)

// ErrReservedSubject rejects user publications into "_sys.>".
var ErrReservedSubject = core.ErrReservedSubject

// ErrQuorumTimeout: a guaranteed publication on a replicated host
// (ReplicationConfig.Factor > 0) did not reach majority durability within
// ReplicationConfig.AckTimeout. The entry is still durable locally and
// retransmitted; only the quorum guarantee is unconfirmed.
var ErrQuorumTimeout = qledger.ErrQuorumTimeout

// Fundamental types of the meta-object protocol.
var (
	Bool   = mop.Bool
	Int    = mop.Int
	Float  = mop.Float
	String = mop.String
	Bytes  = mop.Bytes
	Time   = mop.Time
	Any    = mop.Any
)

// DefaultNetConfig returns the paper's testbed network: a lightly loaded
// 10 Mb/s Ethernet.
func DefaultNetConfig() NetConfig { return netsim.DefaultConfig() }

// NewSimSegment creates a simulated broadcast segment.
func NewSimSegment(cfg NetConfig) *transport.SimSegment { return transport.NewSimSegment(cfg) }

// NewUDPSegment creates a segment over real UDP loopback sockets.
func NewUDPSegment() *transport.UDPSegment { return transport.NewUDPSegment() }

// NewStaticUDPSegment creates a UDP segment for multi-process deployments:
// this process listens on listen and broadcasts to the peer addresses.
func NewStaticUDPSegment(listen string, peers []string) *transport.StaticUDPSegment {
	return transport.NewStaticUDPSegment(listen, peers)
}

// NewHost attaches a workstation to a segment.
func NewHost(seg Segment, name string, cfg HostConfig) (*Host, error) {
	return core.NewHost(seg, name, cfg)
}

// Replicate attaches the quorum ledger tier (internal/qledger) to a host,
// before it carries traffic. With Factor > 0 (the host needs a LedgerPath)
// committed guaranteed-delivery batches mirror to Factor peer replicas and
// PublishGuaranteed acknowledges at majority durability; with Dir set the
// host is a replica, and the replicas elect a recovery coordinator that
// replays a dead publisher's pending entries. Host.Close detaches the tier.
func Replicate(h *Host, cfg ReplicationConfig) error {
	_, err := qledger.Attach(h, cfg)
	return err
}

// NewRegistry creates an empty type registry.
func NewRegistry() *Registry { return mop.NewRegistry() }

// NewClass defines a class implementing the named type (P3 from Go code;
// use TDL for run-time definitions from source text).
func NewClass(name string, supers []*Type, attrs []Attr, ops []Operation) (*Type, error) {
	return mop.NewClass(name, supers, attrs, ops)
}

// ListOf returns the list type over an element type.
func ListOf(elem *Type) *Type { return mop.ListOf(elem) }

// NewObject instantiates a class with zero-valued attributes.
func NewObject(t *Type) (*Object, error) { return mop.New(t) }

// Print renders any value via the generic introspective print utility.
func Print(v Value) string { return mop.Sprint(v) }

// Describe renders a type's full interface.
func Describe(t *Type) string { return mop.DescribeString(t) }

// NewTDL creates a TDL interpreter registering classes into reg.
func NewTDL(reg *Registry) *TDL { return tdl.New(reg, nil) }

// Discover performs one "Who's out there?" round for a service subject.
func Discover(bus *Bus, service string, opts DiscoveryOptions) ([]Found, error) {
	return discovery.Discover(bus, service, opts)
}

// Announce answers discovery queries for a service subject.
func Announce(bus *Bus, service string, info func() Value) (*discovery.Announcer, error) {
	return discovery.Announce(bus, service, info)
}

// NewRMIServer serves a service subject with the given interface class and
// handler.
func NewRMIServer(bus *Bus, seg Segment, service string, iface *Type, h RMIHandler, opts RMIServerOptions) (*RMIServer, error) {
	return rmi.NewServer(bus, seg, service, iface, h, opts)
}

// DialRMI discovers servers for a service subject and connects to one.
func DialRMI(bus *Bus, seg Segment, service string, opts RMIDialOptions) (*RMIClient, error) {
	return rmi.Dial(bus, seg, service, opts)
}

// NewRouter bridges two or more segments with subject-aware forwarding.
func NewRouter(opts RouterOptions, atts ...RouterAttachment) (*Router, error) {
	return router.New(opts, atts...)
}

// ParseSubject validates a concrete subject name.
func ParseSubject(s string) (subject.Subject, error) { return subject.Parse(s) }

// ParsePattern validates a subscription pattern (wildcards allowed).
func ParsePattern(s string) (subject.Pattern, error) { return subject.ParsePattern(s) }
