package telemetry

import (
	"strings"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/mop"
)

// System subject conventions. The "_sys." prefix is reserved by the bus
// (internal/subject, internal/core): user publications under it are
// rejected, so an anonymous subscriber can trust that "_sys.stats.<node>"
// objects really came from that node's bus machinery.
const (
	// StatsSubjectPrefix is the subject prefix under which every node
	// periodically publishes its SysStats object; the final element is the
	// sanitised node name.
	StatsSubjectPrefix = "_sys.stats"
	// PingSubject is the probe subject: any application may publish here
	// (the one user-publishable system subject), and every exporting node
	// answers with a SysPong on PongSubjectPrefix.<node> plus a fresh
	// stats publication.
	PingSubject = "_sys.ping"
	// PongSubjectPrefix is the subject prefix for ping answers.
	PongSubjectPrefix = "_sys.pong"
	// AlarmSubjectPrefix is the subject prefix for health alarm edges:
	// a raise or clear is published on "_sys.alarm.<node>.<kind>", so a
	// monitor can subscribe to one node ("_sys.alarm.host3.>"), one kind
	// ("_sys.alarm.*.slow-consumer"), or everything ("_sys.alarm.>").
	AlarmSubjectPrefix = "_sys.alarm"
	// DumpSubject is the flight-recorder probe: any application may
	// publish here (like PingSubject, it is user-publishable), and every
	// health-enabled node answers with a SysDump on DumpedSubjectPrefix.<node>.
	DumpSubject = "_sys.dump"
	// DumpedSubjectPrefix is the subject prefix for flight-recorder dumps.
	DumpedSubjectPrefix = "_sys.dumped"
	// ClassReqSubject is the class-definition NAK subject of the compact
	// dictionary format: a receiver holding a compact publication whose
	// class fingerprints it cannot resolve publishes the fingerprint list
	// here, and any holder of the definitions (the origin host, or a
	// router that saw them cross its segment) answers on ClassDefSubject.
	ClassReqSubject = "_sys.class.req"
	// ClassDefSubject carries class-definition replies: a compact
	// wire message whose def table holds the requested definitions
	// (wire.MarshalDefs). Replies are broadcast — definitions are
	// content-addressed, so every listener may harvest them.
	ClassDefSubject = "_sys.class.def"
	// TraceSubjectPrefix carries trace sidecars: per-hop records that are
	// known only after the traced envelope already left the node (the
	// quorum-ack stamp of a replicated guaranteed publish) are published
	// as a SysTrace on "_sys.trace.<node>", and monitors merge them into
	// the assembled route by trace id.
	TraceSubjectPrefix = "_sys.trace"
	// HistorySubject is the flight-data probe subject: any application may
	// publish here (user-publishable, like PingSubject and DumpSubject),
	// and every history-enabled node answers with its full SysHistory
	// window on HistoryNodeSubject. Periodic digests (a short tail of the
	// same series) are published on the same per-node subject unprompted.
	HistorySubject = "_sys.history"
	// HistorySubjectPrefix prefixes the per-node history subjects:
	// "_sys.history.<node>" carries both probe answers and periodic
	// digests. Subscribe "_sys.history.>" for all nodes' flight data.
	HistorySubjectPrefix = "_sys.history"
)

// SanitizeNode turns an arbitrary node name into a single valid subject
// element: separator, wildcard, and unprintable characters become '-'.
// Host names like "127.0.0.1:7001" must be publishable as the final
// element of "_sys.stats.<node>".
func SanitizeNode(name string) string {
	var b strings.Builder
	for _, r := range name {
		if r < 0x21 || r == 0x7f || r == '.' || r == '*' || r == '>' {
			b.WriteByte('-')
			continue
		}
		b.WriteRune(r)
	}
	if b.Len() == 0 {
		return "node"
	}
	return b.String()
}

// StatsSubject returns the stats subject for a (sanitised) node name.
func StatsSubject(node string) string { return StatsSubjectPrefix + "." + node }

// PongSubject returns the ping-answer subject for a (sanitised) node name.
func PongSubject(node string) string { return PongSubjectPrefix + "." + node }

// AlarmSubject returns the alarm subject for a (sanitised) node name and
// an alarm kind ("slow-consumer"). Kinds contain only hyphen-separated
// lowercase words, which are valid subject elements.
func AlarmSubject(node, kind string) string {
	return AlarmSubjectPrefix + "." + node + "." + kind
}

// DumpedSubject returns the flight-recorder dump subject for a
// (sanitised) node name.
func DumpedSubject(node string) string { return DumpedSubjectPrefix + "." + node }

// TraceSubject returns the trace-sidecar subject for a (sanitised) node
// name.
func TraceSubject(node string) string { return TraceSubjectPrefix + "." + node }

// HistoryNodeSubject returns the flight-data subject for a (sanitised)
// node name.
func HistoryNodeSubject(node string) string { return HistorySubjectPrefix + "." + node }

// Schema is the "_sys" class family. A kind is stated once, as a tagged Go
// struct; mop.Bind derives its class, its object builder and its by-name
// reader from that declaration, so adding an attribute is adding a tagged
// field. The kinds a node publishes on a subject of its own are named; the
// rest travel inside them. A kind that lists another is bound after it.
// Monitors never need Schema.Define: the classes travel self-describing
// with every "_sys.>" publication (P2).
var Schema = new(mop.Schema)

var (
	_          = mop.Bind[Metric](Schema, "SysMetric")
	SysStats   = mop.Bind[Stats](Schema, "SysStats")
	SysPong    = mop.Bind[Pong](Schema, "SysPong")
	SysAlarm   = mop.Bind[AlarmEvent](Schema, "SysAlarm")
	SysDump    = mop.Bind[Dump](Schema, "SysDump")
	_          = mop.Bind[TraceHop](Schema, "SysTraceHop")
	SysTrace   = mop.Bind[Trace](Schema, "SysTrace")
	_          = mop.Bind[Sample](Schema, "SysSample")
	_          = mop.Bind[SeriesSnapshot](Schema, "SysSeries")
	_          = mop.Bind[TopKEntry](Schema, "SysFamily")
	SysHistory = mop.Bind[HistorySnapshot](Schema, "SysHistory")
)

// Stats is one node's registry snapshot, published on StatsSubject(node).
type Stats struct {
	Node    string        `mop:"node"`
	At      time.Time     `mop:"at"`
	Uptime  time.Duration `mop:"uptime_ns"`
	Metrics []Metric      `mop:"metrics"`
}

// Pong answers a PingSubject probe on PongSubject(node), echoing its nonce.
type Pong struct {
	Node  string    `mop:"node"`
	At    time.Time `mop:"at"`
	Nonce int64     `mop:"nonce"`
}

// Dump answers a DumpSubject probe on DumpedSubject(node): how many events
// the flight recorder has seen, and its ring and the active alarms as text.
type Dump struct {
	Node   string    `mop:"node"`
	At     time.Time `mop:"at"`
	Events int64     `mop:"events"`
	Text   string    `mop:"text"`
}

// TraceHop is a busproto.TraceHop as a sidecar carries it: the kind by name
// (busproto.HopKindName), so a monitor reads hops of kinds newer than itself.
type TraceHop struct {
	Kind string `mop:"kind"`
	Node string `mop:"node"`
	At   int64  `mop:"at"`
}

// Trace is a trace sidecar, published on TraceSubject(node): stage hops of an
// already-departed traced envelope (the quorum-ack stamp, typically), keyed
// by the trace id so monitors can merge them into the delivered trace.
type Trace struct {
	Node    string     `mop:"node"`
	TraceID uint64     `mop:"trace_id"`
	Hops    []TraceHop `mop:"hops"`
}

// NewTrace states busproto hops as a sidecar.
func NewTrace(node string, traceID uint64, hops []busproto.TraceHop) Trace {
	t := Trace{Node: node, TraceID: traceID, Hops: make([]TraceHop, len(hops))}
	for i, h := range hops {
		t.Hops[i] = TraceHop{Kind: busproto.HopKindName(h.Kind), Node: h.Node, At: h.At}
	}
	return t
}

// BusHops returns the sidecar's hops as busproto states them. Unknown kind
// names fold to HopNode (busproto.HopKindByName).
func (t Trace) BusHops() []busproto.TraceHop {
	hops := make([]busproto.TraceHop, len(t.Hops))
	for i, h := range t.Hops {
		hops[i] = busproto.TraceHop{Kind: busproto.HopKindByName(h.Kind), Node: h.Node, At: h.At}
	}
	return hops
}
