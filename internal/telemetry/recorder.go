package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Flight recorder: a fixed-size ring of recent notable events (alarm
// edges, drops, retransmit bursts, peer restarts, sampled trace
// completions). The ring is preallocated and Record never allocates, so
// the instrumented paths — some of them failure paths that fire exactly
// when the process is under pressure — pay one short mutex hold and a few
// stores. The ring is dumped as text on demand (the "_sys.dump" probe,
// busd's debug console) so a post-mortem works after the interesting
// window has scrolled out of any log.

// EventKind classifies flight-recorder events.
type EventKind uint8

// Flight-recorder event kinds.
const (
	EventAlarmRaise EventKind = iota + 1 // an alarm raise edge; A=value B=threshold
	EventAlarmClear                      // an alarm clear edge; A=value B=threshold
	EventDrop                            // messages given up on (gap skip, corrupt frame); A=count
	EventRetransmit                      // a retransmission burst served; A=messages
	EventRestart                         // a peer came back with a new epoch
	EventRecover                         // ledger recovery at open; A=entries replayed
	EventTrace                           // a sampled traced delivery completed; A=end-to-end ns, B=hops
	EventDump                            // a _sys.dump probe was answered
	EventRepl                            // a replication-tier event (quorum timeout, recovery); A=context
	EventMesh                            // a mesh topology change (re-election, port flip); A=cumulative count
	EventInterest                        // a host's advertised interest went from exact to aggregated; A=patterns B=cap
)

func (k EventKind) String() string {
	switch k {
	case EventAlarmRaise:
		return "alarm-raise"
	case EventAlarmClear:
		return "alarm-clear"
	case EventDrop:
		return "drop"
	case EventRetransmit:
		return "retransmit"
	case EventRestart:
		return "peer-restart"
	case EventRecover:
		return "recover"
	case EventTrace:
		return "trace"
	case EventDump:
		return "dump"
	case EventRepl:
		return "repl"
	case EventMesh:
		return "mesh"
	case EventInterest:
		return "interest"
	default:
		return "event"
	}
}

// Event is one recorded occurrence. Target must be a string that already
// exists at the call site (a peer address, a precomputed watch label):
// Record stores the header only, so passing a freshly concatenated string
// would defeat the no-allocation contract.
type Event struct {
	At     int64 // unix nanoseconds
	Kind   EventKind
	Target string
	A, B   int64 // kind-specific values (see the kind constants)
}

// Recorder is the per-process flight recorder. Safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	ring  []Event
	total uint64 // events ever recorded; total-len(ring) have been overwritten
}

// NewRecorder creates a recorder holding the last size events (default
// 256 if size <= 0).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = 256
	}
	return &Recorder{ring: make([]Event, 0, size)}
}

// Record appends one event, overwriting the oldest once the ring is full.
// It never allocates.
func (r *Recorder) Record(kind EventKind, target string, a, b int64) {
	at := time.Now().UnixNano()
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = r.ring[:len(r.ring)+1]
	}
	r.ring[r.total%uint64(cap(r.ring))] = Event{At: at, Kind: kind, Target: target, A: a, B: b}
	r.total++
	r.mu.Unlock()
}

// Total returns the number of events ever recorded (including ones the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.ring)
	out := make([]Event, 0, n)
	start := r.total - uint64(n)
	for i := 0; i < n; i++ {
		out = append(out, r.ring[(start+uint64(i))%uint64(cap(r.ring))])
	}
	return out
}

// Dump renders the retained events as text, oldest first, one line per
// event. The header states how many events have been lost to overwrite so
// a reader knows whether the window is complete.
func (r *Recorder) Dump() string {
	events := r.Events()
	total := r.Total()
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %d events retained, %d recorded\n",
		len(events), total)
	for _, ev := range events {
		at := time.Unix(0, ev.At).UTC().Format("15:04:05.000000")
		fmt.Fprintf(&b, "  %s %-11s %s", at, ev.Kind, ev.Target)
		switch ev.Kind {
		case EventAlarmRaise, EventAlarmClear:
			fmt.Fprintf(&b, " value=%d threshold=%d", ev.A, ev.B)
		case EventTrace:
			fmt.Fprintf(&b, " e2e=%s hops=%d", time.Duration(ev.A), ev.B)
		case EventDrop, EventRetransmit, EventRecover:
			fmt.Fprintf(&b, " n=%d", ev.A)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
