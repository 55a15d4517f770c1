// Package busproto defines the bus-level envelope format shared by host
// daemons (internal/daemon) and information routers (internal/router): a
// subject, an opaque payload (the wire-marshalled data object), and the
// metadata the distributed machinery needs — hop counts for forwarding-loop
// prevention, origin tokens for routing guaranteed-delivery
// acknowledgements back across bridged segments, aggregate interest
// advertisements that routers use to forward only wanted traffic (§3.1),
// and optional per-hop traces (trace id + hop timestamps) for the
// telemetry subsystem — carried by dedicated envelope kinds so untraced
// traffic pays zero extra wire bytes.
package busproto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Envelope kinds carried inside reliable messages.
const (
	KindPublish    = 1 // ordinary reliable publication
	KindGuaranteed = 2 // guaranteed publication (expects acknowledgement)
	KindGuarAck    = 3 // guaranteed-delivery acknowledgement
	KindInterest   = 4 // aggregate subscription advertisement (for routers)
	// Traced variants of the two data kinds: identical semantics plus a
	// trace id and per-hop timestamp list for the telemetry subsystem.
	// Untraced publications keep the legacy kinds byte-for-byte, so
	// tracing disabled costs zero wire bytes.
	KindPublishTraced    = 5
	KindGuaranteedTraced = 6
	// Compact variants: the payload is a wire.VersionCompact dictionary
	// message (fingerprint type table) rather than a fully self-describing
	// one. Envelope layout is byte-identical to the corresponding plain
	// kind — only the kind byte differs — so legacy encodings stay golden
	// and routers forward both without caring. Receivers that cannot
	// resolve a fingerprint NAK on _sys.class.req (see internal/core).
	KindPublishCompact          = 7
	KindGuaranteedCompact       = 8
	KindPublishCompactTraced    = 9
	KindGuaranteedCompactTraced = 10
)

// DataKind returns the publication kind byte for the given combination of
// delivery guarantee, payload compaction, and tracing.
func DataKind(guaranteed, compact, traced bool) byte {
	switch {
	case guaranteed && compact && traced:
		return KindGuaranteedCompactTraced
	case guaranteed && compact:
		return KindGuaranteedCompact
	case guaranteed && traced:
		return KindGuaranteedTraced
	case guaranteed:
		return KindGuaranteed
	case compact && traced:
		return KindPublishCompactTraced
	case compact:
		return KindPublishCompact
	case traced:
		return KindPublishTraced
	default:
		return KindPublish
	}
}

// MaxTraceHops bounds the per-hop trace list: publisher daemon + the
// guaranteed-path stage hops (lane/ledger/quorum) + a dozen routers +
// consumer daemon, with slack for future hop kinds. A traced envelope whose
// list is full is forwarded without appending (the envelope's hop budget is
// the routers' own: mesh.MaxHops).
const MaxTraceHops = 24

// Trace hop kinds. HopNode is the original network hop (a daemon or router
// touched the message); the rest are intra-node stages of the guaranteed
// path, stamped by internal/daemon, internal/ledger and internal/qledger so
// the trace assembler can render a publish→commit→quorum→deliver timeline.
const (
	HopNode           = 0 // publisher/router/consumer network hop
	HopLaneEnqueue    = 1 // delivery lane accepted the message (daemon routeLocal)
	HopLanePop        = 2 // client queue popped the delivery (daemon)
	HopLedgerStage    = 3 // record staged into the group-commit batch (ledger Append)
	HopGroupCommit    = 4 // batch write completed (ledger committer)
	HopFsync          = 5 // batch fsync completed (ledger committer, Sync mode)
	HopReplicaChunk   = 6 // committed batch mirrored as replication chunk (qledger)
	HopQuorumAck      = 7 // write quorum of replica acks reached (qledger)
	HopRecoveryReplay = 8 // entry re-published by the recovery coordinator (qledger)
)

// hopKindNames is the one hop-kind vocabulary, indexed by kind: HopKindName
// and HopKindByName both read it, so a kind added here prints and parses.
var hopKindNames = [...]string{
	HopNode:           "node",
	HopLaneEnqueue:    "lane-enq",
	HopLanePop:        "lane-pop",
	HopLedgerStage:    "ledger-stage",
	HopGroupCommit:    "group-commit",
	HopFsync:          "fsync",
	HopReplicaChunk:   "repl-chunk",
	HopQuorumAck:      "quorum-ack",
	HopRecoveryReplay: "recovery-replay",
}

// HopKindName renders a hop kind for monitors; unknown kinds print as node
// hops so newer producers stay readable on older monitors.
func HopKindName(k byte) string {
	if int(k) < len(hopKindNames) {
		return hopKindNames[k]
	}
	return hopKindNames[HopNode]
}

// HopKindByName inverts HopKindName; unknown names become HopNode, so a
// newer node's stage kinds still merge positionally into a trace.
func HopKindByName(name string) byte {
	for k, n := range hopKindNames {
		if n == name {
			return byte(k)
		}
	}
	return HopNode
}

// TraceHop is one recorded hop of a traced publication: which node touched
// the message, what stage it was (a Hop* kind), and when (unix nanoseconds
// of that node's clock; on the simulated network all nodes share the host
// clock, so per-hop deltas are directly meaningful).
type TraceHop struct {
	Node string
	Kind byte
	At   int64
}

// Envelope is the bus-level message format: a subject plus an opaque
// payload (the wire-marshalled data object).
type Envelope struct {
	Kind     byte
	Hops     uint8  // KindPublish, KindGuaranteed
	ID       uint64 // KindGuaranteed, KindGuarAck: ledger id at the origin
	Origin   string // KindGuaranteed, KindGuarAck: origin daemon identity
	Subject  string
	Payload  []byte
	Patterns []string // KindInterest
	// Tracing (KindPublishTraced, KindGuaranteedTraced only).
	TraceID uint64
	Trace   []TraceHop
}

// Base returns the untraced kind corresponding to e.Kind: traced data
// kinds map to their plain counterpart, every other kind maps to itself.
// Dispatch on Base so tracing stays invisible to delivery semantics.
func (e Envelope) Base() byte { return kindBase(e.Kind) }

// Traced reports whether the envelope carries a hop trace.
func (e Envelope) Traced() bool { return kindTraced(e.Kind) }

// Compact reports whether the envelope's payload uses the compact
// dictionary wire format.
func (e Envelope) Compact() bool { return kindCompact(e.Kind) }

func kindBase(k byte) byte {
	switch k {
	case KindPublishTraced, KindPublishCompact, KindPublishCompactTraced:
		return KindPublish
	case KindGuaranteedTraced, KindGuaranteedCompact, KindGuaranteedCompactTraced:
		return KindGuaranteed
	default:
		return k
	}
}

func kindTraced(k byte) bool {
	switch k {
	case KindPublishTraced, KindGuaranteedTraced,
		KindPublishCompactTraced, KindGuaranteedCompactTraced:
		return true
	}
	return false
}

func kindCompact(k byte) bool {
	switch k {
	case KindPublishCompact, KindGuaranteedCompact,
		KindPublishCompactTraced, KindGuaranteedCompactTraced:
		return true
	}
	return false
}

// AppendHop records a network hop on a traced envelope, dropping the
// record (not the message) when the trace list is already at MaxTraceHops.
func (e *Envelope) AppendHop(node string, at int64) {
	e.AppendStageHop(HopNode, node, at)
}

// AppendStageHop records a hop of an explicit kind (a guaranteed-path
// stage or a network hop) under the same cap-and-drop discipline.
func (e *Envelope) AppendStageHop(kind byte, node string, at int64) {
	if !e.Traced() || len(e.Trace) >= MaxTraceHops {
		return
	}
	// Copy-on-append: traced envelopes fan out through routers, and the
	// decoded Trace slice may be shared. One allocation: the copy is made
	// at its final length and the new hop written in place.
	n := len(e.Trace)
	trace := make([]TraceHop, n+1)
	copy(trace, e.Trace)
	trace[n] = TraceHop{Node: node, Kind: kind, At: at}
	e.Trace = trace
}

// Envelope errors.
var (
	ErrEnvelopeCorrupt = errors.New("busproto: corrupt envelope")
)

const (
	maxSubjectLen  = 1 << 10
	maxOriginLen   = 256
	maxPatternsLen = 1 << 16
	maxNodeLen     = 256
)

// Encode renders an envelope into a fresh buffer.
func Encode(e Envelope) []byte { return AppendEncode(nil, e) }

// AppendEncode appends the envelope's encoding to b and returns the
// extended slice. Hot-path callers (daemon publish, router forward) pass a
// pooled buffer so steady-state encoding allocates nothing; the result is
// byte-identical to Encode.
func AppendEncode(b []byte, e Envelope) []byte {
	b = append(b, e.Kind)
	switch e.Kind {
	case KindPublish, KindPublishCompact:
		b = append(b, e.Hops)
		b = appendString(b, e.Subject)
		b = append(b, e.Payload...)
	case KindPublishTraced, KindPublishCompactTraced:
		b = append(b, e.Hops)
		b = appendTrace(b, e)
		b = appendString(b, e.Subject)
		b = append(b, e.Payload...)
	case KindGuaranteed, KindGuaranteedCompact:
		b = append(b, e.Hops)
		b = binary.AppendUvarint(b, e.ID)
		b = appendString(b, e.Origin)
		b = appendString(b, e.Subject)
		b = append(b, e.Payload...)
	case KindGuaranteedTraced, KindGuaranteedCompactTraced:
		b = append(b, e.Hops)
		b = binary.AppendUvarint(b, e.ID)
		b = appendString(b, e.Origin)
		b = appendTrace(b, e)
		b = appendString(b, e.Subject)
		b = append(b, e.Payload...)
	case KindGuarAck:
		b = binary.AppendUvarint(b, e.ID)
		b = appendString(b, e.Origin)
	case KindInterest:
		b = binary.AppendUvarint(b, uint64(len(e.Patterns)))
		for _, p := range e.Patterns {
			b = appendString(b, p)
		}
	}
	return b
}

// appendString appends a length-prefixed string or byte view.
func appendString[S string | []byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendTrace(b []byte, e Envelope) []byte {
	b = binary.AppendUvarint(b, e.TraceID)
	trace := e.Trace
	if len(trace) > MaxTraceHops {
		trace = trace[:MaxTraceHops]
	}
	b = binary.AppendUvarint(b, uint64(len(trace)))
	for _, h := range trace {
		b = append(b, h.Kind)
		b = appendString(b, h.Node)
		b = binary.AppendVarint(b, h.At)
	}
	return b
}

// Header is a lazy, zero-copy view of an envelope: the fields a forwarding
// engine dispatches on (kind, hops, origin/id, subject), the payload tail,
// and the trace as a raw validated region — all slices aliasing the encoded
// frame. Nothing is materialized: no trace slice, no pattern slice, no
// string copies. The views are valid only while the frame's backing array
// is; callers that retain a field beyond the frame's lifetime must copy it.
type Header struct {
	Kind      byte
	Hops      uint8  // data kinds only
	TraceHops uint8  // traced kinds only: entries in Trace (<= MaxTraceHops)
	ID        uint64 // guaranteed kinds and KindGuarAck
	TraceID   uint64 // traced kinds only
	Origin    []byte // guaranteed kinds and KindGuarAck; aliases the frame
	Trace     []byte // traced kinds only: the encoded hop list; aliases the frame
	Subject   []byte // data kinds only; aliases the frame
	Payload   []byte // data kinds only; aliases the frame
}

// Base is Envelope.Base for a peeked header.
func (h Header) Base() byte { return kindBase(h.Kind) }

// Traced is Envelope.Traced for a peeked header.
func (h Header) Traced() bool { return kindTraced(h.Kind) }

// Compact is Envelope.Compact for a peeked header.
func (h Header) Compact() bool { return kindCompact(h.Kind) }

type envReader struct {
	data []byte
	pos  int
}

// uvarint accepts only the minimal encoding of a value (the one
// AppendEncode writes): a multi-byte varint ending in a zero group is
// rejected. Every other field of the format already has a single encoding,
// so an accepted frame re-encodes to exactly itself — which is what lets
// AppendForward copy regions of the ingress frame instead of re-encoding
// them, and still emit the bytes Decode → AppendEncode would.
func (r *envReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 || (n > 1 && r.data[r.pos+n-1] == 0) {
		return 0, ErrEnvelopeCorrupt
	}
	r.pos += n
	return v, nil
}

// varint is the zigzag decoding of binary.Varint over the minimal-only
// uvarint.
func (r *envReader) varint() (int64, error) {
	ux, err := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

func (r *envReader) byteVal() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, ErrEnvelopeCorrupt
	}
	c := r.data[r.pos]
	r.pos++
	return c, nil
}

// view reads a length-prefixed byte string as a slice aliasing the frame.
func (r *envReader) view(maxLen int) ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(maxLen) || r.pos+int(n) > len(r.data) {
		return nil, ErrEnvelopeCorrupt
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// hop reads one trace-list entry.
func (r *envReader) hop() (kind byte, node []byte, at int64, err error) {
	if kind, err = r.byteVal(); err != nil {
		return
	}
	if node, err = r.view(maxNodeLen); err != nil {
		return
	}
	at, err = r.varint()
	return
}

// trace reads a trace id plus a capped hop list into h.
func (r *envReader) trace(h *Header) error {
	var err error
	if h.TraceID, err = r.uvarint(); err != nil {
		return err
	}
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count > MaxTraceHops {
		return ErrEnvelopeCorrupt
	}
	start := r.pos
	for i := uint64(0); i < count; i++ {
		if _, _, _, err := r.hop(); err != nil {
			return err
		}
	}
	h.TraceHops, h.Trace = uint8(count), r.data[start:r.pos]
	return nil
}

// Peek is the envelope parser: it validates every length, cap and list of
// an encoded envelope and returns the Header views aliasing data, without
// materializing anything. Decode is Peek plus materialization, so the two
// accept and reject exactly the same frames.
func Peek(data []byte) (h Header, err error) {
	if len(data) == 0 {
		return Header{}, ErrEnvelopeCorrupt
	}
	h.Kind = data[0]
	r := &envReader{data: data, pos: 1}
	switch base := h.Base(); base {
	case KindPublish, KindGuaranteed:
		if h.Hops, err = r.byteVal(); err != nil {
			return Header{}, err
		}
		if base == KindGuaranteed {
			if h.ID, err = r.uvarint(); err != nil {
				return Header{}, err
			}
			if h.Origin, err = r.view(maxOriginLen); err != nil {
				return Header{}, err
			}
		}
		if h.Traced() {
			if err = r.trace(&h); err != nil {
				return Header{}, err
			}
		}
		if h.Subject, err = r.view(maxSubjectLen); err != nil {
			return Header{}, err
		}
		h.Payload = data[r.pos:]
	case KindGuarAck:
		if h.ID, err = r.uvarint(); err != nil {
			return Header{}, err
		}
		if h.Origin, err = r.view(maxOriginLen); err != nil {
			return Header{}, err
		}
		if r.pos != len(data) {
			return Header{}, ErrEnvelopeCorrupt
		}
	case KindInterest:
		count, err := r.uvarint()
		if err != nil {
			return Header{}, err
		}
		if count > maxPatternsLen {
			return Header{}, ErrEnvelopeCorrupt
		}
		for i := uint64(0); i < count; i++ {
			if _, err := r.view(maxSubjectLen); err != nil {
				return Header{}, err
			}
		}
		if r.pos != len(data) {
			return Header{}, ErrEnvelopeCorrupt
		}
	default:
		return Header{}, fmt.Errorf("kind %d: %w", h.Kind, ErrEnvelopeCorrupt)
	}
	return h, nil
}

// Decode parses an envelope into owned fields: Peek, then strings and
// slices materialized from the header's views. Payload still aliases data.
func Decode(data []byte) (Envelope, error) {
	h, err := Peek(data)
	if err != nil {
		return Envelope{}, err
	}
	e := Envelope{
		Kind: h.Kind, Hops: h.Hops, ID: h.ID, Origin: string(h.Origin),
		Subject: string(h.Subject), Payload: h.Payload, TraceID: h.TraceID,
	}
	// Peek validated both lists entry by entry, so re-reading them cannot
	// fail.
	r := &envReader{data: h.Trace}
	for i := uint8(0); i < h.TraceHops; i++ {
		kind, node, at, _ := r.hop()
		e.Trace = append(e.Trace, TraceHop{Node: string(node), Kind: kind, At: at})
	}
	if h.Kind == KindInterest {
		r = &envReader{data: data, pos: 1}
		count, _ := r.uvarint()
		for i := uint64(0); i < count; i++ {
			p, _ := r.view(maxSubjectLen)
			e.Patterns = append(e.Patterns, string(p))
		}
	}
	return e, nil
}

// AppendForward appends to dst the frame a router emits for the data
// envelope h was peeked from: the same envelope with its hops byte set to
// hops, its subject replaced when subject is non-empty, and — on a traced
// kind, when hopNode is non-empty — one HopNode entry (hopNode, at) added to
// the trace, dropped (the entry, not the message) when the list is already
// at MaxTraceHops. Origin, existing hop list and payload are copied from
// h's views of the ingress frame, once; the result is byte-identical to
// Decode → edit → AppendEncode (FuzzAppendForward), and dst must not alias
// that frame.
func AppendForward(dst []byte, h Header, hops uint8, subject, hopNode string, at int64) []byte {
	dst = append(dst, h.Kind, hops)
	if h.Base() == KindGuaranteed {
		dst = binary.AppendUvarint(dst, h.ID)
		dst = appendString(dst, h.Origin)
	}
	if h.Traced() {
		addHop := hopNode != "" && h.TraceHops < MaxTraceHops
		n := uint64(h.TraceHops)
		if addHop {
			n++
		}
		dst = binary.AppendUvarint(dst, h.TraceID)
		dst = binary.AppendUvarint(dst, n)
		dst = append(dst, h.Trace...)
		if addHop {
			dst = append(dst, HopNode)
			dst = appendString(dst, hopNode)
			dst = binary.AppendVarint(dst, at)
		}
	}
	if subject != "" {
		dst = appendString(dst, subject)
	} else {
		dst = appendString(dst, h.Subject)
	}
	return append(dst, h.Payload...)
}
