package busproto

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	cases := []Envelope{
		{Kind: KindPublish, Subject: "a.b", Payload: []byte("data")},
		{Kind: KindPublish, Hops: 3, Subject: "x", Payload: nil},
		{Kind: KindGuaranteed, Hops: 1, ID: 42, Origin: "sim:0#abc", Subject: "g.s", Payload: []byte{1, 2}},
		{Kind: KindGuarAck, ID: 7, Origin: "sim:9#def"},
		{Kind: KindInterest, Patterns: []string{"a.>", "b.*", "c"}},
		{Kind: KindInterest, Patterns: nil},
	}
	for _, e := range cases {
		enc := Encode(e)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", e, err)
		}
		if got.Kind != e.Kind || got.ID != e.ID || got.Subject != e.Subject ||
			got.Origin != e.Origin || got.Hops != e.Hops ||
			string(got.Payload) != string(e.Payload) || len(got.Patterns) != len(e.Patterns) {
			t.Errorf("round trip %+v -> %+v", e, got)
		}
		for i := range e.Patterns {
			if got.Patterns[i] != e.Patterns[i] {
				t.Errorf("pattern %d: %q vs %q", i, got.Patterns[i], e.Patterns[i])
			}
		}
	}
}

func TestTracedEnvelopeRoundTrip(t *testing.T) {
	cases := []Envelope{
		{Kind: KindPublishTraced, Subject: "a.b", Payload: []byte("data"), TraceID: 77},
		{Kind: KindPublishTraced, Hops: 2, Subject: "x", TraceID: 1,
			Trace: []TraceHop{{Node: "sim:0", At: 123}, {Node: "router:r:east", At: -4}}},
		{Kind: KindGuaranteedTraced, Hops: 1, ID: 42, Origin: "sim:0#abc", Subject: "g.s",
			Payload: []byte{1, 2}, TraceID: 9,
			Trace: []TraceHop{{Node: "sim:0", At: 1690000000000000000}}},
		{Kind: KindGuaranteedTraced, ID: 7, Origin: "o", Subject: "g.k", TraceID: 11,
			Trace: []TraceHop{
				{Node: "sim:0", Kind: HopNode, At: 10},
				{Node: "sim:0", Kind: HopLedgerStage, At: 11},
				{Node: "sim:0", Kind: HopGroupCommit, At: 15},
				{Node: "sim:0", Kind: HopFsync, At: 17},
				{Node: "sim:0", Kind: HopReplicaChunk, At: 18},
				{Node: "sim:0", Kind: HopQuorumAck, At: 30},
				{Node: "sim:1", Kind: HopLaneEnqueue, At: 31},
				{Node: "sim:1", Kind: HopLanePop, At: 32},
				{Node: "sim:1", Kind: HopRecoveryReplay, At: 33},
				{Node: "sim:1", Kind: 200, At: 34}, // unknown kinds survive the wire
			}},
	}
	for _, e := range cases {
		got, err := Decode(Encode(e))
		if err != nil {
			t.Fatalf("decode(%+v): %v", e, err)
		}
		if got.Kind != e.Kind || got.ID != e.ID || got.Subject != e.Subject ||
			got.Origin != e.Origin || got.Hops != e.Hops || got.TraceID != e.TraceID ||
			string(got.Payload) != string(e.Payload) || len(got.Trace) != len(e.Trace) {
			t.Errorf("round trip %+v -> %+v", e, got)
		}
		for i := range e.Trace {
			if got.Trace[i] != e.Trace[i] {
				t.Errorf("hop %d: %+v vs %+v", i, got.Trace[i], e.Trace[i])
			}
		}
	}
}

func TestTracedHelpers(t *testing.T) {
	e := Envelope{Kind: KindPublishTraced, Subject: "s"}
	if e.Base() != KindPublish || !e.Traced() {
		t.Fatalf("Base/Traced on traced publish: %d %t", e.Base(), e.Traced())
	}
	g := Envelope{Kind: KindGuaranteedTraced}
	if g.Base() != KindGuaranteed {
		t.Fatalf("Base on traced guaranteed: %d", g.Base())
	}
	p := Envelope{Kind: KindPublish}
	if p.Base() != KindPublish || p.Traced() {
		t.Fatal("plain publish must be its own base and untraced")
	}
	p.AppendStageHop(HopNode, "n", 1)
	if p.Trace != nil {
		t.Fatal("AppendStageHop on untraced envelope must be a no-op")
	}
	for i := 0; i < MaxTraceHops+5; i++ {
		e.AppendStageHop(HopNode, "n", int64(i))
	}
	if len(e.Trace) != MaxTraceHops {
		t.Fatalf("trace grew to %d, cap is %d", len(e.Trace), MaxTraceHops)
	}
	s := Envelope{Kind: KindGuaranteedTraced}
	s.AppendStageHop(HopGroupCommit, "n", 5)
	s.AppendStageHop(HopNode, "m", 6)
	if s.Trace[0].Kind != HopGroupCommit || s.Trace[1].Kind != HopNode {
		t.Fatalf("stage hop kinds: %+v", s.Trace)
	}
	for _, k := range []byte{HopLaneEnqueue, HopLanePop, HopLedgerStage, HopGroupCommit,
		HopFsync, HopReplicaChunk, HopQuorumAck, HopRecoveryReplay} {
		if HopKindName(k) == "node" {
			t.Errorf("HopKindName(%d) fell through to node", k)
		}
	}
	// One table, both directions: every kind it names parses back to itself
	// (a kind added to the table is covered without touching this loop).
	for k := range hopKindNames {
		if name := HopKindName(byte(k)); name == "" || HopKindByName(name) != byte(k) {
			t.Errorf("HopKindByName(HopKindName(%d) = %q) = %d", k, name, HopKindByName(name))
		}
	}
	if HopKindName(HopNode) != "node" || HopKindName(99) != "node" {
		t.Error("HopKindName default must be node")
	}
	if HopKindByName("a-kind-from-the-future") != HopNode || HopKindByName("") != HopNode {
		t.Error("HopKindByName default must be HopNode")
	}
	// AppendStageHop must not alias a shared slice (router fan-out).
	shared := Envelope{Kind: KindPublishTraced, Trace: make([]TraceHop, 1, 8)}
	a, b := shared, shared
	a.AppendStageHop(HopNode, "a", 1)
	b.AppendStageHop(HopNode, "b", 2)
	if a.Trace[1].Node != "a" || b.Trace[1].Node != "b" {
		t.Fatalf("AppendStageHop aliased the shared trace: %+v vs %+v", a.Trace, b.Trace)
	}
}

// TestUntracedLayoutFrozen pins the legacy byte layout of the untraced
// data kinds: with tracing disabled the daemon emits these envelopes, so
// any growth here would violate the zero-extra-wire-bytes guarantee.
func TestUntracedLayoutFrozen(t *testing.T) {
	got := Encode(Envelope{Kind: KindPublish, Hops: 3, Subject: "a.b", Payload: []byte{9, 8}})
	want := []byte{KindPublish, 3, 3, 'a', '.', 'b', 9, 8}
	if string(got) != string(want) {
		t.Fatalf("publish layout changed: % x, want % x", got, want)
	}
	got = Encode(Envelope{Kind: KindGuaranteed, Hops: 1, ID: 5, Origin: "o", Subject: "s", Payload: []byte{7}})
	want = []byte{KindGuaranteed, 1, 5, 1, 'o', 1, 's', 7}
	if string(got) != string(want) {
		t.Fatalf("guaranteed layout changed: % x, want % x", got, want)
	}
}

func TestTraceCaps(t *testing.T) {
	// A hop list longer than MaxTraceHops is rejected at decode.
	e := Envelope{Kind: KindPublishTraced, Subject: "s", TraceID: 1}
	for i := 0; i < MaxTraceHops; i++ {
		e.Trace = append(e.Trace, TraceHop{Node: "n", At: int64(i)})
	}
	enc := Encode(e)
	if _, err := Decode(enc); err != nil {
		t.Fatalf("full trace must decode: %v", err)
	}
	// Patch the hop count (bytes: kind, hops, traceID=1 byte, count).
	enc[3] = MaxTraceHops + 1
	if _, err := Decode(enc); !errors.Is(err, ErrEnvelopeCorrupt) {
		t.Errorf("oversized hop count error = %v", err)
	}
	// A node name above maxNodeLen is rejected.
	long := Envelope{Kind: KindPublishTraced, Subject: "s",
		Trace: []TraceHop{{Node: string(make([]byte, 300)), At: 1}}}
	if _, err := Decode(Encode(long)); !errors.Is(err, ErrEnvelopeCorrupt) {
		t.Errorf("oversized node name error = %v", err)
	}
	// Truncations anywhere in a traced envelope are rejected, not panics.
	full := Encode(Envelope{Kind: KindGuaranteedTraced, ID: 3, Origin: "o", Subject: "s",
		TraceID: 8, Trace: []TraceHop{{Node: "a", At: 100}, {Node: "b", At: 200}}})
	for i := 1; i < len(full)-1; i++ {
		if _, err := Decode(full[:i]); err == nil {
			// The payload tail is legitimately variable-length; only the
			// header region must reject truncation. Find where the subject
			// ends: everything before it is header.
			dec, _ := Decode(full[:i])
			if dec.Subject != "s" {
				t.Errorf("truncated traced envelope of %d bytes decoded: %+v", i, dec)
			}
		}
	}
}

func TestEnvelopeCorrupt(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrEnvelopeCorrupt) {
		t.Errorf("nil error = %v", err)
	}
	if _, err := Decode([]byte{77}); !errors.Is(err, ErrEnvelopeCorrupt) {
		t.Errorf("unknown kind error = %v", err)
	}
	good := Encode(Envelope{Kind: KindGuarAck, ID: 9, Origin: "o"})
	for i := 1; i < len(good); i++ {
		if _, err := Decode(good[:i]); err == nil {
			t.Errorf("truncated ack envelope of %d bytes decoded", i)
		}
	}
	// What follows an ack's origin is a run list, and only its one spelling
	// decodes: a lone 00 names the header's id a second way, and a gap must
	// come with a length.
	for _, tail := range [][]byte{{0}, {0, 1}, {1, 2}} {
		if _, err := Decode(append(good[:len(good):len(good)], tail...)); !errors.Is(err, ErrEnvelopeCorrupt) {
			t.Errorf("ack tail % x error = %v", tail, err)
		}
	}
}

// TestGuarAckRuns: an ack names its ids as runs — one encoding per id set,
// read back id by id — and an ack of one id is the header alone, pinned
// byte for byte.
func TestGuarAckRuns(t *testing.T) {
	one := Encode(Envelope{Kind: KindGuarAck, ID: 9, Origin: "o"})
	if want := []byte{KindGuarAck, 9, 1, 'o'}; string(one) != string(want) ||
		string(AppendAck(nil, "o", []uint64{9})) != string(want) {
		t.Fatalf("one-id ack % x, want % x", one, want)
	}
	const top = ^uint64(0)
	for _, c := range []struct {
		ids  []uint64
		tail []byte
	}{
		{[]uint64{3, 4, 5, 9, 11, 12}, []byte{2, 3, 0, 1, 1}},
		{[]uint64{7, 8}, []byte{1}},
		{[]uint64{1, 3}, []byte{0, 1, 0}},
		{[]uint64{0, top}, append(append([]byte{0}, binaryUvarint(top-1)...), 0)},
		{[]uint64{top - 1, top}, []byte{1}},
	} {
		frame := AppendAck(nil, "org", c.ids)
		head := AppendAck(nil, "org", c.ids[:1])
		if string(frame[len(head):]) != string(c.tail) || string(frame[:len(head)]) != string(head) {
			t.Errorf("ids %v: frame % x, want % x then tail % x", c.ids, frame, head, c.tail)
		}
		e, err := Decode(frame)
		if err != nil {
			t.Fatalf("ids %v: %v", c.ids, err)
		}
		if e.ID != c.ids[0] || !slices.Equal(e.Acked, c.ids) || e.Origin != "org" {
			t.Errorf("ids %v: decoded %+v", c.ids, e)
		}
		if again := Encode(e); string(again) != string(frame) {
			t.Errorf("ids %v: re-encoded % x, want % x", c.ids, again, frame)
		}
	}
	// The cap: MaxAckIDs ids parse, one more does not, in one run or in many.
	dense := make([]uint64, MaxAckIDs+1)
	sparse := make([]uint64, MaxAckIDs+1)
	for i := range dense {
		dense[i], sparse[i] = uint64(i), uint64(2*i)
	}
	for _, ids := range [][]uint64{dense, sparse} {
		if _, err := Peek(AppendAck(nil, "o", ids[:MaxAckIDs])); err != nil {
			t.Errorf("%d ids up to %d: %v", MaxAckIDs, ids[MaxAckIDs-1], err)
		}
		if _, err := Peek(AppendAck(nil, "o", ids)); !errors.Is(err, ErrEnvelopeCorrupt) {
			t.Errorf("%d ids up to %d: error %v", MaxAckIDs+1, ids[MaxAckIDs], err)
		}
	}
}

func binaryUvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// Property: Decode never panics on arbitrary input, and Encode/Decode
// round-trips arbitrary publish envelopes.
func TestQuickEnvelopeRobust(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		_, _ = Decode(data)
		return true
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(payload []byte, hops uint8) bool {
		e := Envelope{Kind: KindPublish, Hops: hops, Subject: "q.t", Payload: payload}
		got, err := Decode(Encode(e))
		return err == nil && got.Hops == hops && string(got.Payload) == string(payload)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestCompactEnvelopeRoundTrip(t *testing.T) {
	cases := []Envelope{
		{Kind: KindPublishCompact, Hops: 2, Subject: "a.b", Payload: []byte("data")},
		{Kind: KindGuaranteedCompact, Hops: 1, ID: 42, Origin: "sim:0#abc", Subject: "g.s", Payload: []byte{1, 2}},
		{Kind: KindPublishCompactTraced, Subject: "x", TraceID: 7,
			Trace: []TraceHop{{Node: "sim:0", At: 123}}},
		{Kind: KindGuaranteedCompactTraced, ID: 9, Origin: "o", Subject: "s", TraceID: 3,
			Payload: []byte{5}, Trace: []TraceHop{{Node: "n", At: -1}}},
	}
	for _, e := range cases {
		got, err := Decode(Encode(e))
		if err != nil {
			t.Fatalf("decode(%+v): %v", e, err)
		}
		if got.Kind != e.Kind || got.ID != e.ID || got.Subject != e.Subject ||
			got.Origin != e.Origin || got.Hops != e.Hops || got.TraceID != e.TraceID ||
			string(got.Payload) != string(e.Payload) || len(got.Trace) != len(e.Trace) {
			t.Errorf("round trip %+v -> %+v", e, got)
		}
	}
}

func TestCompactHelpers(t *testing.T) {
	kinds := []struct {
		kind                       byte
		base                       byte
		guaranteed, compact, trace bool
	}{
		{KindPublish, KindPublish, false, false, false},
		{KindGuaranteed, KindGuaranteed, true, false, false},
		{KindPublishTraced, KindPublish, false, false, true},
		{KindGuaranteedTraced, KindGuaranteed, true, false, true},
		{KindPublishCompact, KindPublish, false, true, false},
		{KindGuaranteedCompact, KindGuaranteed, true, true, false},
		{KindPublishCompactTraced, KindPublish, false, true, true},
		{KindGuaranteedCompactTraced, KindGuaranteed, true, true, true},
	}
	for _, k := range kinds {
		e := Envelope{Kind: k.kind}
		if e.Base() != k.base {
			t.Errorf("kind %d: Base = %d, want %d", k.kind, e.Base(), k.base)
		}
		if e.Compact() != k.compact {
			t.Errorf("kind %d: Compact = %t", k.kind, e.Compact())
		}
		if e.Traced() != k.trace {
			t.Errorf("kind %d: Traced = %t", k.kind, e.Traced())
		}
		if got := DataKind(k.guaranteed, k.compact, k.trace); got != k.kind {
			t.Errorf("DataKind(%t,%t,%t) = %d, want %d", k.guaranteed, k.compact, k.trace, got, k.kind)
		}
	}
	// Compact layout matches the plain layout except for the kind byte, so
	// routers and the retransmit machinery treat both identically.
	plain := Encode(Envelope{Kind: KindPublish, Hops: 3, Subject: "a.b", Payload: []byte{9}})
	compact := Encode(Envelope{Kind: KindPublishCompact, Hops: 3, Subject: "a.b", Payload: []byte{9}})
	if plain[0] != KindPublish || compact[0] != KindPublishCompact ||
		string(plain[1:]) != string(compact[1:]) {
		t.Fatalf("compact layout diverged: % x vs % x", plain, compact)
	}
}
