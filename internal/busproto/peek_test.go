package busproto

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
)

// peekCases covers every kind, traced and compact variants included.
func peekCases() []Envelope {
	return []Envelope{
		{Kind: KindPublish, Hops: 3, Subject: "a.b", Payload: []byte("data")},
		{Kind: KindPublish, Subject: "x", Payload: nil},
		{Kind: KindPublishCompact, Hops: 1, Subject: "c.d", Payload: []byte{'I', 'B', 2}},
		{Kind: KindGuaranteed, Hops: 2, ID: 42, Origin: "sim:0#abc", Subject: "g.s", Payload: []byte{1, 2}},
		{Kind: KindGuaranteedCompact, ID: 9, Origin: "o", Subject: "g", Payload: []byte{7}},
		{Kind: KindPublishTraced, Hops: 1, Subject: "t.u", Payload: []byte("p"), TraceID: 5,
			Trace: []TraceHop{{Node: "sim:0", At: 123}, {Node: "router:r:a", Kind: HopLanePop, At: -4}}},
		{Kind: KindGuaranteedTraced, ID: 7, Origin: "org", Subject: "g.t", TraceID: 8,
			Trace: []TraceHop{{Node: "n", Kind: HopGroupCommit, At: 99}}},
		{Kind: KindPublishCompactTraced, Subject: "ct", TraceID: 2, Payload: []byte{3}},
		{Kind: KindGuaranteedCompactTraced, ID: 1, Origin: "o2", Subject: "s.s.s", TraceID: 3,
			Trace: []TraceHop{{Node: "a", At: 1}, {Node: "b", At: 2}}},
		{Kind: KindGuarAck, ID: 11, Origin: "sim:9#def"},
		{Kind: KindGuarAck, ID: 11, Origin: "sim:9#def", Acked: []uint64{11, 12, 13, 40, 42, 43}},
		{Kind: KindInterest, Patterns: []string{"a.>", "b.*", "c"}},
		{Kind: KindInterest},
	}
}

// TestPeekAgreesWithDecode pins the header fields Peek exposes against a
// full Decode for every envelope kind.
func TestPeekAgreesWithDecode(t *testing.T) {
	for _, e := range peekCases() {
		enc := Encode(e)
		h, err := Peek(enc)
		if err != nil {
			t.Fatalf("peek(%+v): %v", e, err)
		}
		d, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", e, err)
		}
		if h.Kind != d.Kind || h.Hops != d.Hops || h.ID != d.ID ||
			string(h.Origin) != d.Origin || string(h.Subject) != d.Subject ||
			!bytes.Equal(h.Payload, d.Payload) || h.TraceID != d.TraceID ||
			int(h.TraceHops) != len(d.Trace) {
			t.Errorf("peek %+v disagrees with decode %+v", h, d)
		}
		if !reflect.DeepEqual(d.Trace, e.Trace) || !reflect.DeepEqual(d.Patterns, e.Patterns) ||
			!reflect.DeepEqual(d.Acked, e.Acked) {
			t.Errorf("decode materialized %+v from %+v", d, e)
		}
		if e.Kind == KindGuarAck {
			var acked []uint64
			h.EachAcked(func(id uint64) { acked = append(acked, id) })
			want := e.Acked
			if want == nil {
				want = []uint64{e.ID}
			}
			if !slices.Equal(acked, want) {
				t.Errorf("ack %+v: EachAcked named %v, want %v", e, acked, want)
			}
		}
		if h.Base() != d.Base() || h.Traced() != d.Traced() || h.Compact() != d.Compact() {
			t.Errorf("kind %d: helper disagreement peek(%d,%t,%t) decode(%d,%t,%t)",
				e.Kind, h.Base(), h.Traced(), h.Compact(), d.Base(), d.Traced(), d.Compact())
		}
		// The views must alias the frame, not copies of it (zero-copy is
		// the point). Subject/Payload only exist on data kinds.
		if len(h.Subject) > 0 && !sameBacking(enc, h.Subject) {
			t.Errorf("kind %d: Subject does not alias the frame", e.Kind)
		}
		if len(h.Payload) > 0 && !sameBacking(enc, h.Payload) {
			t.Errorf("kind %d: Payload does not alias the frame", e.Kind)
		}
	}
}

// sameBacking reports whether view points into frame's backing array.
func sameBacking(frame, view []byte) bool {
	if len(view) == 0 {
		return true
	}
	for i := range frame {
		if &frame[i] == &view[0] {
			return true
		}
	}
	return false
}

// TestPeekRejectsWhatDecodeRejects spot-checks malformed frames: both
// parsers must reject (the fuzzer generalizes this).
func TestPeekRejectsWhatDecodeRejects(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{77},
		{KindPublishTraced, 0, 1, MaxTraceHops + 1, 1, 'n', 2},
		{KindPublishTraced, 0, 1, 5, 1, 'n', 2},
		{KindGuaranteedTraced, 0, 9, 1, 'o', 1, 1, 0xff, 0xff, 0x03},
		// Non-minimal varints (subject length 1 as 0x81 0x00, ack id 0 as
		// 0x80 0x00): one encoding per envelope, see envReader.uvarint.
		{KindPublish, 0, 0x81, 0x00, 's'},
		{KindGuarAck, 0x80, 0x00, 1, 'o'},
	}
	bad = append(bad, badAckTails()...)
	for _, data := range bad {
		if _, err := Peek(data); err == nil {
			t.Errorf("peek accepted % x", data)
		}
		if _, err := Decode(data); err == nil {
			t.Errorf("decode accepted % x", data)
		}
	}
	// Truncations of a traced guaranteed envelope: Peek and Decode must
	// agree byte-for-byte on where the header stops being parseable.
	full := Encode(Envelope{Kind: KindGuaranteedCompactTraced, ID: 3, Origin: "orig", Subject: "s.t",
		TraceID: 8, Payload: []byte{1, 2, 3}, Trace: []TraceHop{{Node: "a", At: 100}, {Node: "b", At: -200}}})
	for i := 0; i < len(full); i++ {
		_, perr := Peek(full[:i])
		_, derr := Decode(full[:i])
		if (perr == nil) != (derr == nil) {
			t.Fatalf("truncation at %d: peek err=%v decode err=%v", i, perr, derr)
		}
	}
}

// badAckTails are acks for id 9 from "o" whose run list is not the one
// spelling AppendAck writes, or names too much.
func badAckTails() [][]byte {
	head := []byte{KindGuarAck, 9, 1, 'o'}
	over := binary.AppendUvarint(nil, MaxAckIDs) // a first run of MaxAckIDs+1 ids
	var many []byte                              // MaxAckIDs+1 single-id runs
	many = append(many, 0)
	for i := 0; i < MaxAckIDs; i++ {
		many = append(many, 1, 0)
	}
	var out [][]byte
	for _, tail := range [][]byte{
		{0},          // the one-id ack's second spelling
		{1, 0, 0},    // a zero-length gap: two runs that touch
		{1, 1},       // a gap without its length
		{0x81, 0x00}, // a non-minimal run length
		{0, 0x81, 0x00, 0},
		over,
		many,
		{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0}, // a gap past 2^64-1
	} {
		out = append(out, append(slices.Clip(head), tail...))
	}
	// A run past 2^64-1: 2^64-2 plus three more.
	out = append(out, append(append([]byte{KindGuarAck}, binary.AppendUvarint(nil, ^uint64(0)-1)...), 1, 'o', 2))
	return out
}

// TestPeekZeroAlloc pins the router data plane's foundation: peeking a
// data envelope allocates nothing.
func TestPeekZeroAlloc(t *testing.T) {
	frames := [][]byte{
		Encode(Envelope{Kind: KindPublish, Hops: 1, Subject: "a.b.c", Payload: make([]byte, 256)}),
		Encode(Envelope{Kind: KindGuaranteed, Hops: 1, ID: 99, Origin: "sim:0#x", Subject: "g.s", Payload: make([]byte, 64)}),
		Encode(Envelope{Kind: KindPublishTraced, Subject: "t", TraceID: 4,
			Trace: []TraceHop{{Node: "n", At: 1}, {Node: "m", At: 2}}, Payload: []byte{1}}),
		AppendAck(nil, "sim:0#x", []uint64{1, 2, 3, 7, 9, 10}),
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, f := range frames {
			if _, err := Peek(f); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Peek allocates %.1f per run of %d frames, want 0", allocs, len(frames))
	}
}

// TestAppendStageHopAllocAndAlias pins the copy-on-append contract: one
// allocation per appended hop, and fan-out copies sharing a decoded trace
// must not alias each other's appends.
func TestAppendStageHopAllocAndAlias(t *testing.T) {
	base := Envelope{Kind: KindPublishTraced, TraceID: 1,
		Trace: []TraceHop{{Node: "origin", At: 1}}}
	allocs := testing.AllocsPerRun(1000, func() {
		e := base
		e.AppendStageHop(HopNode, "router:r:a", 2)
	})
	if allocs > 1 {
		t.Fatalf("AppendStageHop = %.1f allocs, want 1", allocs)
	}
	// Shared-trace fan-out: two egress copies append independently.
	shared := Envelope{Kind: KindPublishTraced, Trace: make([]TraceHop, 2, 8)}
	shared.Trace[0] = TraceHop{Node: "pub", At: 1}
	shared.Trace[1] = TraceHop{Node: "hop", At: 2}
	a, b := shared, shared
	a.AppendStageHop(HopNode, "egress-a", 3)
	b.AppendStageHop(HopNode, "egress-b", 4)
	if a.Trace[2].Node != "egress-a" || b.Trace[2].Node != "egress-b" {
		t.Fatalf("fan-out copies aliased: a=%+v b=%+v", a.Trace, b.Trace)
	}
	if shared.Trace[0].Node != "pub" || shared.Trace[1].Node != "hop" || len(shared.Trace) != 2 {
		t.Fatalf("shared prefix mutated: %+v", shared.Trace)
	}
}
