package busproto

import "testing"

// FuzzDecode: arbitrary bytes never panic; decodable envelopes round-trip.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(Envelope{Kind: KindPublish, Subject: "a.b", Payload: []byte("x")}))
	f.Add(Encode(Envelope{Kind: KindGuaranteed, ID: 9, Origin: "o", Subject: "s", Payload: nil}))
	f.Add(Encode(Envelope{Kind: KindGuarAck, ID: 1, Origin: "o"}))
	f.Add(Encode(Envelope{Kind: KindInterest, Patterns: []string{"a.>", "*"}}))
	f.Add([]byte{})
	addCompactSeeds(f)
	// Traced envelopes: empty trace, populated trace, negative timestamps.
	f.Add(Encode(Envelope{Kind: KindPublishTraced, Subject: "a.b", Payload: []byte("x"), TraceID: 7}))
	f.Add(Encode(Envelope{Kind: KindPublishTraced, Hops: 2, Subject: "t", TraceID: 1,
		Trace: []TraceHop{{Node: "sim:0", At: 123456789}, {Node: "router:r:a", At: -1}}}))
	f.Add(Encode(Envelope{Kind: KindGuaranteedTraced, ID: 4, Origin: "o", Subject: "g",
		TraceID: 99, Trace: []TraceHop{{Node: "n", At: 1690000000000000000}}}))
	// Malformed hop lists: count exceeding MaxTraceHops, count promising
	// more hops than the data holds, and an oversized node name length.
	f.Add([]byte{KindPublishTraced, 0, 1, MaxTraceHops + 1, 1, 'n', 2})
	f.Add([]byte{KindPublishTraced, 0, 1, 5, 1, 'n', 2})
	f.Add([]byte{KindGuaranteedTraced, 0, 9, 1, 'o', 1, 1, 0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			return
		}
		got, err := Decode(Encode(e))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if got.Kind != e.Kind || got.Subject != e.Subject || got.ID != e.ID || got.Origin != e.Origin {
			t.Fatalf("round trip mismatch: %+v vs %+v", e, got)
		}
		if got.TraceID != e.TraceID || len(got.Trace) != len(e.Trace) {
			t.Fatalf("trace round trip mismatch: %+v vs %+v", e, got)
		}
		for i := range e.Trace {
			if got.Trace[i] != e.Trace[i] {
				t.Fatalf("hop %d mismatch: %+v vs %+v", i, got.Trace[i], e.Trace[i])
			}
		}
	})
}

// FuzzEnvelopePeek: Decode must agree with Peek on arbitrary bytes — both
// accept (with identical header fields) or both reject. Decode is Peek
// plus materialization, so this pins the materialize step: routers forward
// on Peek alone, daemons deliver from Decode, and a frame the two read
// differently would be routed as one message and delivered as another.
func FuzzEnvelopePeek(f *testing.F) {
	f.Add(Encode(Envelope{Kind: KindPublish, Hops: 2, Subject: "a.b", Payload: []byte("x")}))
	f.Add(Encode(Envelope{Kind: KindGuaranteed, ID: 9, Origin: "o", Subject: "s", Payload: nil}))
	f.Add(Encode(Envelope{Kind: KindGuarAck, ID: 1, Origin: "o"}))
	f.Add(Encode(Envelope{Kind: KindInterest, Patterns: []string{"a.>", "*"}}))
	f.Add([]byte{})
	addCompactSeeds(f)
	f.Add(Encode(Envelope{Kind: KindPublishTraced, Hops: 2, Subject: "t", TraceID: 1,
		Trace: []TraceHop{{Node: "sim:0", At: 123456789}, {Node: "router:r:a", At: -1}}}))
	f.Add(Encode(Envelope{Kind: KindGuaranteedTraced, ID: 4, Origin: "o", Subject: "g",
		TraceID: 99, Trace: []TraceHop{{Node: "n", At: 1690000000000000000}}}))
	f.Add([]byte{KindPublishTraced, 0, 1, MaxTraceHops + 1, 1, 'n', 2})
	f.Add([]byte{KindPublishTraced, 0, 1, 5, 1, 'n', 2})
	f.Add([]byte{KindGuaranteedTraced, 0, 9, 1, 'o', 1, 1, 0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, perr := Peek(data)
		e, derr := Decode(data)
		if (perr == nil) != (derr == nil) {
			t.Fatalf("peek err=%v decode err=%v on % x", perr, derr, data)
		}
		if perr != nil {
			return
		}
		if h.Kind != e.Kind || h.Hops != e.Hops || h.ID != e.ID ||
			string(h.Origin) != e.Origin || string(h.Subject) != e.Subject ||
			string(h.Payload) != string(e.Payload) {
			t.Fatalf("peek %+v disagrees with decode %+v on % x", h, e, data)
		}
	})
}

// FuzzAppendForward: for every data frame Peek accepts and each edit a
// router makes — hops only, plus a trace hop, plus a substituted subject,
// plus both — the splice must equal the codec's own answer (Decode, edit
// the envelope, AppendEncode), and must itself parse. The format has one
// encoding per envelope, so the unedited splice is the frame.
func FuzzAppendForward(f *testing.F) {
	for _, e := range peekCases() {
		f.Add(Encode(e))
	}
	addCompactSeeds(f)
	f.Add(Encode(Envelope{Kind: KindPublish, Subject: "empty.payload"}))
	// The trace cap: a full list forwards without the new hop, one below
	// takes it and becomes full.
	for _, n := range []int{MaxTraceHops - 1, MaxTraceHops} {
		e := Envelope{Kind: KindGuaranteedCompactTraced, Hops: 7, ID: 1 << 40, Origin: "sim:0#tok",
			Subject: "cap.s", TraceID: 1 << 60, Payload: []byte{1, 2, 3}}
		for i := 0; i < n; i++ {
			e.Trace = append(e.Trace, TraceHop{Node: "n", Kind: byte(i % 9), At: int64(i) - 3})
		}
		f.Add(Encode(e))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		h, err := Peek(frame)
		if err != nil || (h.Base() != KindPublish && h.Base() != KindGuaranteed) {
			return
		}
		if same := AppendForward(nil, h, h.Hops, "", "", 0); string(same) != string(frame) {
			t.Fatalf("unedited splice % x != frame % x", same, frame)
		}
		for _, edit := range []struct{ subject, hopNode string }{
			{"", ""}, {"", "router:r:out"}, {"west.x", ""}, {"west.x", "router:r:out"},
		} {
			const at = 1790000000123456789
			got := AppendForward([]byte("prefix"), h, h.Hops+1, edit.subject, edit.hopNode, at)[len("prefix"):]
			env, err := Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			env.Hops++
			if edit.subject != "" {
				env.Subject = edit.subject
			}
			if edit.hopNode != "" {
				env.AppendHop(edit.hopNode, at)
			}
			if want := Encode(env); string(got) != string(want) {
				t.Fatalf("edit %+v of % x:\nsplice % x\ncodec  % x", edit, frame, got, want)
			}
			if _, err := Peek(got); err != nil {
				t.Fatalf("edit %+v of % x: splice % x does not parse: %v", edit, frame, got, err)
			}
		}
	})
}

// Compact-kind seeds exercise the shared layout paths under the new kind
// bytes (added with the dictionary compression of the broadcast path).
func addCompactSeeds(f *testing.F) {
	f.Add(Encode(Envelope{Kind: KindPublishCompact, Hops: 1, Subject: "c.d", Payload: []byte{'I', 'B', 2, 0, 0, 0}}))
	f.Add(Encode(Envelope{Kind: KindGuaranteedCompact, ID: 3, Origin: "o", Subject: "g", Payload: []byte{1}}))
	f.Add(Encode(Envelope{Kind: KindPublishCompactTraced, Subject: "t", TraceID: 5,
		Trace: []TraceHop{{Node: "n", At: 1}}}))
	f.Add(Encode(Envelope{Kind: KindGuaranteedCompactTraced, ID: 8, Origin: "o", Subject: "s", TraceID: 2}))
}
