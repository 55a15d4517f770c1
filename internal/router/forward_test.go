package router

import (
	"encoding/hex"
	"slices"
	"sync"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/mesh"
	"infobus/internal/mop"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
	"infobus/internal/wire"
)

// nullSegment is a transport.Segment whose endpoints swallow every
// datagram: the alloc budget and throughput benchmarks below measure the
// router's forwarding engine itself, not a network model's bookkeeping.
type nullSegment struct {
	mu  sync.Mutex
	eps []*nullEndpoint
}

type nullEndpoint struct {
	addr string
	recv chan transport.Datagram
	once sync.Once
}

func (s *nullSegment) NewEndpoint(name string) (transport.Endpoint, error) {
	ep := &nullEndpoint{addr: name, recv: make(chan transport.Datagram)}
	s.mu.Lock()
	s.eps = append(s.eps, ep)
	s.mu.Unlock()
	return ep, nil
}

func (s *nullSegment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ep := range s.eps {
		_ = ep.Close()
	}
	return nil
}

func (e *nullEndpoint) Addr() string                    { return e.addr }
func (e *nullEndpoint) Send(string, []byte) error       { return nil }
func (e *nullEndpoint) Broadcast([]byte) error          { return nil }
func (e *nullEndpoint) Recv() <-chan transport.Datagram { return e.recv }
func (e *nullEndpoint) Close() error                    { e.once.Do(func() { close(e.recv) }); return nil }

// quietReliable keeps every protocol timer out of the measured window.
func quietReliable() reliable.Config {
	return reliable.Config{
		NakInterval:        time.Hour,
		GapTimeout:         time.Hour,
		RetransmitInterval: time.Hour,
		HeartbeatInterval:  time.Hour,
	}
}

// newFanoutRouter builds a 4-attachment router over null segments with
// interest seeded on every attachment but the ingress, so a forwarded
// publication fans out to three egresses. Every egress rewrites
// "bench.xform.>" to "west.bench.xform.>"; no other subject matches a rule.
func newFanoutRouter(t testing.TB, opts Options) *Router {
	t.Helper()
	opts.Reliable = quietReliable()
	opts.InterestTTL = time.Hour
	rules := []Rule{{
		Match:      subject.MustParsePattern("bench.xform.>"),
		FromPrefix: "bench", ToPrefix: "west.bench",
	}}
	atts := make([]Attachment, 4)
	for i, name := range []string{"ingress", "a", "b", "c"} {
		atts[i] = Attachment{Segment: &nullSegment{}, Name: name}
		if i > 0 {
			atts[i].Rules = rules
		}
	}
	r, err := New(opts, atts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	for _, att := range r.atts[1:] {
		hearInterest(r, att, "bench.>", "west.bench.>", "_sys.>")
	}
	return r
}

// hearInterest feeds the router one host's advertisement on an attachment,
// as handle does for a busproto.KindInterest envelope from that sender.
func hearInterest(r *Router, att *attachment, patterns ...string) {
	r.agent.m.HandleInterest(att.index, "host", patterns, time.Now())
}

// trafficClass is one kind of traffic the forwarding loop serves; shared
// says whether its egress frames are the one hops-only copy (counted by
// router.fastpath_forwarded) or spliced per egress.
type trafficClass struct {
	name   string
	env    busproto.Envelope
	shared bool
}

func trafficClasses() []trafficClass {
	payload := make([]byte, 256)
	// A compact publication that carries its class definitions, as the first
	// one and one in wire.DefaultResendEvery do: the router harvests them.
	tick := mop.MustNewClass("Tick", nil, []mop.Attr{{Name: "seq", Type: mop.Int}, {Name: "symbol", Type: mop.String}}, nil)
	resend, err := wire.NewSendDict(0).Marshal(mop.MustNew(tick).MustSet("seq", int64(1)).MustSet("symbol", "ABCD"))
	if err != nil || !wire.CompactCarriesDefs(resend) {
		panic("no compact resend payload")
	}
	return []trafficClass{
		{"plain", busproto.Envelope{Kind: busproto.KindPublish, Subject: "bench.alloc.data", Payload: payload}, true},
		{"guaranteed", busproto.Envelope{Kind: busproto.KindGuaranteed, ID: 7, Origin: "sim:0#orig",
			Subject: "bench.alloc.guar", Payload: payload}, true},
		{"traced", busproto.Envelope{Kind: busproto.KindPublishTraced, Subject: "bench.alloc.traced", TraceID: 3,
			Trace:   []busproto.TraceHop{{Node: "sim:0", At: 1}, {Node: "sim:0", Kind: busproto.HopLaneEnqueue, At: 2}},
			Payload: payload}, false},
		{"transformed", busproto.Envelope{Kind: busproto.KindPublish, Subject: "bench.xform.data", Payload: payload}, false},
		// Longer than the 32 bytes a non-escaping string(subject) gets on the
		// stack: the probe dispatch must compare the view, not convert it.
		{"_sys", busproto.Envelope{Kind: busproto.KindPublish, Subject: "_sys.stats.a-node-name-well-over-32-bytes", Payload: payload}, true},
		{"compact resend", busproto.Envelope{Kind: busproto.KindPublishCompact, Subject: "bench.alloc.compact", Payload: resend}, true},
	}
}

// TestRouterForwardAllocBudget pins the forwarding loop at ZERO allocations
// per publication in steady state for every traffic class it serves, with
// the mesh agent running as it does in every router: peek, link-local
// check on the subject view, interner hit, rule scan, wants-trie cache hit,
// egress frames spliced into the attachment's scratch, three egress
// publishes into pooled retransmit windows; for a compact publication that
// carries class definitions, a harvest the table memo answers.
// scripts/check.sh runs this as a gate; if it fails, the router data plane
// gained per-message garbage.
func TestRouterForwardAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the budget is pinned by the non-race run in scripts/check.sh")
	}
	// Telemetry tiers on, tickers idle: every "_sys" publication forwarded
	// also passes through the agent's probe dispatch.
	r := newFanoutRouter(t, Options{Name: "alloc", StatsInterval: time.Hour,
		Health: telemetry.HealthConfig{Interval: time.Hour}})
	sharedCtr := r.Metrics().Counter("router.fastpath_forwarded")
	for _, tc := range trafficClasses() {
		m := reliable.Message{From: "pub", Payload: busproto.Encode(tc.env)}
		forward := func() { r.handle(r.atts[0], m) }
		// Warm lazily-allocated state (interner entries, wants memo, scratch
		// and pooled buffers) before measuring.
		before, sharedBefore := r.Stats(), sharedCtr.Load()
		const warm = 1000
		for i := 0; i < warm; i++ {
			forward()
		}
		after := r.Stats()
		wantShared, wantTransformed := uint64(0), uint64(0)
		if tc.shared {
			wantShared = 3 * warm
		}
		if tc.name == "transformed" {
			wantTransformed = 3 * warm
		}
		if after.Forwarded-before.Forwarded != 3*warm || sharedCtr.Load()-sharedBefore != wantShared ||
			after.Transformed-before.Transformed != wantTransformed {
			t.Fatalf("%s: forwarded %d (want %d), shared-copy %d (want %d), transformed %d (want %d)", tc.name,
				after.Forwarded-before.Forwarded, 3*warm, sharedCtr.Load()-sharedBefore, wantShared,
				after.Transformed-before.Transformed, wantTransformed)
		}
		// Minimum over attempts: contention (go test ./...) only ever adds
		// allocations, so the minimum is the true per-op cost.
		best := testing.AllocsPerRun(100000, forward)
		for attempt := 0; attempt < 4 && best > 0.05; attempt++ {
			if a := testing.AllocsPerRun(100000, forward); a < best {
				best = a
			}
		}
		if best > 0.05 {
			t.Errorf("%s forward = %.3f allocs/op, budget 0", tc.name, best)
		}
	}
}

// goldenAt replaces the router's wall-clock hop timestamp in the goldens
// (same varint width as any current UnixNano, so frame lengths match).
const goldenAt = 1790000000000000000

// TestRouterEgressGolden pins the router's egress bytes to hex captured
// from commit 47ba342 (this same test body, run there against the
// decode/re-encode engine this router no longer has): the splice must keep
// producing, bit for bit, what the codec produced. The one field that is a
// clock reading — the appended router hop's timestamp — is range-checked
// and then normalized to goldenAt on both sides.
func TestRouterEgressGolden(t *testing.T) {
	pubHop := []busproto.TraceHop{{Node: "sim:0", At: 1695000000000000001},
		{Node: "sim:0", Kind: busproto.HopLedgerStage, At: 1695000000000000002}}
	cases := []struct {
		name   string
		env    busproto.Envelope
		golden string
	}{
		{"untraced", busproto.Envelope{Kind: busproto.KindPublish, Hops: 1, Subject: "golden.plain",
			Payload: []byte("payload-bytes")},
			"01020c676f6c64656e2e706c61696e7061796c6f61642d6279746573"},
		{"traced", busproto.Envelope{Kind: busproto.KindPublishTraced, Subject: "golden.traced", TraceID: 77,
			Trace: pubHop[:1], Payload: []byte("t")},
			"05014d02000573696d3a308280cce49fe1ec852f0011726f757465723a676f6c64656e3a6f7574808098bf84e1add7310d676f6c64656e2e74726163656474"},
		{"transformed", busproto.Envelope{Kind: busproto.KindPublishCompact, Hops: 2, Subject: "east.golden.x.y",
			Payload: []byte{'I', 'B', 2, 1, 1}},
			"07030f676f6c64656e2e776573742e782e794942020101"},
		{"guaranteed-traced", busproto.Envelope{Kind: busproto.KindGuaranteedCompactTraced, ID: 300, Origin: "sim:0#tok",
			Subject: "golden.guar", TraceID: 1 << 40, Trace: pubHop, Payload: []byte("g")},
			"0a01ac020973696d3a3023746f6b80808080802003000573696d3a308280cce49fe1ec852f030573696d3a308480cce49fe1ec852f0011726f757465723a676f6c64656e3a6f7574808098bf84e1add7310b676f6c64656e2e6775617267"},
		{"transformed-traced", busproto.Envelope{Kind: busproto.KindGuaranteedTraced, ID: 9, Origin: "sim:0#tok",
			Subject: "east.golden", TraceID: 5, Payload: nil},
			"0601090973696d3a3023746f6b05010011726f757465723a676f6c64656e3a6f7574808098bf84e1add7310b676f6c64656e2e77657374"},
	}
	seg := &captureSegment{}
	r, err := New(Options{Name: "golden", Reliable: quietReliable(), InterestTTL: time.Hour},
		Attachment{Segment: &nullSegment{}, Name: "in"},
		Attachment{Segment: seg, Name: "out", Rules: []Rule{{
			Match:      subject.MustParsePattern("east.>"),
			FromPrefix: "east.golden", ToPrefix: "golden.west",
		}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hearInterest(r, r.atts[1], "golden.>")
	t0 := time.Now().UnixNano()
	for _, tc := range cases {
		r.handle(r.atts[0], reliable.Message{From: "pub", Payload: busproto.Encode(tc.env)})
	}
	t1 := time.Now().UnixNano()
	got := seg.dataPayloads()
	if len(got) != len(cases) {
		t.Fatalf("captured %d egress frames, want %d", len(got), len(cases))
	}
	for i, tc := range cases {
		env, err := busproto.Decode(got[i])
		if err != nil {
			t.Fatalf("%s: egress does not decode: %v", tc.name, err)
		}
		if string(busproto.Encode(env)) != string(got[i]) {
			t.Errorf("%s: egress %x is not the codec's encoding of itself", tc.name, got[i])
		}
		if env.Traced() {
			last := &env.Trace[len(env.Trace)-1]
			if last.Node != "router:golden:out" || last.Kind != busproto.HopNode || last.At < t0 || last.At > t1 {
				t.Errorf("%s: router hop %+v, want router:golden:out stamped in [%d,%d]", tc.name, *last, t0, t1)
			}
			last.At = goldenAt
		}
		if norm := busproto.Encode(env); hex.EncodeToString(norm) != tc.golden {
			t.Errorf("%s: egress %x\n\twant %s", tc.name, norm, tc.golden)
		}
	}
}

// captureSegment records the reliable-stream payloads published out of an
// attachment by decoding the broadcast data frames it would put on the wire.
type captureSegment struct {
	nullSegment
	mu     sync.Mutex
	frames [][]byte
}

func (s *captureSegment) NewEndpoint(name string) (transport.Endpoint, error) {
	ep, err := s.nullSegment.NewEndpoint(name)
	if err != nil {
		return nil, err
	}
	return &captureEndpoint{nullEndpoint: ep.(*nullEndpoint), seg: s}, nil
}

type captureEndpoint struct {
	*nullEndpoint
	seg *captureSegment
}

func (e *captureEndpoint) Broadcast(p []byte) error {
	e.seg.mu.Lock()
	e.seg.frames = append(e.seg.frames, append([]byte(nil), p...))
	e.seg.mu.Unlock()
	return nil
}

// payloads extracts the published envelope bytes from the captured
// reliable-protocol data frames, in order.
func (s *captureSegment) payloads() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][]byte
	for _, f := range s.frames {
		for _, p := range reliable.DecodeDataPayloads(f) {
			out = append(out, p)
		}
	}
	return out
}

// dataPayloads is payloads without the router's own link-local mesh
// conversation (every router says hello on its first tick, and asks the
// segment for what its other attachments want): what is left is what the
// forwarding engine put on the segment.
func (s *captureSegment) dataPayloads() [][]byte {
	return slices.DeleteFunc(s.payloads(), func(p []byte) bool {
		hdr, err := busproto.Peek(p)
		return err == nil && (string(hdr.Subject) == mesh.HelloSubject || hdr.Kind == busproto.KindInterest)
	})
}

// BenchmarkRouterForward measures the forwarding engine CPU-side: one
// ingress publication fanning out to three interested egresses, for the
// shared-copy class (plain) and a per-egress-splice class (traced).
func BenchmarkRouterForward(b *testing.B) {
	for _, tc := range trafficClasses() {
		if tc.name != "plain" && tc.name != "traced" {
			continue
		}
		b.Run(tc.name, func(b *testing.B) {
			r := newFanoutRouter(b, Options{Name: "bench"})
			m := reliable.Message{From: "pub", Payload: busproto.Encode(tc.env)}
			for i := 0; i < 100; i++ {
				r.handle(r.atts[0], m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.handle(r.atts[0], m)
			}
		})
	}
}

// TestWantsOnHonoursTransforms: interest is matched against the subject as
// it will appear on the egress segment, by WantsOn and by forwarding alike.
func TestWantsOnHonoursTransforms(t *testing.T) {
	r, err := New(Options{Name: "ruled", Reliable: quietReliable(), InterestTTL: time.Hour},
		Attachment{Segment: &nullSegment{}, Name: "in"},
		Attachment{Segment: &nullSegment{}, Name: "out", Rules: []Rule{{
			Match:      subject.MustParsePattern("bench.>"),
			FromPrefix: "bench", ToPrefix: "west.bench",
		}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hearInterest(r, r.atts[1], "west.bench.>")
	s := subject.MustParse("bench.x")
	if !r.WantsOn("out", s) {
		t.Fatal("WantsOn must match interest (west.bench.>) against the rewritten subject")
	}
	frame := busproto.Encode(busproto.Envelope{Kind: busproto.KindPublish, Subject: s.String(), Payload: []byte("x")})
	r.handle(r.atts[0], reliable.Message{From: "pub", Payload: frame})
	if got := r.Stats(); got.Forwarded != 1 || got.Transformed != 1 {
		t.Fatalf("want 1 forwarded, 1 transformed: %+v", got)
	}
}

// TestNewRejectsUnparsableRulePrefix: a rule that could never apply is a
// construction error, not a silently skipped rule.
func TestNewRejectsUnparsableRulePrefix(t *testing.T) {
	for _, ru := range []Rule{
		{FromPrefix: "a..b", ToPrefix: "c"},
		{FromPrefix: "a", ToPrefix: "c.*"},
	} {
		r, err := New(Options{Name: "bad", Reliable: quietReliable()},
			Attachment{Segment: &nullSegment{}, Name: "in"},
			Attachment{Segment: &nullSegment{}, Name: "out", Rules: []Rule{ru}})
		if err == nil {
			_ = r.Close()
			t.Errorf("New accepted rule %+v", ru)
		}
	}
}

// TestEgressDropCounted: a frame an egress conn refuses is counted and
// recorded, and the other egresses still get theirs.
// TestHopBudgetBoundsForwarding drives the hop guard at its edge. The
// spanning tree is loop-free, so the envelope hop budget only ever fires on
// pathology (a tree still converging, two routers sharing a name) — which is
// exactly when nothing else bounds a ping-pong. A frame one hop under the
// budget is forwarded with its hops byte incremented; a frame at the budget
// is dropped, counted in router.loop_dropped, and puts nothing on the wire.
func TestHopBudgetBoundsForwarding(t *testing.T) {
	const budget = mesh.MaxHops
	seg := &captureSegment{}
	r, err := New(Options{Name: "hops", Reliable: quietReliable(), InterestTTL: time.Hour},
		Attachment{Segment: &nullSegment{}, Name: "in"},
		Attachment{Segment: seg, Name: "out"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hearInterest(r, r.atts[1], "hop.>")
	for _, kind := range []byte{busproto.KindPublish, busproto.KindGuaranteed, busproto.KindPublishTraced} {
		before := r.Stats()
		wire := len(seg.dataPayloads())
		env := busproto.Envelope{Kind: kind, Subject: "hop.x", ID: 1, Origin: "sim:0#o", TraceID: 1, Payload: []byte("p")}

		env.Hops = budget - 1
		r.handle(r.atts[0], reliable.Message{From: "pub", Payload: busproto.Encode(env)})
		got := seg.dataPayloads()
		if st := r.Stats(); st.Forwarded != before.Forwarded+1 || st.LoopDropped != before.LoopDropped || len(got) != wire+1 {
			t.Fatalf("kind %d, hops %d: stats %+v (before %+v), %d frames on the wire; want one forward, no drop",
				kind, env.Hops, st, before, len(got)-wire)
		}
		if hdr, err := busproto.Peek(got[wire]); err != nil || hdr.Hops != budget {
			t.Errorf("kind %d: egress hops = %d (%v), want %d", kind, hdr.Hops, err, budget)
		}

		env.Hops = budget
		r.handle(r.atts[0], reliable.Message{From: "pub", Payload: busproto.Encode(env)})
		if st := r.Stats(); st.LoopDropped != before.LoopDropped+1 || st.Forwarded != before.Forwarded+1 || len(seg.dataPayloads()) != wire+1 {
			t.Fatalf("kind %d, hops %d: stats %+v (before %+v), %d frames on the wire; want one loop drop, nothing forwarded",
				kind, env.Hops, st, before, len(seg.dataPayloads())-wire-1)
		}
	}
}

func TestEgressDropCounted(t *testing.T) {
	r := newFanoutRouter(t, Options{Name: "drop", Health: telemetry.HealthConfig{Interval: time.Hour}})
	_ = r.atts[2].conn.Close()
	frame := busproto.Encode(busproto.Envelope{Kind: busproto.KindPublish, Subject: "bench.drop", Payload: []byte("x")})
	r.handle(r.atts[0], reliable.Message{From: "pub", Payload: frame})
	if got, dropped := r.Stats().Forwarded, r.Metrics().Counter("router.egress_dropped").Load(); got != 2 || dropped != 1 {
		t.Fatalf("forwarded %d, egress_dropped %d; want 2 and 1", got, dropped)
	}
	if !slices.ContainsFunc(r.rec.Events(), func(ev telemetry.Event) bool {
		return ev.Kind == telemetry.EventDrop && ev.Target == "router:drop:b"
	}) {
		t.Fatalf("no drop event for router:drop:b in %+v", r.rec.Events())
	}
}
