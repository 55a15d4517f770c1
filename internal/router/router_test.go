package router

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"infobus/internal/core"
	"infobus/internal/mesh"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
)

func fastReliable() reliable.Config {
	return reliable.Config{
		NakInterval:        2 * time.Millisecond,
		GapTimeout:         300 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  5 * time.Millisecond,
	}
}

func fastSeg() *transport.SimSegment {
	cfg := netsim.DefaultConfig()
	cfg.Speedup = 5000
	return transport.NewSimSegment(cfg)
}

func newBus(t *testing.T, seg transport.Segment, host string, cfg core.HostConfig) *core.Bus {
	t.Helper()
	cfg.Reliable = fastReliable()
	h, err := core.NewHost(seg, host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	b, err := h.NewBus("app")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newRouter(t *testing.T, opts Options, atts ...Attachment) *Router {
	t.Helper()
	opts.Reliable = fastReliable()
	if opts.InterestTTL == 0 {
		opts.InterestTTL = 2 * time.Second
	}
	r, err := New(opts, atts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func recvEvent(t *testing.T, sub *core.Subscription, within time.Duration) core.Event {
	t.Helper()
	select {
	case ev, ok := <-sub.C:
		if !ok {
			t.Fatal("subscription closed")
		}
		return ev
	case <-time.After(within):
		t.Fatal("timed out waiting for event")
		return core.Event{}
	}
}

// publishUntil keeps publishing a value until the subscription yields it or
// the deadline passes. Router interest tables converge asynchronously (the
// paper's routers likewise forward only after hearing a subscription), so
// the first publications may be suppressed.
func publishUntil(t *testing.T, bus *core.Bus, subj string, value any, sub *core.Subscription) core.Event {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		if err := bus.Publish(subj, value); err != nil {
			t.Fatal(err)
		}
		select {
		case ev, ok := <-sub.C:
			if !ok {
				t.Fatal("subscription closed")
			}
			return ev
		case <-deadline:
			t.Fatal("event never crossed the router")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestForwardAcrossSegments(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	newRouter(t, Options{Name: "r1"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	pub := newBus(t, segA, "pubhost", core.HostConfig{})
	con := newBus(t, segB, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("fab5.>")
	if err != nil {
		t.Fatal(err)
	}
	ev := publishUntil(t, pub, "fab5.cc.temp", int64(42), sub)
	if ev.Value != int64(42) || ev.Subject.String() != "fab5.cc.temp" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestNoForwardWithoutRemoteInterest(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	r := newRouter(t, Options{Name: "r1"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	pub := newBus(t, segA, "pubhost", core.HostConfig{})
	// Subscriber on B interested in a DIFFERENT subject.
	con := newBus(t, segB, "conhost", core.HostConfig{})
	if _, err := con.Subscribe("other.stuff"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let interest propagate
	before := segB.Network().Stats().Sent
	for i := 0; i < 10; i++ {
		if err := pub.Publish("fab5.cc.temp", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	st := r.Stats()
	if st.Forwarded != 0 {
		t.Errorf("router forwarded %d messages with no remote interest", st.Forwarded)
	}
	if st.Suppressed == 0 {
		t.Error("expected suppressed publications in stats")
	}
	// No data envelopes should have been re-published on B beyond
	// interest/heartbeat chatter; the strong check is Forwarded == 0 above.
	_ = before
}

func TestSubjectTransformation(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	newRouter(t, Options{Name: "r1"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B", Rules: []Rule{{
			Match:      subject.MustParsePattern("fab5.>"),
			FromPrefix: "fab5",
			ToPrefix:   "plants.east.fab5",
		}}},
	)
	pub := newBus(t, segA, "pubhost", core.HostConfig{})
	con := newBus(t, segB, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("plants.east.fab5.>")
	if err != nil {
		t.Fatal(err)
	}
	ev := publishUntil(t, pub, "fab5.cc.temp", "hot", sub)
	if ev.Subject.String() != "plants.east.fab5.cc.temp" {
		t.Fatalf("transformed subject = %s", ev.Subject)
	}
}

func TestChainedRoutersTransitiveInterest(t *testing.T) {
	// A -- r1 -- B -- r2 -- C: interest on C must propagate to A.
	segA, segB, segC := fastSeg(), fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	defer segC.Close()
	newRouter(t, Options{Name: "r1"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	newRouter(t, Options{Name: "r2"},
		Attachment{Segment: segB, Name: "B"},
		Attachment{Segment: segC, Name: "C"},
	)
	pub := newBus(t, segA, "pubhost", core.HostConfig{})
	con := newBus(t, segC, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("wan.news")
	if err != nil {
		t.Fatal(err)
	}
	ev := publishUntil(t, pub, "wan.news", "hello-across-two-hops", sub)
	if ev.Value != "hello-across-two-hops" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestGuaranteedAcrossRouter(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	r := newRouter(t, Options{Name: "r1"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	dir := t.TempDir()
	pubBus := newBus(t, segA, "pubhost", core.HostConfig{
		LedgerPath:    filepath.Join(dir, "pub.ledger"),
		RetryInterval: 20 * time.Millisecond,
	})
	con := newBus(t, segB, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("g.wan")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pubBus.PublishGuaranteed("g.wan", "durable"); err != nil {
		t.Fatal(err)
	}
	// The retrier re-publishes until interest has propagated and the
	// consumer acks across the router.
	deadline := time.After(15 * time.Second)
	got := false
	for !got {
		select {
		case ev := <-sub.C:
			if ev.Value == "durable" && ev.Guaranteed {
				got = true
			}
		case <-deadline:
			t.Fatal("guaranteed message never crossed router")
		}
	}
	for len(pubBus.Host().PendingGuaranteed()) > 0 {
		select {
		case <-deadline:
			t.Fatalf("ledger never drained; router stats %+v", r.Stats())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if r.Stats().AcksForwarded == 0 {
		t.Errorf("router stats = %+v, expected forwarded acks", r.Stats())
	}
}

// TestGuarPathsBounded: the ack-path table never holds more than
// maxGuarPaths origins however many distinct ones cross the router, an ack
// whose path was forgotten is counted as dropped, and a live publisher's
// next publication re-learns its path so its acks cross again.
func TestGuarPathsBounded(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	r := newRouter(t, Options{Name: "r1"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	pubBus := newBus(t, segA, "pubhost", core.HostConfig{
		LedgerPath:    filepath.Join(t.TempDir(), "pub.ledger"),
		RetryInterval: 20 * time.Millisecond,
	})
	con := newBus(t, segB, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("g.wan")
	if err != nil {
		t.Fatal(err)
	}
	acked := func(value string) {
		t.Helper()
		before := r.Stats().AcksForwarded
		if _, err := pubBus.PublishGuaranteed("g.wan", value); err != nil {
			t.Fatal(err)
		}
		for ev := recvEvent(t, sub, 15*time.Second); ev.Value != value; {
			ev = recvEvent(t, sub, 15*time.Second)
		}
		deadline := time.Now().Add(15 * time.Second)
		for len(pubBus.Host().PendingGuaranteed()) > 0 || r.Stats().AcksForwarded == before {
			if time.Now().After(deadline) {
				t.Fatalf("%q never acknowledged across the router; stats %+v", value, r.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	acked("before")
	for i := 0; i < maxGuarPaths+50; i++ {
		r.noteGuarPath([]byte(fmt.Sprintf("origin-%d", i)), r.atts[0], "sim:99")
		if n := len(r.guar); n > maxGuarPaths {
			t.Fatalf("ack-path table holds %d origins after %d insertions, cap %d", n, i+1, maxGuarPaths)
		}
	}
	if _, kept := r.guar[pubBus.Host().Daemon().Identity()]; kept {
		t.Fatal("the flood did not reset the table: the test does not exercise the bound")
	}
	dropped := r.metrics.Counter("router.egress_dropped").Load()
	r.forwardAck(r.atts[1], []byte("origin-0"), nil)
	if got := r.metrics.Counter("router.egress_dropped").Load(); got != dropped+1 {
		t.Errorf("ack for a forgotten origin: egress_dropped %d -> %d, want +1", dropped, got)
	}
	acked("after")
}

func TestRouterLogging(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	var mu sync.Mutex
	var sb strings.Builder
	syncW := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	newRouter(t, Options{Name: "logr", Log: syncW},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	pub := newBus(t, segA, "pubhost", core.HostConfig{})
	con := newBus(t, segB, "conhost", core.HostConfig{})
	sub, _ := con.Subscribe("logged.subject")
	publishUntil(t, pub, "logged.subject", int64(1), sub)
	mu.Lock()
	out := sb.String()
	mu.Unlock()
	if !strings.Contains(out, "logged.subject") || !strings.Contains(out, "A -> B") {
		t.Errorf("log = %q", out)
	}
}

func TestNewRouterValidation(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	if _, err := New(Options{Name: "r"}, Attachment{Segment: seg, Name: "only"}); err != ErrFewSegments {
		t.Errorf("error = %v, want ErrFewSegments", err)
	}
	// The name is the mesh router id: an empty one cannot be unique.
	if _, err := New(Options{}, Attachment{Segment: seg, Name: "a"}, Attachment{Segment: seg, Name: "b"}); err != ErrNoName {
		t.Errorf("error = %v, want ErrNoName", err)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestParallelRoutersElectOneForwarder: two routers bridging the same pair
// of segments are a forwarding loop waiting to happen — with subscribers on
// both sides the interest filter does not break it. The election does: the
// higher-named router blocks one port, the subscriber sees each
// publication exactly once, and the hop budget never has to fire.
func TestParallelRoutersElectOneForwarder(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	r1 := newRouter(t, Options{Name: "r1", Mesh: fastMesh()},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	r2 := newRouter(t, Options{Name: "r2", Mesh: fastMesh()},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	waitBlockedPorts(t, 1, r1, r2)
	pub := newBus(t, segA, "pubhost", core.HostConfig{})
	con := newBus(t, segB, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("loop.>")
	if err != nil {
		t.Fatal(err)
	}
	conA := newBus(t, segA, "conhostA", core.HostConfig{})
	if _, err := conA.Subscribe("loop.>"); err != nil {
		t.Fatal(err)
	}
	publishUntil(t, pub, "loop.warm", int64(0), sub)
	if err := pub.Publish("loop.unique", int64(1)); err != nil {
		t.Fatal(err)
	}
	if copies := countCopies(sub, "loop.unique", 400*time.Millisecond); copies != 1 {
		t.Fatalf("subscriber saw %d copies across the parallel pair, want exactly 1", copies)
	}
	if lost := r1.Stats().LoopDropped + r2.Stats().LoopDropped; lost != 0 {
		t.Errorf("hop limit fired %d times on a loop-free tree", lost)
	}
}

// TestSameNameParallelRoutersBoundedByHopBudget is the pathology the hop
// budget exists for: a parallel pair that shares one name never elects
// (each discards the other's hellos as its own and stays root, every port
// forwarding), and the interest filter does not break the loop — each twin
// asks either segment for what it hears on the other. Only the envelope hop budget ends the ping-pong:
// the subscriber sees a bounded number of copies and the routers count
// loop drops instead of spinning forever.
func TestSameNameParallelRoutersBoundedByHopBudget(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	var twins [2]*Router
	for i := range twins {
		twins[i] = newRouter(t, Options{Name: "twin", Mesh: fastMesh()},
			Attachment{Segment: segA, Name: "A"},
			Attachment{Segment: segB, Name: "B"},
		)
	}
	pub := newBus(t, segA, "pubhost", core.HostConfig{})
	con := newBus(t, segB, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("loop.test")
	if err != nil {
		t.Fatal(err)
	}
	conA := newBus(t, segA, "conhostA", core.HostConfig{})
	if _, err := conA.Subscribe("loop.test"); err != nil {
		t.Fatal(err)
	}
	// The loop needs both twins to hold both segments' interest.
	subj := subject.MustParse("loop.test")
	waitFor(t, "both twins to hear both subscribers", func() bool {
		return twins[0].WantsOn("A", subj) && twins[0].WantsOn("B", subj) &&
			twins[1].WantsOn("A", subj) && twins[1].WantsOn("B", subj)
	})
	if err := pub.Publish("loop.test", int64(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the hop budget to end the ping-pong", func() bool {
		return twins[0].Stats().LoopDropped+twins[1].Stats().LoopDropped > 0
	})
	// One publication reaches B once per twin at every odd hop count
	// below the budget: mesh.MaxHops copies, and then silence.
	if copies := countCopies(sub, "loop.test", 300*time.Millisecond); copies == 0 || copies > mesh.MaxHops {
		t.Errorf("subscriber saw %d copies of one publication, want 1..%d", copies, mesh.MaxHops)
	}
	if late := countCopies(sub, "loop.test", 100*time.Millisecond); late != 0 {
		t.Errorf("%d copies still arriving after the budget fired", late)
	}
	if blockedPorts(twins[:]...) != 0 {
		t.Errorf("same-named routers elected: %+v %+v", twins[0].MeshStatus(), twins[1].MeshStatus())
	}
}

// countCopies drains the subscription for the window and counts the
// deliveries on one subject.
func countCopies(sub *core.Subscription, subj string, window time.Duration) int {
	copies := 0
	drain := time.After(window)
	for {
		select {
		case ev := <-sub.C:
			if ev.Subject.String() == subj {
				copies++
			}
		case <-drain:
			return copies
		}
	}
}

func TestWantsOnReportsInterest(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	r := newRouter(t, Options{Name: "r"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	subj := subject.MustParse("w.x")
	if r.WantsOn("B", subj) {
		t.Error("interest reported before any subscription")
	}
	con := newBus(t, segB, "conhost", core.HostConfig{})
	if _, err := con.Subscribe("w.>"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for !r.WantsOn("B", subj) {
		select {
		case <-deadline:
			t.Fatal("interest never propagated to the router")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if r.WantsOn("nonexistent", subj) {
		t.Error("unknown attachment reported interest")
	}
}

// TestUnsubscribeStopsForwardingAtNextAd: a host's advertisement replaces
// its last one, so a pattern a live daemon has unsubscribed stops crossing
// the router at the daemon's next advertisement (a ~2 ms debounce after the
// cancel) — not an InterestTTL later, which here is an hour. First with
// another subscription left on the host (the new set replaces the old), then
// with none (the daemon says the empty set once and its entry goes).
func TestUnsubscribeStopsForwardingAtNextAd(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	r := newRouter(t, Options{Name: "r1", InterestTTL: time.Hour},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	pub := newBus(t, segA, "pubhost", core.HostConfig{})
	con := newBus(t, segB, "conhost", core.HostConfig{})
	var subs []*core.Subscription
	subjects := []string{"first.x", "last.x"}
	for _, subj := range subjects {
		sub, err := con.Subscribe(strings.TrimSuffix(subj, "x") + ">")
		if err != nil {
			t.Fatal(err)
		}
		publishUntil(t, pub, subj, int64(1), sub)
		subs = append(subs, sub)
	}
	for i, subj := range subjects {
		subs[i].Cancel()
		waitFor(t, "the router to stop wanting "+subj+" on B", func() bool {
			return !r.WantsOn("B", subject.MustParse(subj))
		})
		before := r.Stats()
		if err := pub.Publish(subj, int64(2)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the publication after the cancel to be suppressed", func() bool {
			return r.Stats().Suppressed == before.Suppressed+1
		})
		if got := r.Stats().Forwarded; got != before.Forwarded {
			t.Errorf("%s: forwarded %d publications after the cancel", subj, got-before.Forwarded)
		}
	}
}

// TestOneElementSubjectSurvivesAggregation: a host over the advertisement
// cap still receives a one-element subject across a router. Aggregation
// used to advertise the literal "foo" as "foo.>", which does not match the
// subject "foo", so the router silently stopped forwarding it.
func TestOneElementSubjectSurvivesAggregation(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	newRouter(t, Options{Name: "r1"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	pub := newBus(t, segA, "pubhost", core.HostConfig{})
	con := newBus(t, segB, "conhost", core.HostConfig{})
	for i := 0; i < 70; i++ {
		if _, err := con.Subscribe(fmt.Sprintf("bulk.s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := con.Subscribe("foo")
	if err != nil {
		t.Fatal(err)
	}
	if ev := publishUntil(t, pub, "foo", int64(7), sub); ev.Subject.String() != "foo" || ev.Value != int64(7) {
		t.Fatalf("event = %+v", ev)
	}
}

// routerGoroutines counts the live goroutines router.New started when the
// calling goroutine called it, and everything else that goroutine's calls
// started (the attachments' conns): other tests' routers do not count.
func routerGoroutines() (own, all int) {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			stacks := string(buf[:n])
			self := " in goroutine " + strings.Fields(stacks)[1] + "\n" // the caller's trace comes first
			return strings.Count(stacks, "created by infobus/internal/router.New"+self), strings.Count(stacks, self)
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestOneLoopPerRouter: with the stats and health tiers on a router runs one
// goroutine per attachment and one housekeeping loop — the mesh's, which
// also hands the "_sys" agent the time — beside its conns' own, and Close
// leaves none.
func TestOneLoopPerRouter(t *testing.T) {
	const attachments = 3
	atts := make([]Attachment, attachments)
	for i := range atts {
		atts[i] = Attachment{Segment: &nullSegment{}, Name: fmt.Sprintf("seg%d", i)}
	}
	r, err := New(Options{
		Name: "counted", Reliable: quietReliable(), StatsInterval: time.Second,
		Health: telemetry.HealthConfig{Interval: time.Second},
	}, atts...)
	if err != nil {
		t.Fatal(err)
	}
	if own, all := routerGoroutines(); own != attachments+1 || all != 2*attachments+1 {
		t.Errorf("router.New started %d goroutines of %d in all, want %d (attachments + 1) of %d (a conn loop each)",
			own, all, attachments+1, 2*attachments+1)
	}
	_ = r.Close()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		_, all := routerGoroutines()
		if all == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after Close", all)
		}
	}
}
