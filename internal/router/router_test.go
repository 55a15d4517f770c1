package router

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"infobus/internal/core"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/subject"
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
	if _, err := New(Options{}, Attachment{Segment: seg, Name: "only"}); err != ErrFewSegments {
		t.Errorf("error = %v, want ErrFewSegments", err)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestParallelRoutersBoundedByHopLimit(t *testing.T) {
	// Two routers bridging the same pair of segments form a forwarding
	// loop. The hop count must bound the ping-pong: the subscriber sees a
	// bounded number of copies and the routers report loop drops instead
	// of spinning forever.
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	r1 := newRouter(t, Options{Name: "r1"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	r2 := newRouter(t, Options{Name: "r2"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	pub := newBus(t, segA, "pubhost", core.HostConfig{})
	con := newBus(t, segB, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("loop.test")
	if err != nil {
		t.Fatal(err)
	}
	// Interest on BOTH segments defeats the interest filter's natural
	// loop suppression, so only the hop count bounds the ping-pong.
	conA := newBus(t, segA, "conhostA", core.HostConfig{})
	if _, err := conA.Subscribe("loop.test"); err != nil {
		t.Fatal(err)
	}
	publishUntil(t, pub, "loop.test", int64(1), sub)
	copies := 1
	drainDeadline := time.After(500 * time.Millisecond)
drain:
	for {
		select {
		case <-sub.C:
			copies++
			if copies > 100 {
				t.Fatal("unbounded forwarding loop")
			}
		case <-drainDeadline:
			break drain
		}
	}
	st1, st2 := r1.Stats(), r2.Stats()
	if st1.LoopDropped+st2.LoopDropped == 0 {
		t.Errorf("no loop drops recorded: r1=%+v r2=%+v (copies=%d)", st1, st2, copies)
	}
	t.Logf("copies=%d r1=%+v r2=%+v", copies, st1, st2)
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
