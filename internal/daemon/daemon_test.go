package daemon

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/ledger"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
	"infobus/internal/wire"
)

// newSegment returns a fast simulated segment, closed after the test's other
// cleanups, and the millisecond-scale protocol timers to run on it.
func newSegment(t *testing.T) (*transport.SimSegment, reliable.Config) {
	t.Helper()
	cfg := netsim.DefaultConfig()
	cfg.Speedup = 5000
	seg := transport.NewSimSegment(cfg)
	t.Cleanup(func() { _ = seg.Close() })
	return seg, reliable.Config{
		NakInterval:        2 * time.Millisecond,
		GapTimeout:         300 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  5 * time.Millisecond,
	}
}

func newEndpoint(t *testing.T, seg *transport.SimSegment, name string) transport.Endpoint {
	t.Helper()
	ep, err := seg.NewEndpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func newPair(t *testing.T) (*Daemon, *Daemon) {
	t.Helper()
	seg, rcfg := newSegment(t)
	da, db := New(newEndpoint(t, seg, "a"), rcfg, Options{}), New(newEndpoint(t, seg, "b"), rcfg, Options{})
	t.Cleanup(func() {
		_ = da.Close()
		_ = db.Close()
	})
	return da, db
}

func nextDelivery(t *testing.T, c *Client, within time.Duration) Delivery {
	t.Helper()
	stop := make(chan struct{})
	timer := time.AfterFunc(within, func() { close(stop) })
	defer timer.Stop()
	dv, ok := c.Next(stop)
	if !ok {
		t.Fatal("no delivery within deadline")
	}
	return dv
}

func TestSubjectRoutingBetweenDaemons(t *testing.T) {
	da, db := newPair(t)
	cb, err := db.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.Subscribe(subject.MustParsePattern("fab5.>")); err != nil {
		t.Fatal(err)
	}
	if err := da.Publish(subject.MustParse("fab5.cc.temp"), []byte("98")); err != nil {
		t.Fatal(err)
	}
	dv := nextDelivery(t, cb, 5*time.Second)
	if dv.Subject.String() != "fab5.cc.temp" || string(dv.Payload) != "98" {
		t.Errorf("delivery = %+v", dv)
	}
	if dv.From != da.Addr() {
		t.Errorf("from = %q", dv.From)
	}
	// Non-matching subject is filtered by the daemon (stats, no delivery).
	if err := da.Publish(subject.MustParse("other.topic"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if cb.Pending() != 0 {
		t.Errorf("pending = %d after non-matching publish", cb.Pending())
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	da, db := newPair(t)
	cb, _ := db.NewClient("app")
	pat := subject.MustParsePattern("s.t")
	_ = cb.Subscribe(pat)
	_ = da.Publish(subject.MustParse("s.t"), []byte("1"))
	nextDelivery(t, cb, 5*time.Second)
	_ = cb.Unsubscribe(pat)
	_ = da.Publish(subject.MustParse("s.t"), []byte("2"))
	time.Sleep(30 * time.Millisecond)
	if cb.Pending() != 0 {
		t.Error("delivery after unsubscribe")
	}
}

func TestLocalLoopbackAndFanout(t *testing.T) {
	da, _ := newPair(t)
	c1, _ := da.NewClient("one")
	c2, _ := da.NewClient("two")
	_ = c1.Subscribe(subject.MustParsePattern("local.x"))
	_ = c2.Subscribe(subject.MustParsePattern("local.>"))
	if err := da.Publish(subject.MustParse("local.x"), []byte("loop")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{c1, c2} {
		dv := nextDelivery(t, c, 5*time.Second)
		if string(dv.Payload) != "loop" {
			t.Errorf("payload = %q", dv.Payload)
		}
	}
	st := da.Stats()
	if st.DeliveredLocal != 2 {
		t.Errorf("DeliveredLocal = %d", st.DeliveredLocal)
	}
}

// TestPublishLentCopiesOnceWhenMatched: every publish call borrows its
// payload. Local clients get one copy they share, and the publisher's writes
// after the call never reach it.
func TestPublishLentCopiesOnceWhenMatched(t *testing.T) {
	da, _ := newPair(t)
	c1, _ := da.NewClient("one")
	c2, _ := da.NewClient("two")
	for _, c := range []*Client{c1, c2} {
		_ = c.Subscribe(subject.MustParsePattern("lend.x"))
	}
	subj := subject.MustParse("lend.x")
	for name, publish := range map[string]func([]byte) error{
		"Publish":           func(p []byte) error { return da.Publish(subj, p) },
		"PublishCompact":    func(p []byte) error { return da.PublishCompact(subj, p) },
		"PublishGuaranteed": func(p []byte) error { return da.PublishGuaranteed(subj, p, 7) },
		"PublishGuaranteedAs": func(p []byte) error {
			_, err := da.PublishGuaranteedAs(subj, p, 7, "sim:9#dead", ledger.AppendTimings{}, false)
			return err
		},
	} {
		payload := []byte("lent")
		if err := publish(payload); err != nil {
			t.Fatal(err)
		}
		copy(payload, "XXXX") // the lender's buffer is its own again
		d1, ok1 := c1.TryNext()
		d2, ok2 := c2.TryNext()
		if !ok1 || !ok2 || string(d1.Payload) != "lent" || &d1.Payload[0] != &d2.Payload[0] {
			t.Fatalf("%s: deliveries %q and %q, want one copy of %q shared", name, d1.Payload, d2.Payload, "lent")
		}
	}
}

func TestGuaranteedAckFlow(t *testing.T) {
	da, db := newPair(t)
	acked := make(chan uint64, 1)
	da.OnGuaranteeAck(func(id uint64, from string) { acked <- id })

	cb, _ := db.NewClient("db-writer")
	_ = cb.Subscribe(subject.MustParsePattern("g.>"))
	if err := da.PublishGuaranteed(subject.MustParse("g.row"), []byte("insert"), 77); err != nil {
		t.Fatal(err)
	}
	dv := nextDelivery(t, cb, 5*time.Second)
	if !dv.Guaranteed || dv.ID != 77 {
		t.Errorf("delivery = %+v", dv)
	}
	select {
	case id := <-acked:
		if id != 77 {
			t.Errorf("acked id = %d", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ack never arrived")
	}
	if db.Stats().GuarAcksSent != 1 {
		t.Errorf("consumer stats = %+v", db.Stats())
	}
}

func TestGuaranteedNoAckWithoutSubscriber(t *testing.T) {
	da, db := newPair(t)
	acked := make(chan uint64, 1)
	da.OnGuaranteeAck(func(id uint64, from string) { acked <- id })
	// db has no subscribing client.
	if err := da.PublishGuaranteed(subject.MustParse("g.row"), []byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-acked:
		t.Errorf("spurious ack %d", id)
	case <-time.After(50 * time.Millisecond):
	}
	_ = db
}

func TestGuaranteedLocalSelfAck(t *testing.T) {
	da, _ := newPair(t)
	acked := make(chan uint64, 1)
	da.OnGuaranteeAck(func(id uint64, from string) { acked <- id })
	c, _ := da.NewClient("local-db")
	_ = c.Subscribe(subject.MustParsePattern("g.x"))
	if err := da.PublishGuaranteed(subject.MustParse("g.x"), []byte("v"), 9); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-acked:
		if id != 9 {
			t.Errorf("acked id = %d", id)
		}
	case <-time.After(time.Second):
		t.Fatal("local self-ack missing")
	}
}

func TestClientCloseAndDaemonClose(t *testing.T) {
	da, db := newPair(t)
	c, _ := db.NewClient("app")
	_ = c.Subscribe(subject.MustParsePattern("s.>"))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(subject.MustParsePattern("t.>")); !errors.Is(err, ErrClosed) {
		t.Errorf("subscribe after close = %v", err)
	}
	_ = da.Publish(subject.MustParse("s.x"), []byte("gone"))
	time.Sleep(30 * time.Millisecond)
	if c.Pending() != 0 {
		t.Error("delivery to closed client")
	}
	if _, ok := c.TryNext(); ok {
		t.Error("TryNext on closed empty client")
	}
	// Daemon close rejects new clients and publishes.
	_ = db.Close()
	if _, err := db.NewClient("late"); !errors.Is(err, ErrClosed) {
		t.Errorf("NewClient after close = %v", err)
	}
	if err := db.Publish(subject.MustParse("a.b"), nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after close = %v", err)
	}
}

func TestGuaranteedRetransmissionDeduplicated(t *testing.T) {
	da, db := newPair(t)
	cb, _ := db.NewClient("db-writer")
	_ = cb.Subscribe(subject.MustParsePattern("g.dup"))
	// The publisher retransmits the same (origin, id) three times, as the
	// guaranteed-delivery retrier does until an ack lands.
	for i := 0; i < 3; i++ {
		if err := da.PublishGuaranteed(subject.MustParse("g.dup"), []byte("once"), 5); err != nil {
			t.Fatal(err)
		}
	}
	dv := nextDelivery(t, cb, 5*time.Second)
	if string(dv.Payload) != "once" {
		t.Fatalf("payload = %q", dv.Payload)
	}
	time.Sleep(50 * time.Millisecond)
	if cb.Pending() != 0 {
		t.Errorf("retransmissions delivered %d duplicate(s)", cb.Pending())
	}
	// A DIFFERENT id is a new message and must be delivered.
	if err := da.PublishGuaranteed(subject.MustParse("g.dup"), []byte("two"), 6); err != nil {
		t.Fatal(err)
	}
	if dv := nextDelivery(t, cb, 5*time.Second); string(dv.Payload) != "two" {
		t.Fatalf("second payload = %q", dv.Payload)
	}
}

func TestGuaranteedLateSubscriberStillServed(t *testing.T) {
	da, db := newPair(t)
	// First transmission has no subscriber anywhere: not recorded as
	// delivered, so a later retry must still deliver.
	if err := da.PublishGuaranteed(subject.MustParse("g.late"), []byte("v"), 9); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	cb, _ := db.NewClient("late-db")
	_ = cb.Subscribe(subject.MustParsePattern("g.late"))
	// The retry (same id) reaches the late subscriber.
	if err := da.PublishGuaranteed(subject.MustParse("g.late"), []byte("v"), 9); err != nil {
		t.Fatal(err)
	}
	if dv := nextDelivery(t, cb, 5*time.Second); string(dv.Payload) != "v" {
		t.Fatalf("payload = %q", dv.Payload)
	}
}

// TestGuarRingEviction pushes the dedup window well past 2x its capacity
// and checks the fixed-size ring: the set never exceeds the cap, the
// newest cap keys stay deduplicated, the oldest are forgotten, and
// re-recording a seen key is idempotent (no ring slot burned).
func TestGuarRingEviction(t *testing.T) {
	old := guarSeenCap
	guarSeenCap = 8
	defer func() { guarSeenCap = old }()
	da, _ := newPair(t)
	record := func(origin string, id uint64) {
		if claimed, _ := da.guarBegin(origin, id); claimed {
			da.guarEnd(origin, id, true)
		}
	}
	seenKey := func(origin string, id uint64) bool {
		da.mu.Lock()
		defer da.mu.Unlock()
		_, ok := da.guarSeen[guarKey{origin: origin, id: id}]
		return ok
	}
	const total = 20 // > 2x cap
	for id := uint64(0); id < total; id++ {
		record("origin-a", id)
		// Idempotent re-record: must not consume another ring slot.
		record("origin-a", id)
	}
	da.mu.Lock()
	seen, ringLen := len(da.guarSeen), len(da.guarRing)
	da.mu.Unlock()
	if seen != 8 || ringLen != 8 {
		t.Fatalf("seen=%d ring=%d, want cap=8 for both", seen, ringLen)
	}
	for id := uint64(total - 8); id < total; id++ {
		if !seenKey("origin-a", id) {
			t.Errorf("id %d within the window was forgotten", id)
		}
	}
	for id := uint64(0); id < total-8; id++ {
		if seenKey("origin-a", id) {
			t.Errorf("id %d beyond the window still seen", id)
		}
	}
	// Distinct origins with equal ids are distinct keys.
	record("origin-b", total-1)
	if !seenKey("origin-b", total-1) || !seenKey("origin-a", total-1) {
		t.Error("(origin, id) keys collided across origins")
	}
}

// TestGuaranteedLateSubscriberAfterEviction is the network-level eviction
// scenario: a guaranteed message is still being retried while the consumer
// daemon's dedup window churns through more than its capacity of OTHER
// guaranteed deliveries. A subscriber appearing only then must receive the
// retried message exactly once — the churn must neither deliver duplicates
// nor lose the pending message.
func TestGuaranteedLateSubscriberAfterEviction(t *testing.T) {
	old := guarSeenCap
	guarSeenCap = 8
	defer func() { guarSeenCap = old }()
	da, db := newPair(t)

	// No subscriber for g.target yet: retries are accepted, nothing recorded.
	target := subject.MustParse("g.target")
	if err := da.PublishGuaranteed(target, []byte("pending"), 999); err != nil {
		t.Fatal(err)
	}

	// Churn the consumer's dedup window: > 2x cap distinct guaranteed
	// deliveries on another subject, each consumed by a live subscriber.
	filler, _ := db.NewClient("filler")
	_ = filler.Subscribe(subject.MustParsePattern("g.fill"))
	fill := subject.MustParse("g.fill")
	for id := uint64(1); id <= 20; id++ {
		if err := da.PublishGuaranteed(fill, []byte("f"), id); err != nil {
			t.Fatal(err)
		}
		nextDelivery(t, filler, 5*time.Second)
	}

	// The late subscriber appears after the evictions...
	late, _ := db.NewClient("late")
	_ = late.Subscribe(subject.MustParsePattern("g.target"))
	// ...and the publisher's retries continue (same id, as the ledger
	// retrier does until acked).
	for i := 0; i < 3; i++ {
		if err := da.PublishGuaranteed(target, []byte("pending"), 999); err != nil {
			t.Fatal(err)
		}
	}
	if dv := nextDelivery(t, late, 5*time.Second); string(dv.Payload) != "pending" || dv.ID != 999 {
		t.Fatalf("delivery = %q id %d", dv.Payload, dv.ID)
	}
	time.Sleep(50 * time.Millisecond)
	if n := late.Pending(); n != 0 {
		t.Errorf("late subscriber received %d duplicate(s)", n)
	}
}

// muteSends is an endpoint whose unicast sends vanish while muted. On a
// publisher, that silences its reliable layer's acknowledgements of the ack
// frames consumers send it, so a consumer's unicast window to it stays full.
type muteSends struct {
	transport.Endpoint
	muted atomic.Bool
}

func (e *muteSends) Send(addr string, frame []byte) error {
	if e.muted.Load() {
		return nil
	}
	return e.Endpoint.Send(addr, frame)
}

// ackLog collects the ids a publisher's OnGuaranteeAck callback is handed.
type ackLog struct {
	ch  chan uint64
	got map[uint64]int
}

func newAckLog(d *Daemon) *ackLog {
	l := &ackLog{ch: make(chan uint64, 1024), got: make(map[uint64]int)}
	d.OnGuaranteeAck(func(id uint64, _ string) { l.ch <- id })
	return l
}

// await reads acks until id has been acknowledged or within has passed, and
// reports whether it was.
func (l *ackLog) await(id uint64, within time.Duration) bool {
	deadline := time.After(within)
	for l.got[id] == 0 {
		select {
		case a := <-l.ch:
			l.got[a]++
		case <-deadline:
			return false
		}
	}
	return true
}

// settle reads whatever acks are still arriving for a while.
func (l *ackLog) settle() {
	for {
		select {
		case a := <-l.ch:
			l.got[a]++
		case <-time.After(30 * time.Millisecond):
			return
		}
	}
}

// TestGuarAckDropCounted: an acknowledgement the conn refuses is kept, not
// dropped. The consumer's unicast window holds two frames and the
// publisher's reliable layer cannot acknowledge them, so the third flush is
// refused; once the window frees, the next flush carries the refused id,
// every id reaches onAck exactly once with no publisher retransmission, and
// nothing is counted or recorded as dropped.
func TestGuarAckDropCounted(t *testing.T) {
	seg, rcfg := newSegment(t)
	pubEp := &muteSends{Endpoint: newEndpoint(t, seg, "pub")}
	ccfg := rcfg
	ccfg.Window = 2
	rec := telemetry.NewRecorder(8)
	da, db := New(pubEp, rcfg, Options{}), New(newEndpoint(t, seg, "sub"), ccfg, Options{Recorder: rec})
	t.Cleanup(func() {
		_ = da.Close()
		_ = db.Close()
	})
	acks := newAckLog(da)
	c, _ := db.NewClient("app")
	_ = c.Subscribe(subject.MustParsePattern("g.>"))
	subj := subject.MustParse("g.x")
	publish := func(id uint64) {
		t.Helper()
		if err := da.PublishGuaranteed(subj, []byte("v"), id); err != nil {
			t.Fatal(err)
		}
		if dv := nextDelivery(t, c, 5*time.Second); dv.ID != id {
			t.Fatalf("delivered id %d, want %d", dv.ID, id)
		}
	}
	pubEp.muted.Store(true)
	for id := uint64(1); id <= 2; id++ {
		publish(id)
		if !acks.await(id, 5*time.Second) {
			t.Fatalf("id %d never acknowledged", id)
		}
	}
	publish(3)
	time.Sleep(20 * time.Millisecond) // the consumer's third flush: refused
	pubEp.muted.Store(false)
	last := uint64(3)
	for !acks.await(3, 20*time.Millisecond) {
		if last == 40 {
			t.Fatal("the refused acknowledgement of id 3 never went out")
		}
		last++
		publish(last) // new ids, not retransmissions: each flushes the lane
	}
	for id := uint64(1); id <= last; id++ {
		if !acks.await(id, 5*time.Second) {
			t.Fatalf("id %d never acknowledged", id)
		}
	}
	acks.settle()
	for id := uint64(1); id <= last; id++ {
		if acks.got[id] != 1 {
			t.Errorf("id %d acknowledged %d times", id, acks.got[id])
		}
	}
	if got := db.Metrics().Counter("daemon.guar_ack_dropped").Load(); got != 0 {
		t.Errorf("guar_ack_dropped = %d, want 0", got)
	}
	for _, ev := range rec.Events() { // the reliable layer's retransmissions share the recorder
		if ev.Kind == telemetry.EventDrop && ev.Target == "guar-ack" {
			t.Errorf("recorded %+v", ev)
		}
	}
}

// ackTap is an endpoint that records the distinct guaranteed-ack frames its
// daemon sends: a retransmission of a frame is the same frame.
type ackTap struct {
	transport.Endpoint
	mu     sync.Mutex
	frames map[string]bool
}

func (e *ackTap) Send(addr string, frame []byte) error {
	for _, p := range reliable.DecodeDataPayloads(frame) {
		if h, err := busproto.Peek(p); err == nil && h.Kind == busproto.KindGuarAck {
			e.mu.Lock()
			e.frames[string(p)] = true
			e.mu.Unlock()
		}
	}
	return e.Endpoint.Send(addr, frame)
}

// TestGuarAcksCoalesce: a batch of guaranteed publications to a remote
// daemon is acknowledged id by id, each exactly once, in fewer ack frames
// than publications.
func TestGuarAcksCoalesce(t *testing.T) {
	seg, rcfg := newSegment(t)
	pcfg := rcfg
	pcfg.Batching = true
	tap := &ackTap{Endpoint: newEndpoint(t, seg, "sub"), frames: make(map[string]bool)}
	da, db := New(newEndpoint(t, seg, "pub"), pcfg, Options{}), New(tap, rcfg, Options{})
	t.Cleanup(func() {
		_ = da.Close()
		_ = db.Close()
	})
	acks := newAckLog(da)
	c, _ := db.NewClient("app")
	_ = c.Subscribe(subject.MustParsePattern("g.>"))
	const n = 64
	for id := uint64(1); id <= n; id++ {
		if err := da.PublishGuaranteed(subject.MustParse(fmt.Sprintf("g.s%d", id%5)), []byte("v"), id); err != nil {
			t.Fatal(err)
		}
	}
	_ = da.Flush()
	for id := uint64(1); id <= n; id++ {
		if !acks.await(id, 5*time.Second) {
			t.Fatalf("id %d never acknowledged", id)
		}
	}
	acks.settle()
	for id := uint64(1); id <= n; id++ {
		if acks.got[id] != 1 {
			t.Errorf("id %d acknowledged %d times", id, acks.got[id])
		}
	}
	tap.mu.Lock()
	frames := len(tap.frames)
	tap.mu.Unlock()
	t.Logf("%d publications, %d ack frames", n, frames)
	if frames >= n {
		t.Errorf("%d ack frames for %d publications, want fewer", frames, n)
	}
	if got := db.Stats().GuarAcksSent; got != n {
		t.Errorf("guar_acks_sent = %d, want %d: it counts ids, not frames", got, n)
	}
	if got := da.Stats().GuarAcksRecv; got != n {
		t.Errorf("guar_acks_recv = %d, want %d: it counts ids, not frames", got, n)
	}
}

// interestListener is a bare protocol endpoint on the daemon's segment: it
// sees the interest advertisements a router would.
func interestListener(t *testing.T, opts Options) (*Daemon, *reliable.Conn) {
	t.Helper()
	seg, rcfg := newSegment(t)
	d, l := New(newEndpoint(t, seg, "host"), rcfg, opts), reliable.New(newEndpoint(t, seg, "listener"), rcfg)
	t.Cleanup(func() {
		_ = d.Close()
		_ = l.Close()
	})
	return d, l
}

// awaitInterest reads advertisements off the listener until one lists
// exactly want.
func awaitInterest(t *testing.T, l *reliable.Conn, want ...string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	var last []string
	for {
		select {
		case m := <-l.Recv():
			env, err := busproto.Decode(m.Payload)
			if err != nil || env.Kind != busproto.KindInterest {
				continue
			}
			if last = env.Patterns; slices.Equal(last, want) {
				return
			}
		case <-deadline:
			t.Fatalf("no advertisement of %v; last was %v", want, last)
		}
	}
}

// TestEnvelopeKindFollowsPayload: the payload says what it is — one that
// starts with the compact wire header goes out under the compact envelope
// kind, ordinary or guaranteed, whichever publish entry point carried it;
// any other goes out under the plain kind.
func TestEnvelopeKindFollowsPayload(t *testing.T) {
	d, l := interestListener(t, Options{})
	s := subject.MustParse("k.x")
	plain, compact := []byte("plain"), []byte{wire.Magic0, wire.Magic1, wire.VersionCompact, 0, 0, 0}
	sends := []struct {
		send func() error
		want byte
	}{
		{func() error { return d.Publish(s, plain) }, busproto.KindPublish},
		{func() error { return d.Publish(s, compact) }, busproto.KindPublishCompact},
		{func() error { return d.PublishGuaranteed(s, plain, 1) }, busproto.KindGuaranteed},
		{func() error { return d.PublishGuaranteed(s, compact, 2) }, busproto.KindGuaranteedCompact},
		{func() error {
			_, err := d.PublishGuaranteedAs(s, compact, 3, "sim:9#dead", ledger.AppendTimings{}, false)
			return err
		}, busproto.KindGuaranteedCompact},
	}
	for i, c := range sends {
		if err := c.send(); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-l.Recv():
			if env, err := busproto.Decode(m.Payload); err != nil || env.Kind != c.want {
				t.Fatalf("send %d: envelope kind %d (%v), want %d", i, env.Kind, err, c.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("send %d never reached the wire", i)
		}
	}
}

// TestClosedClientLeavesAdvertisement: a closed application's patterns
// leave the advertisement with no other subscription change to flush them
// out (the advertisement used to be served from a cache Close did not
// invalidate, refreshing the routers' TTL for the dead patterns forever).
func TestClosedClientLeavesAdvertisement(t *testing.T) {
	d, l := interestListener(t, Options{})
	a, _ := d.NewClient("a")
	b, _ := d.NewClient("b")
	_ = a.Subscribe(subject.MustParsePattern("gone.x"))
	_ = a.Subscribe(subject.MustParsePattern("gone.y.>"))
	_ = b.Subscribe(subject.MustParsePattern("kept.z"))
	d.AdvertiseInterest()
	awaitInterest(t, l, "gone.x", "gone.y.>", "kept.z")
	_ = a.Close()
	d.AdvertiseInterest()
	awaitInterest(t, l, "kept.z")
}

// tap is a transport endpoint that hears nothing and records, in order, the
// pattern list of every interest advertisement its daemon broadcasts and the
// ids of every guaranteed-ack frame it sends — or refuses the send while
// refuse is set, as a full unicast window would. A conn sends synchronously,
// so a frame is recorded before the call that sent it returns.
type tap struct {
	recv   chan transport.Datagram
	mu     sync.Mutex
	refuse bool
	ads    [][]string
	acks   [][]uint64
}

func (e *tap) Addr() string                    { return "tap" }
func (e *tap) Recv() <-chan transport.Datagram { return e.recv }
func (e *tap) Close() error                    { return nil }

func (e *tap) Broadcast(frame []byte) error {
	for _, p := range reliable.DecodeDataPayloads(frame) {
		if env, err := busproto.Decode(p); err == nil && env.Kind == busproto.KindInterest {
			e.mu.Lock()
			e.ads = append(e.ads, env.Patterns)
			e.mu.Unlock()
		}
	}
	return nil
}

func (e *tap) Send(_ string, frame []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.refuse {
		return errors.New("window full")
	}
	for _, p := range reliable.DecodeDataPayloads(frame) {
		if env, err := busproto.Decode(p); err == nil && env.Kind == busproto.KindGuarAck {
			ids := env.Acked
			if ids == nil {
				ids = []uint64{env.ID}
			}
			e.acks = append(e.acks, ids)
		}
	}
	return nil
}

// sentAds returns the advertisements recorded so far, in order.
func (e *tap) sentAds() [][]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.ads)
}

// sentAcks returns the ack frames recorded so far, in order.
func (e *tap) sentAcks() [][]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.acks)
}

func (e *tap) setRefuse(v bool) {
	e.mu.Lock()
	e.refuse = v
	e.mu.Unlock()
}

// newTapped is a one-lane daemon on a tap. No protocol timer of its conn
// comes due within a test, so every frame the tap records is one the daemon
// sent, and none of the daemon's goroutines wakes unless the test hands it
// work. The tap never acknowledges a unicast frame, so the conn's window
// holds more frames than a test sends (TestAckTickRacesWorker sends up to
// one per id): with the default 1 024 a fast tick filled it, and the sends
// it then refused looked like ids never acknowledged.
func newTapped(t *testing.T) (*Daemon, *tap) {
	tp := &tap{recv: make(chan transport.Datagram)}
	quiet := reliable.Config{NakInterval: time.Hour, HeartbeatInterval: time.Hour, RetransmitInterval: time.Hour, Window: 4096}
	d := New(tp, quiet, Options{DeliveryLanes: 1})
	t.Cleanup(func() { _ = d.Close() })
	return d, tp
}

// virtualStart is where tests on virtual time start the clock.
var virtualStart = time.Unix(1000, 0)

// TestInterestOnVirtualTime: the interest policy, ticked as a host's loop
// ticks it. A burst of changes is advertised once, interestSettle after its
// last change, holding the whole burst; a refresh follows every
// InterestInterval; a subscribe+cancel inside one window still sends (a
// churning client waits for that advertisement); the last unsubscribe says
// the empty set once, and then nothing is sent.
func TestInterestOnVirtualTime(t *testing.T) {
	d, tap := newTapped(t)
	c, _ := d.NewClient("app")
	now := virtualStart
	tick := func(dt time.Duration) time.Time {
		now = now.Add(dt)
		return d.TickInterest(now)
	}
	expect := func(what string, ads ...[]string) {
		t.Helper()
		if got := tap.sentAds(); !slices.EqualFunc(got, ads, slices.Equal) {
			t.Fatalf("%s: advertised %v, want %v", what, got, ads)
		}
	}
	var burst []string
	for i := 0; i < 40; i++ {
		burst = append(burst, fmt.Sprintf("burst.s%02d", i))
		_ = c.Subscribe(subject.MustParsePattern(burst[i]))
	}
	select {
	case <-d.Kicked():
	default:
		t.Fatal("a subscription change did not signal Kicked")
	}
	if next := tick(0); !next.Equal(virtualStart.Add(interestSettle)) {
		t.Fatalf("next tick at +%v, want +%v", next.Sub(virtualStart), interestSettle)
	}
	tick(time.Millisecond)
	expect("1 ms after the burst")
	if next := tick(time.Millisecond); !next.Equal(virtualStart.Add(InterestInterval)) {
		t.Fatalf("after the burst's advertisement, next tick at +%v, want the refresh at +%v", next.Sub(virtualStart), InterestInterval)
	}
	expect("2 ms after the burst", burst)

	ads := [][]string{burst}
	for i := 1; i <= 3; i++ {
		refresh := virtualStart.Add(time.Duration(i) * InterestInterval)
		tick(refresh.Sub(now) - time.Nanosecond)
		expect(fmt.Sprintf("just before refresh %d", i), ads...)
		tick(time.Nanosecond)
		ads = append(ads, burst)
		expect(fmt.Sprintf("at refresh %d", i), ads...)
	}

	churned := subject.MustParsePattern("churned")
	_ = c.Subscribe(churned)
	tick(0)
	tick(time.Millisecond)
	_ = c.Unsubscribe(churned)
	tick(0)
	tick(time.Millisecond)
	expect("1 ms after the cancel", ads...)
	tick(time.Millisecond)
	ads = append(ads, burst)
	expect("2 ms after the cancel: the set is as it was, and still sent", ads...)

	for _, p := range burst {
		_ = c.Unsubscribe(subject.MustParsePattern(p))
	}
	tick(0)
	tick(interestSettle)
	ads = append(ads, nil)
	expect("after the last unsubscribe", ads...)
	for i := 0; i < 4; i++ {
		tick(InterestInterval)
	}
	expect("four intervals later", ads...)
}

// TestLastUnsubscribeAdvertisesEmptySet: a daemon that wants nothing says
// so once, when the empty set replaces a non-empty one, so a router drops
// the host's entry at that advertisement instead of at its TTL. It never
// says it at start-up and never again while the set stays empty.
func TestLastUnsubscribeAdvertisesEmptySet(t *testing.T) {
	d, tap := newTapped(t)
	empties := func() (n int) {
		for _, ad := range tap.sentAds() {
			if len(ad) == 0 {
				n++
			}
		}
		return n
	}
	d.AdvertiseInterest()
	if got := tap.sentAds(); len(got) != 0 {
		t.Fatalf("a daemon with no subscription advertised %v at start-up", got)
	}
	c, _ := d.NewClient("app")
	for round := 1; round <= 2; round++ {
		pat := subject.MustParsePattern(fmt.Sprintf("only.r%d", round))
		_ = c.Subscribe(pat)
		d.AdvertiseInterest()
		_ = c.Unsubscribe(pat)
		for i := 0; i < 3; i++ {
			d.AdvertiseInterest()
		}
		if got := empties(); got != round {
			t.Fatalf("round %d: %d empty advertisements so far, want one per last unsubscribe: %v", round, got, tap.sentAds())
		}
	}
	want := [][]string{{"only.r1"}, nil, {"only.r2"}, nil}
	if got := tap.sentAds(); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("advertised %v, want %v", got, want)
	}
}

// TestAdvertiseInterestAllocBudget: a subscription change and the
// advertisement it causes cost the same small number of allocations with
// 100 subscriptions as with 10 000 — anything that walks the set again
// (the old Trie.Patterns path cost ~3 allocations per subscription) fails
// by orders of magnitude. scripts/check.sh runs this as a gate.
func TestAdvertiseInterestAllocBudget(t *testing.T) {
	perChange := func(n int) float64 {
		d, _ := interestListener(t, Options{})
		c, _ := d.NewClient("app")
		for i := 0; i < n; i++ {
			if err := c.Subscribe(subject.MustParsePattern(fmt.Sprintf("load.s%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		churned := subject.MustParsePattern("load.churned")
		now := virtualStart
		return testing.AllocsPerRun(200, func() {
			_ = c.Subscribe(churned)
			_ = c.Unsubscribe(churned)
			d.TickInterest(now) // stamps the change
			now = now.Add(interestSettle)
			d.TickInterest(now) // advertises
		})
	}
	small, large := perChange(100), perChange(10000)
	t.Logf("allocs per subscribe+cancel+advertise: %.1f at 100 subscriptions, %.1f at 10000", small, large)
	const budget = 40
	if small > budget || large > budget {
		t.Errorf("allocs per change = %.1f / %.1f at 100 / 10000 subscriptions, budget %d", small, large, budget)
	}
}

// TestInterestWideningObserved: crossing subject.MaxAdvertisedPatterns is visible —
// the gauge follows the distinct-pattern count, and each transition of the
// advertised set from exact to aggregated counts once and leaves one
// flight-recorder event.
func TestInterestWideningObserved(t *testing.T) {
	rec := telemetry.NewRecorder(8)
	d, _ := interestListener(t, Options{Recorder: rec})
	c, _ := d.NewClient("app")
	pat := func(i int) subject.Pattern { return subject.MustParsePattern(fmt.Sprintf("w.s%d", i)) }
	expect := func(patterns, widened int64) {
		t.Helper()
		d.AdvertiseInterest()
		if got := d.Metrics().Gauge("daemon.interest_patterns").Load(); got != patterns {
			t.Errorf("interest_patterns = %d, want %d", got, patterns)
		}
		if got := d.Metrics().Counter("daemon.interest_widened").Load(); got != uint64(widened) {
			t.Errorf("interest_widened = %d, want %d", got, widened)
		}
		if evs := rec.Events(); len(evs) != int(widened) {
			t.Errorf("recorder holds %d events, want %d: %+v", len(evs), widened, evs)
		}
	}
	for i := 0; i < subject.MaxAdvertisedPatterns; i++ {
		_ = c.Subscribe(pat(i))
	}
	expect(subject.MaxAdvertisedPatterns, 0)
	_ = c.Subscribe(pat(64))
	expect(65, 1)
	_ = c.Subscribe(pat(65))
	expect(66, 1) // still aggregated: no new transition
	_ = c.Unsubscribe(pat(64))
	_ = c.Unsubscribe(pat(65))
	expect(64, 1)
	_ = c.Subscribe(pat(64))
	expect(65, 2)
	if ev := rec.Events()[0]; ev.Kind != telemetry.EventInterest || ev.A != 65 || ev.B != subject.MaxAdvertisedPatterns {
		t.Errorf("event = %+v", ev)
	}
}
