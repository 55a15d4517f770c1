package daemon

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/reliable"
	"infobus/internal/subject"
)

// sentAck is one frame an ackSet sent.
type sentAck struct {
	to     string
	origin string
	ids    []uint64
}

// ackRecorder is an ackSet's conn: it decodes what is sent, or refuses it.
type ackRecorder struct {
	t       *testing.T
	refuse  bool
	sent    []sentAck
	dropped int
	woken   int
}

func (r *ackRecorder) set() *ackSet {
	return newAckSet(func(to string, frame []byte) error {
		if r.refuse {
			return errors.New("window full")
		}
		e, err := busproto.Decode(frame)
		if err != nil {
			r.t.Fatalf("sent % x: %v", frame, err)
		}
		ids := e.Acked
		if ids == nil {
			ids = []uint64{e.ID}
		}
		if again := busproto.AppendAck(nil, e.Origin, ids); string(again) != string(frame) {
			r.t.Fatalf("sent % x, the one encoding of %v is % x", frame, ids, again)
		}
		r.sent = append(r.sent, sentAck{to, e.Origin, ids})
		return nil
	}, func() { r.dropped++ }, func() { r.woken++ })
}

// TestAckSetSortsAndMerges: ids recorded out of order, repeated and for two
// origins go out as one frame per (sender, origin), sorted, merged into runs
// and each named once; a flush with nothing recorded sends nothing.
func TestAckSetSortsAndMerges(t *testing.T) {
	r := &ackRecorder{t: t}
	a := r.set()
	for _, id := range []uint64{9, 3, 4, 3, 12, 5, 11, 9, 1} {
		a.add("pub", "o1", id)
	}
	for _, id := range []uint64{2, 2, 1} {
		a.add("pub", "o2", id)
	}
	a.add("replayer", "o1", 7)
	a.flush()
	want := []sentAck{
		{"pub", "o1", []uint64{1, 3, 4, 5, 9, 11, 12}},
		{"pub", "o2", []uint64{1, 2}},
		{"replayer", "o1", []uint64{7}},
	}
	if !slices.EqualFunc(r.sent, want, sameAck) {
		t.Fatalf("sent %v, want %v", r.sent, want)
	}
	a.flush()
	a.add("pub", "o1", 13)
	a.flush()
	if want = append(want, sentAck{"pub", "o1", []uint64{13}}); !slices.EqualFunc(r.sent, want, sameAck) {
		t.Fatalf("sent %v, want %v", r.sent, want)
	}
}

func sameAck(a, b sentAck) bool {
	return a.to == b.to && a.origin == b.origin && slices.Equal(a.ids, b.ids)
}

// TestAckSetBounds: a set that reaches ackFlushIDs goes out without waiting
// for the lane to drain; one the conn refuses is kept up to MaxAckIDs ids,
// past which new ids are discarded and counted (repeats are not), and the
// next flush that is taken sends all it kept. Sets that hold nothing are
// forgotten at maxAckKeys.
func TestAckSetBounds(t *testing.T) {
	r := &ackRecorder{t: t}
	a := r.set()
	for id := uint64(0); id < ackFlushIDs; id++ {
		a.add("pub", "o", id)
	}
	if len(r.sent) != 1 || len(r.sent[0].ids) != ackFlushIDs {
		t.Fatalf("after %d ids: %d frames sent", ackFlushIDs, len(r.sent))
	}
	r.sent, r.refuse = nil, true
	const extra = 5
	for id := uint64(0); id < busproto.MaxAckIDs+extra; id++ {
		a.add("pub", "o", 2*id)
	}
	a.add("pub", "o", 0) // a repeat at the bound
	a.flush()
	if len(r.sent) != 0 || r.dropped != extra {
		t.Fatalf("refused: %d frames sent, %d ids dropped, want 0 and %d", len(r.sent), r.dropped, extra)
	}
	r.refuse = false
	a.flush()
	if len(r.sent) != 1 || len(r.sent[0].ids) != busproto.MaxAckIDs || r.sent[0].ids[0] != 0 {
		t.Fatalf("after the window freed: %d frames", len(r.sent))
	}
	for i := 0; i < 2*maxAckKeys; i++ {
		a.add(fmt.Sprintf("pub%d", i), "o", 1)
		a.flush()
	}
	if len(a.sets) > maxAckKeys {
		t.Fatalf("%d (sender, origin) sets kept, bound %d", len(a.sets), maxAckKeys)
	}
}

// guarConsumer is a daemon on a tap (newTapped) with a client on "g.>":
// deliver hands its worker a guaranteed publication from "pub", as the
// lane's inbound worker would, without a drain; the test drains and ticks.
type guarConsumer struct {
	d   *Daemon
	tap *tap
	ln  *lane
	w   *worker
	c   *Client
}

func newGuarConsumer(t *testing.T) *guarConsumer {
	d, tp := newTapped(t)
	c, _ := d.NewClient("app")
	if err := c.Subscribe(subject.MustParsePattern("g.>")); err != nil {
		t.Fatal(err)
	}
	<-d.Kicked() // the subscription's
	return &guarConsumer{d: d, tap: tp, ln: d.lanes[0], w: d.newWorker(d.lanes[0]), c: c}
}

func (g *guarConsumer) deliver(ids ...uint64) {
	for _, id := range ids {
		g.d.handleMessage(g.w, reliable.Message{From: "pub", Payload: busproto.Encode(busproto.Envelope{
			Kind: busproto.KindGuaranteed, ID: id, Origin: "pub#1", Subject: "g.x", Payload: []byte("v")})})
		g.c.TryNext()
	}
}

// kicked reports whether Kicked is signalled, and takes the signal.
func (g *guarConsumer) kicked() bool {
	select {
	case <-g.d.Kicked():
		return true
	default:
		return false
	}
}

// TestAcksOnVirtualTime: the acknowledgement policy, ticked as a host's loop
// ticks it. A set's first QuickAcks drains each send a frame; the last of them
// puts it on the clock and signals Kicked; from then on a drain sends nothing
// and the set goes out at most once per AckDelay, at its due tick, the tail
// included; a due tick that finds it empty makes it quick again. A set that
// reaches ackFlushIDs goes out at once, on the clock or not, and a send the
// conn refuses stays pending for the next due tick.
func TestAcksOnVirtualTime(t *testing.T) {
	g := newGuarConsumer(t)
	now := virtualStart
	tick := func(dt time.Duration) time.Time {
		now = now.Add(dt)
		return g.d.TickAcks(now)
	}
	var want [][]uint64
	expect := func(what string, frames ...[]uint64) {
		t.Helper()
		want = append(want, frames...)
		if got := g.tap.sentAcks(); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%s: sent %v, want %v", what, got, want)
		}
	}
	if next := tick(0); !next.IsZero() {
		t.Fatalf("nothing on the clock, next tick at +%v, want none", next.Sub(virtualStart))
	}

	for id := uint64(1); id <= QuickAcks; id++ {
		g.deliver(id)
		g.ln.acks.flush()
		expect(fmt.Sprintf("quick drain %d", id), []uint64{id})
		if kicked := g.kicked(); kicked != (id == QuickAcks) {
			t.Fatalf("after quick drain %d: Kicked signalled %v", id, kicked)
		}
	}
	g.deliver(5, 6)
	g.ln.acks.flush()
	expect("a drain once the set is on the clock")
	if next := tick(0); !next.Equal(now.Add(AckDelay)) {
		t.Fatalf("the tick after the set went on the clock wants +%v, want +%v", next.Sub(now), AckDelay)
	}
	tick(AckDelay - time.Nanosecond)
	expect("just before the set is due")
	if next := tick(time.Nanosecond); !next.Equal(now.Add(AckDelay)) {
		t.Fatalf("after a due send, next tick at +%v, want +%v", next.Sub(now), AckDelay)
	}
	expect("at the due tick", []uint64{5, 6})

	for id := uint64(7); id <= 9; id++ {
		g.deliver(id)
		g.ln.acks.flush()
		tick(AckDelay / 4)
	}
	expect("three drains within one period")
	tick(AckDelay / 4)
	expect("one frame per period", []uint64{7, 8, 9})

	g.deliver(10)
	g.ln.acks.flush()
	tick(AckDelay)
	expect("the tail, at its due tick", []uint64{10})
	if next := tick(AckDelay); !next.IsZero() {
		t.Fatalf("a due tick found the set empty and still wants the clock at +%v", next.Sub(now))
	}
	expect("an empty period")
	for id := uint64(11); id <= 10+QuickAcks; id++ {
		g.deliver(id)
		g.ln.acks.flush()
		expect("quick again after an idle period", []uint64{id})
	}
	if !g.kicked() {
		t.Fatal("the set went on the clock again without signalling Kicked")
	}
	tick(0)

	var budget []uint64
	for id := uint64(100); id < 100+ackFlushIDs; id++ {
		budget = append(budget, id)
		g.deliver(id)
		g.ln.acks.flush()
	}
	expect("ackFlushIDs recorded on the clock, no tick", budget)

	g.tap.setRefuse(true)
	g.deliver(1000)
	tick(AckDelay)
	expect("a refused send")
	g.tap.setRefuse(false)
	g.deliver(1001)
	tick(AckDelay / 2)
	expect("half a period after the refusal")
	tick(AckDelay / 2)
	expect("the refused id at the next due tick", []uint64{1000, 1001})
	if got := g.d.Metrics().Counter("daemon.guar_ack_dropped").Load(); got != 0 {
		t.Fatalf("guar_ack_dropped = %d, want 0", got)
	}
}

// TestUntickedDaemonAcksOnDrain: a daemon nobody ticks puts no set on the
// clock, however many drains it sends: every drain acknowledges at once.
func TestUntickedDaemonAcksOnDrain(t *testing.T) {
	g := newGuarConsumer(t)
	var want [][]uint64
	for id := uint64(1); id <= 3*QuickAcks; id++ {
		g.deliver(id)
		g.ln.acks.flush()
		want = append(want, []uint64{id})
	}
	if got := g.tap.sentAcks(); !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("sent %v, want %v", got, want)
	}
	if g.kicked() {
		t.Fatal("an unticked daemon signalled Kicked for its acks")
	}
}

// TestCloseSendsPendingAcks: Close sends what a set on the clock still holds
// before it closes the conn, so a clean shutdown leaves no publisher to its
// retransmission.
func TestCloseSendsPendingAcks(t *testing.T) {
	g := newGuarConsumer(t)
	g.d.TickAcks(virtualStart)
	for id := uint64(1); id <= QuickAcks; id++ {
		g.deliver(id)
		g.ln.acks.flush()
	}
	g.deliver(5, 7, 6)
	g.ln.acks.flush()
	if n := len(g.tap.sentAcks()); n != QuickAcks {
		t.Fatalf("%d frames before Close, want the %d quick ones", n, QuickAcks)
	}
	if err := g.d.Close(); err != nil {
		t.Fatal(err)
	}
	got := g.tap.sentAcks()
	if len(got) != QuickAcks+1 || !slices.Equal(got[QuickAcks], []uint64{5, 6, 7}) {
		t.Fatalf("after Close: sent %v, want the pending [5 6 7] last", got)
	}
}

// TestAckTickRacesWorker: a lane's worker recording and draining while the
// host's loop ticks the same sets. Every id is acknowledged exactly once and
// the race detector sees the shared sets only under the lane's lock.
func TestAckTickRacesWorker(t *testing.T) {
	g := newGuarConsumer(t)
	const n = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := uint64(1); id <= n; id++ {
			g.deliver(id)
			if id%3 == 0 {
				g.ln.acks.flush()
			}
		}
		g.ln.acks.flush()
	}()
	now := virtualStart
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		now = now.Add(AckDelay / 2)
		g.d.TickAcks(now)
	}
	for i := 0; i < 2; i++ { // the tail: stamped, then due
		now = now.Add(AckDelay)
		g.d.TickAcks(now)
	}
	seen := make(map[uint64]int, n)
	frames := g.tap.sentAcks()
	for _, f := range frames {
		for _, id := range f {
			seen[id]++
		}
	}
	for id := uint64(1); id <= n; id++ {
		if seen[id] != 1 {
			t.Fatalf("id %d acknowledged %d times (%d frames)", id, seen[id], len(frames))
		}
	}
	if len(seen) != n {
		t.Fatalf("%d distinct ids acknowledged, want %d", len(seen), n)
	}
	t.Logf("%d ids in %d frames", n, len(frames))
}

// TestAckTickAllocatesNothing: a pass of the host's loop in which only the
// acknowledgement tick is due — TickInterest has nothing to send, TickAcks
// sends one frame for a set on the clock — allocates nothing, and neither
// does the worker recording the id the frame carries. The conn is replaced
// by a counter: what it does with the frame is the reliable layer's unicast
// (Conn.SendTo).
func TestAckTickAllocatesNothing(t *testing.T) {
	g := newGuarConsumer(t)
	now := virtualStart
	g.d.TickInterest(now)
	g.d.TickAcks(now)
	for id := uint64(1); id <= QuickAcks; id++ {
		g.deliver(id)
		g.ln.acks.flush()
	}
	frames := 0
	g.ln.acks.send = func(string, []byte) error { frames++; return nil }
	g.d.TickAcks(now) // stamps the set
	id := uint64(100)
	const runs = 100 // 200 ms of virtual time: the interest refresh is not due
	allocs := testing.AllocsPerRun(runs, func() {
		g.ln.acks.add("pub", "pub#1", id)
		id++
		now = now.Add(AckDelay)
		g.d.TickInterest(now)
		g.d.TickAcks(now)
	})
	if frames != runs+1 {
		t.Fatalf("%d passes sent %d frames, want one each", runs+1, frames)
	}
	if allocs != 0 {
		t.Fatalf("a pass with only the ack tick due allocates %.1f times, want 0", allocs)
	}
}
