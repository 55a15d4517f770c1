package daemon

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/transport"
)

// newPairLanes is newPair with an explicit lane count on both daemons.
func newPairLanes(t *testing.T, lanes int) (*Daemon, *Daemon) {
	t.Helper()
	cfg := netsim.DefaultConfig()
	cfg.Speedup = 5000
	seg := transport.NewSimSegment(cfg)
	rcfg := reliable.Config{
		NakInterval:        2 * time.Millisecond,
		GapTimeout:         300 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  5 * time.Millisecond,
	}
	epA, err := seg.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := seg.NewEndpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{DeliveryLanes: lanes}
	da, db := New(epA, rcfg, opts), New(epB, rcfg, opts)
	t.Cleanup(func() {
		_ = da.Close()
		_ = db.Close()
		_ = seg.Close()
	})
	return da, db
}

// lanedSubjects returns n concrete subjects that land on n distinct lanes
// of a lanes-wide daemon, so a test can force traffic across every lane.
func lanedSubjects(t *testing.T, lanes, n int) []subject.Subject {
	t.Helper()
	out := make([]subject.Subject, 0, n)
	used := make(map[int]bool)
	for i := 0; len(out) < n && i < 10000; i++ {
		s := subject.MustParse(fmt.Sprintf("lane%d.x.data", i))
		if idx := s.LaneIndex(lanes); !used[idx] {
			used[idx] = true
			out = append(out, s)
		}
	}
	if len(out) < n {
		t.Fatalf("could not find %d subjects on distinct lanes of %d", n, lanes)
	}
	return out
}

func TestResolveLanes(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	if want > maxAutoLanes {
		want = maxAutoLanes
	}
	cases := []struct{ in, want int }{
		{0, want},
		{1, 1},
		{3, 3},
		{-5, 1},
		{maxLanes + 100, maxLanes},
	}
	for _, c := range cases {
		if got := resolveLanes(c.in); got != c.want {
			t.Errorf("resolveLanes(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// daemonGoroutines counts the live goroutines that daemon.New and the
// reliable connection's constructor started when the calling goroutine
// called them: other tests' daemons, still winding down, do not count.
func daemonGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			stacks := string(buf[:n])
			self := strings.Fields(stacks)[1] // the caller's trace comes first: "goroutine 7 [running]:"
			return strings.Count(stacks, "created by infobus/internal/daemon.New in goroutine "+self+"\n") +
				strings.Count(stacks, "created by infobus/internal/reliable.NewSharded in goroutine "+self+"\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestLaneWiring checks the structural invariants: one inbound worker per
// lane — at DeliveryLanes == 1 too, the same engine at N = 1 — reading the
// connection directly (lanes workers + interestLoop + the conn's one loop,
// no relay goroutine between them, none left by Close), and every client
// gets one queue column per lane.
func TestLaneWiring(t *testing.T) {
	seg, rcfg := newSegment(t)
	for _, lanes := range []int{4, 1} {
		d := New(newEndpoint(t, seg, fmt.Sprintf("lanes%d", lanes)), rcfg, Options{DeliveryLanes: lanes})
		if got := daemonGoroutines(); d.Lanes() != lanes || got != lanes+2 {
			t.Fatalf("lanes=%d goroutines=%d, want %d/%d", d.Lanes(), got, lanes, lanes+2)
		}
		c, err := d.NewClient("app")
		if err != nil {
			t.Fatal(err)
		}
		if len(c.lanes) != lanes {
			t.Fatalf("client columns = %d, want %d", len(c.lanes), lanes)
		}
		_ = d.Close()
		// Close has waited for every one of them to finish its work; the
		// last instructions of a goroutine run after it says so.
		for deadline := time.Now().Add(5 * time.Second); daemonGoroutines() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("lanes=%d: %d goroutines left after Close", lanes, daemonGoroutines())
			}
		}
	}
}

// TestCloseDrainsWorkers: Close returns only after every inbound worker has
// handled what its shard held, and shuts the clients down after that — so
// no worker finds a client closed under it, and a client still receives, in
// order, everything enqueued before Close returned.
func TestCloseDrainsWorkers(t *testing.T) {
	da, db := newPairLanes(t, 4)
	cb, err := db.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.Subscribe(subject.MustParsePattern(">")); err != nil {
		t.Fatal(err)
	}
	subjects := lanedSubjects(t, 4, 3)
	const total = 2000
	for i := 0; i < total; i++ {
		if err := da.Publish(subjects[i%len(subjects)], []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	nextDelivery(t, cb, 10*time.Second) // traffic is flowing; close under it
	_ = db.Close()
	st, pending := db.Stats(), cb.Pending()
	if st.NoSubscriber != 0 || st.DeliveredLocal != st.Inbound || uint64(pending)+1 != st.DeliveredLocal {
		t.Fatalf("after Close: stats %+v, pending %d: a worker outlived the clients", st, pending)
	}
	for i := 1; i <= pending; i++ {
		dv, ok := cb.Next(nil)
		if !ok || string(dv.Payload) != fmt.Sprintf("%d", i) {
			t.Fatalf("delivery %d after Close = %q, %v", i, dv.Payload, ok)
		}
	}
	if _, ok := cb.Next(nil); ok {
		t.Fatal("delivery beyond what was pending at Close")
	}
	if st2 := db.Stats(); st2 != st {
		t.Fatalf("stats moved after Close returned: %+v -> %+v", st, st2)
	}
}

// TestCrossLaneSenderFIFO is the ordering regression for the sharded
// engine: one sender interleaves publications on subjects that hash to
// different delivery lanes, and a ">" subscriber on a multi-lane receiver
// must still see them in exact publish order. The strict-ticket merge in
// popLocked (plus the sender-keyed inbound worker) is what this pins down;
// a per-lane pop without the ticket order would interleave arbitrarily.
func TestCrossLaneSenderFIFO(t *testing.T) {
	const lanes = 4
	da, db := newPairLanes(t, lanes)
	subjects := lanedSubjects(t, lanes, 3)

	cb, err := db.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.Subscribe(subject.MustParsePattern(">")); err != nil {
		t.Fatal(err)
	}
	// Let the interest advertisement land so nothing is dropped unrouted
	// (raw daemons broadcast regardless; this is just determinism for the
	// first delivery's latency).
	time.Sleep(20 * time.Millisecond)

	const total = 300
	for i := 0; i < total; i++ {
		s := subjects[i%len(subjects)]
		if err := da.Publish(s, []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = da.Flush()
	for i := 0; i < total; i++ {
		dv := nextDelivery(t, cb, 10*time.Second)
		if got, want := string(dv.Payload), fmt.Sprintf("%d", i); got != want {
			t.Fatalf("delivery %d out of order: payload %q (subject %s)", i, got, dv.Subject)
		}
		if want := subjects[i%len(subjects)].String(); dv.Subject.String() != want {
			t.Fatalf("delivery %d subject = %s, want %s", i, dv.Subject, want)
		}
	}
	if cb.Pending() != 0 {
		t.Fatalf("pending = %d after full drain", cb.Pending())
	}
}

// TestCrossLaneLocalFIFO is the same ordering pin for the local loopback
// path: a single local publisher alternating lanes must be observed in
// publish order by a local ">" subscriber.
func TestCrossLaneLocalFIFO(t *testing.T) {
	const lanes = 4
	da, _ := newPairLanes(t, lanes)
	subjects := lanedSubjects(t, lanes, 3)
	c, err := da.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(subject.MustParsePattern(">")); err != nil {
		t.Fatal(err)
	}
	const total = 300
	for i := 0; i < total; i++ {
		if err := da.Publish(subjects[i%len(subjects)], []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < total; i++ {
		dv := nextDelivery(t, c, 5*time.Second)
		if got, want := string(dv.Payload), fmt.Sprintf("%d", i); got != want {
			t.Fatalf("delivery %d out of order: payload %q", i, got)
		}
	}
}

// TestSingleLaneGoldenEquivalence runs the cross-lane workload on a
// DeliveryLanes=1 daemon and checks the observable behavior is identical:
// exact publish order, exact counts. This pins N = 1 of the one engine to
// the "1 lane behaves like the pre-lane daemon" contract.
func TestSingleLaneGoldenEquivalence(t *testing.T) {
	da, db := newPairLanes(t, 1)
	subjects := []subject.Subject{
		subject.MustParse("lane0.x.data"),
		subject.MustParse("lane1.x.data"),
		subject.MustParse("lane2.x.data"),
	}
	cb, err := db.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.Subscribe(subject.MustParsePattern(">")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	const total = 200
	for i := 0; i < total; i++ {
		if err := da.Publish(subjects[i%len(subjects)], []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = da.Flush()
	for i := 0; i < total; i++ {
		dv := nextDelivery(t, cb, 10*time.Second)
		if got, want := string(dv.Payload), fmt.Sprintf("%d", i); got != want {
			t.Fatalf("delivery %d out of order: payload %q", i, got)
		}
	}
	st := db.Stats()
	if st.DeliveredLocal != total || st.Inbound < total {
		t.Fatalf("stats = %+v, want DeliveredLocal=%d", st, total)
	}
}

// TestLaneDepthsCoherent checks the monitoring view of a backlog spread
// across lanes: with a stalled client, the per-lane depth gauges sum to
// the client's Pending count, and a full drain returns every gauge to
// zero (no delivery is ever torn across, or leaked into, a lane gauge).
func TestLaneDepthsCoherent(t *testing.T) {
	const lanes = 4
	da, _ := newPairLanes(t, lanes)
	subjects := lanedSubjects(t, lanes, 3)
	c, err := da.NewClient("stalled")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(subject.MustParsePattern(">")); err != nil {
		t.Fatal(err)
	}
	const total = 90
	for i := 0; i < total; i++ {
		if err := da.Publish(subjects[i%len(subjects)], []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	depths := da.LaneDepths()
	var sum int64
	nonzero := 0
	for _, d := range depths {
		sum += d
		if d > 0 {
			nonzero++
		}
	}
	if sum != total || c.Pending() != total {
		t.Fatalf("lane depth sum = %d, Pending = %d, want %d (depths %v)", sum, c.Pending(), total, depths)
	}
	if nonzero < 2 {
		t.Fatalf("backlog not spread across lanes: %v", depths)
	}
	for i := 0; i < total; i++ {
		if _, ok := c.TryNext(); !ok {
			t.Fatalf("TryNext ran dry at %d", i)
		}
	}
	for i, d := range da.LaneDepths() {
		if d != 0 {
			t.Fatalf("lane %d depth = %d after drain", i, d)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", c.Pending())
	}
}

// TestGuaranteedExactlyOnceAcrossLanes pins the (origin, id) dedup
// contract on a multi-lane receiver: the publisher daemon retransmits the
// same guaranteed publication several times (different inbound batches),
// and the subscriber sees it exactly once.
func TestGuaranteedExactlyOnceAcrossLanes(t *testing.T) {
	da, db := newPairLanes(t, 4)
	cb, err := db.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	if err := cb.Subscribe(subject.MustParsePattern("g.>")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	s := subject.MustParse("g.x")
	for i := 0; i < 5; i++ {
		if err := da.PublishGuaranteed(s, []byte("once"), 42); err != nil {
			t.Fatal(err)
		}
		_ = da.Flush()
	}
	dv := nextDelivery(t, cb, 10*time.Second)
	if !dv.Guaranteed || dv.ID != 42 || string(dv.Payload) != "once" {
		t.Fatalf("delivery = %+v", dv)
	}
	time.Sleep(50 * time.Millisecond)
	if cb.Pending() != 0 {
		t.Fatalf("duplicate guaranteed delivery: pending = %d", cb.Pending())
	}
}
