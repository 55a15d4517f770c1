package daemon

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"infobus/internal/subject"
)

// newDaemons starts n daemons with an explicit lane count on one segment.
func newDaemons(t *testing.T, lanes, n int) []*Daemon {
	t.Helper()
	seg, rcfg := newSegment(t)
	ds := make([]*Daemon, n)
	for i := range ds {
		ds[i] = New(newEndpoint(t, seg, fmt.Sprintf("d%d", i)), rcfg, Options{DeliveryLanes: lanes})
	}
	t.Cleanup(func() {
		for _, d := range ds {
			_ = d.Close()
		}
	})
	return ds
}

// newPairLanes is newPair with an explicit lane count on both daemons.
func newPairLanes(t *testing.T, lanes int) (*Daemon, *Daemon) {
	t.Helper()
	ds := newDaemons(t, lanes, 2)
	return ds[0], ds[1]
}

// familySubjects returns n concrete subjects of n distinct families. Which
// lane a delivery takes is its sender's business, not its subject's: the
// ordering tests interleave families because a subject-keyed engine would
// scatter exactly these.
func familySubjects(n int) []subject.Subject {
	out := make([]subject.Subject, n)
	for i := range out {
		out[i] = subject.MustParse(fmt.Sprintf("fam%d.x.data", i))
	}
	return out
}

// senderLane reports which lane of recv the sender's publications arrive on,
// by publishing one probe and reading which lane gauge it moved. c is an idle
// client of recv subscribed to ">"; the probe is consumed again.
func senderLane(t *testing.T, recv *Daemon, c *Client, sender *Daemon) int {
	t.Helper()
	if err := sender.Publish(subject.MustParse("probe.lane"), nil); err != nil {
		t.Fatal(err)
	}
	_ = sender.Flush()
	lane := slices.Index(waitDepths(t, recv, c, 1), 1)
	if _, ok := c.TryNext(); !ok || lane < 0 {
		t.Fatalf("one probe pending, lane depths %v", recv.LaneDepths())
	}
	return lane
}

// senderLanes is senderLane for every sender — which also makes each of
// them a stream the receiver has joined, so nothing it sends later can fall
// before the join — and fails unless they cover at least two lanes.
func senderLanes(t *testing.T, recv *Daemon, c *Client, senders []*Daemon) []int {
	t.Helper()
	lanes := make([]int, len(senders))
	spread := false
	for i, s := range senders {
		lanes[i] = senderLane(t, recv, c, s)
		spread = spread || lanes[i] != lanes[0]
	}
	if !spread {
		t.Fatalf("all %d senders land on lane %d", len(senders), lanes[0])
	}
	return lanes
}

// waitDepths waits until c holds want deliveries and the lane gauges of d,
// which move just after the client's own depth, sum to as many; it returns
// the gauges.
func waitDepths(t *testing.T, d *Daemon, c *Client, want int) []int64 {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		depths := d.LaneDepths()
		var sum int64
		for _, n := range depths {
			sum += n
		}
		if c.Pending() == want && sum == int64(want) {
			return depths
		}
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, lane depths %v, want %d", c.Pending(), depths, want)
		}
	}
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
	subjects := familySubjects(3)
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
// engine: one sender interleaves publications on three subject families,
// and a ">" subscriber on a multi-lane receiver must still see them in
// exact publish order. A sender owns one lane from the conn's shard to the
// client's queue column, which is what this pins down; lanes keyed by
// subject would interleave the families arbitrarily.
func TestCrossLaneSenderFIFO(t *testing.T) {
	const lanes = 4
	da, db := newPairLanes(t, lanes)
	subjects := familySubjects(3)

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
// path: a single local publisher alternating families must be observed in
// publish order by a local ">" subscriber.
func TestCrossLaneLocalFIFO(t *testing.T) {
	const lanes = 4
	da, _ := newPairLanes(t, lanes)
	subjects := familySubjects(3)
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
	subjects := familySubjects(3)
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
// across lanes — by two senders on different shards; one sender's backlog
// sits on one lane whatever its subjects. With a stalled client, each
// sender's lane gauge holds that sender's share, the gauges sum to the
// client's Pending count, and a full drain returns every gauge to zero (no
// delivery is ever torn across, or leaked into, a lane gauge).
func TestLaneDepthsCoherent(t *testing.T) {
	const lanes = 4
	ds := newDaemons(t, lanes, 7)
	recv := ds[0]
	c, err := recv.NewClient("stalled")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(subject.MustParsePattern(">")); err != nil {
		t.Fatal(err)
	}
	// Two senders on different lanes: the first, and the first that differs.
	on := senderLanes(t, recv, c, ds[1:])
	sa, la, sb, lb := ds[1], on[0], ds[1], on[0]
	for i, l := range on {
		if l != la {
			sb, lb = ds[1+i], l
			break
		}
	}
	subjects := familySubjects(3)
	const each = 45
	for i := 0; i < each; i++ {
		for _, s := range []*Daemon{sa, sb} {
			if err := s.Publish(subjects[i%len(subjects)], []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, _ = sa.Flush(), sb.Flush()
	depths := waitDepths(t, recv, c, 2*each)
	if depths[la] != each || depths[lb] != each {
		t.Fatalf("lane depths %v, want %d on each of lanes %d and %d and nothing elsewhere", depths, each, la, lb)
	}
	for i := 0; i < 2*each; i++ {
		if _, ok := c.TryNext(); !ok {
			t.Fatalf("TryNext ran dry at %d", i)
		}
	}
	for i, d := range recv.LaneDepths() {
		if d != 0 {
			t.Fatalf("lane %d depth = %d after drain", i, d)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", c.Pending())
	}
}

// TestClientCloseSettlesBacklog: a client closed with deliveries still queued
// takes them out of the lane gauges and its own depth and lets go of the
// payloads; nobody will pop them, so nothing else would.
func TestClientCloseSettlesBacklog(t *testing.T) {
	da, _ := newPairLanes(t, 4)
	c, err := da.NewClient("leaving")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(subject.MustParsePattern(">")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := da.Publish(subject.MustParse("s.x"), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if c.Pending() != 10 {
		t.Fatalf("pending = %d before Close, want 10", c.Pending())
	}
	_ = c.Close()
	var sum int64
	for _, d := range da.LaneDepths() {
		sum += d
	}
	if sum != 0 || c.Pending() != 0 {
		t.Fatalf("after Close: lane depths sum to %d, Pending = %d, want 0 and 0", sum, c.Pending())
	}
	for i := range c.lanes {
		if q := &c.lanes[i]; q.queue != nil || q.n.Load() != 0 {
			t.Fatalf("column %d still holds %d entries", i, len(q.queue))
		}
	}
	if _, ok := c.TryNext(); ok {
		t.Fatal("a closed client still delivers")
	}
}

// TestPopNoStarvation: the pop is round-robin over the columns, so a deep
// backlog on one column cannot keep another column's head waiting for more
// than len(lanes) pops.
func TestPopNoStarvation(t *testing.T) {
	const lanes = 4
	da, _ := newPairLanes(t, lanes)
	c, err := da.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		c.enqueue(da.lanes[0], Delivery{Payload: []byte("deep")})
	}
	c.enqueue(da.lanes[2], Delivery{Payload: []byte("lone")})
	for pops := 1; ; pops++ {
		dv, ok := c.TryNext()
		if !ok || pops > lanes {
			t.Fatalf("the lone delivery was not among the first %d pops", lanes)
		}
		if string(dv.Payload) == "lone" {
			break
		}
	}
	if depths := da.LaneDepths(); depths[2] != 0 || depths[0] != int64(c.Pending()) {
		t.Fatalf("lane depths after the pops: %v, pending %d", depths, c.Pending())
	}
}

// TestPerSenderFIFOProperty is the contract the lanes keep, as a property:
// remote senders on at least two different shards and a concurrent local
// publisher each interleave three subject families, and both a ">"
// subscriber and a single-family subscriber on the four-lane receiver see
// every sender's sequence complete and strictly increasing. Nothing is
// asserted about how the senders interleave: that is not ordered.
func TestPerSenderFIFOProperty(t *testing.T) {
	const (
		lanes   = 4
		remotes = 6
		perSend = 300
	)
	ds := newDaemons(t, lanes, 1+remotes)
	recv := ds[0]
	all, err := recv.NewClient("all")
	if err != nil {
		t.Fatal(err)
	}
	if err := all.Subscribe(subject.MustParsePattern(">")); err != nil {
		t.Fatal(err)
	}
	senderLanes(t, recv, all, ds[1:])
	one, err := recv.NewClient("one")
	if err != nil {
		t.Fatal(err)
	}
	if err := one.Subscribe(subject.MustParsePattern("fam1.>")); err != nil {
		t.Fatal(err)
	}
	subjects := familySubjects(3)

	// Sender k publishes "k:0", "k:1", ... ; ds[0], the receiver itself, is
	// the local publisher.
	errs := make(chan error, len(ds))
	for k, d := range ds {
		go func(k int, d *Daemon) {
			for i := 0; i < perSend; i++ {
				if err := d.Publish(subjects[i%len(subjects)], []byte(fmt.Sprintf("%d:%d", k, i))); err != nil {
					errs <- err
					return
				}
			}
			errs <- d.Flush()
		}(k, d)
	}
	// check drains want deliveries from c and verifies, per sender, that the
	// sequence numbers it sees are exactly first, first+step, ...
	check := func(c *Client, first, step, want int) error {
		next := make([]int, len(ds))
		for k := range next {
			next[k] = first
		}
		stop := make(chan struct{})
		timer := time.AfterFunc(30*time.Second, func() { close(stop) })
		defer timer.Stop()
		for n := 0; n < want; n++ {
			dv, ok := c.Next(stop)
			if !ok {
				return fmt.Errorf("%s: %d of %d deliveries, next per sender %v", c.Name(), n, want, next)
			}
			var k, i int
			if _, err := fmt.Sscanf(string(dv.Payload), "%d:%d", &k, &i); err != nil {
				return fmt.Errorf("%s: payload %q: %v", c.Name(), dv.Payload, err)
			}
			if i != next[k] {
				return fmt.Errorf("%s: sender %d delivered %d, want %d (subject %s)", c.Name(), k, i, next[k], dv.Subject)
			}
			next[k] += step
		}
		return nil
	}
	go func() { errs <- check(all, 0, 1, len(ds)*perSend) }()
	go func() { errs <- check(one, 1, 3, len(ds)*perSend/3) }()
	for i := 0; i < len(ds)+2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if all.Pending() != 0 || one.Pending() != 0 {
		t.Fatalf("pending after both drained: all %d, one %d", all.Pending(), one.Pending())
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
