package router

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/core"
	"infobus/internal/mesh"
	"infobus/internal/mop"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
)

// fastMesh scales the mesh protocol timers down to the simulated network's
// pace, like fastReliable does for the stream protocol: detection within
// tens of milliseconds. Interest expiry is the router's InterestTTL
// (newRouter: 2 s, eight of a host's advertisement periods).
func fastMesh() mesh.Config {
	return mesh.Config{
		HelloInterval:  10 * time.Millisecond,
		Debounce:       4 * time.Millisecond,
		StatusInterval: -1,
	}
}

// triangle builds the canonical redundant topology: three segments in a
// physical ring, each bridged to the next by one mesh router.
//
//	S1 --ra-- S2 --rb-- S3 --rc-- S1
func triangle(t *testing.T, cfg mesh.Config) (s1, s2, s3 *transport.SimSegment, ra, rb, rc *Router) {
	t.Helper()
	s1, s2, s3 = fastSeg(), fastSeg(), fastSeg()
	t.Cleanup(func() { s1.Close(); s2.Close(); s3.Close() })
	ra = newRouter(t, Options{Name: "ra", Mesh: cfg},
		Attachment{Segment: s1, Name: "S1"},
		Attachment{Segment: s2, Name: "S2"},
	)
	rb = newRouter(t, Options{Name: "rb", Mesh: cfg},
		Attachment{Segment: s2, Name: "S2"},
		Attachment{Segment: s3, Name: "S3"},
	)
	rc = newRouter(t, Options{Name: "rc", Mesh: cfg},
		Attachment{Segment: s3, Name: "S3"},
		Attachment{Segment: s1, Name: "S1"},
	)
	return
}

// blockedPorts counts blocked ports across the given routers' snapshots.
func blockedPorts(routers ...*Router) int {
	n := 0
	for _, r := range routers {
		for _, l := range r.MeshStatus().Links {
			if l.State != "forwarding" {
				n++
			}
		}
	}
	return n
}

// waitBlockedPorts polls until the mesh settles with exactly want blocked
// ports across the routers.
func waitBlockedPorts(t *testing.T, want int, routers ...*Router) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		if blockedPorts(routers...) == want {
			return
		}
		select {
		case <-deadline:
			for _, r := range routers {
				t.Logf("mesh status: %+v", r.MeshStatus())
			}
			t.Fatalf("mesh never settled at %d blocked ports", want)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestMeshTriangleDeliversExactlyOnce: a physical ring of segments would be
// a forwarding loop; the election cuts the ring into a tree: the subscriber
// sees exactly ONE copy per publication, and exactly one port in the mesh
// is blocked.
func TestMeshTriangleDeliversExactlyOnce(t *testing.T) {
	s1, _, s3, ra, rb, rc := triangle(t, fastMesh())
	waitBlockedPorts(t, 1, ra, rb, rc)

	pub := newBus(t, s1, "pubhost", core.HostConfig{})
	con := newBus(t, s3, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("tri.>")
	if err != nil {
		t.Fatal(err)
	}
	publishUntil(t, pub, "tri.warm", int64(0), sub)

	// One unique publication after convergence: exactly one copy may arrive.
	if err := pub.Publish("tri.unique", int64(777)); err != nil {
		t.Fatal(err)
	}
	if copies := countCopies(sub, "tri.unique", 400*time.Millisecond); copies != 1 {
		t.Fatalf("subscriber saw %d copies across the ring, want exactly 1", copies)
	}
	if lost := ra.Stats().LoopDropped + rb.Stats().LoopDropped + rc.Stats().LoopDropped; lost != 0 {
		t.Errorf("hop limit fired %d times on a loop-free tree", lost)
	}
}

// TestMeshGuaranteedSurvivesRouterDeath is the healing half of the tentpole:
// kill the router carrying the active path and the tree re-elects around it
// — the blocked redundant link takes over, interest re-advertises, and the
// publisher's retrier converges every guaranteed message with no loss.
func TestMeshGuaranteedSurvivesRouterDeath(t *testing.T) {
	s1, _, s3, ra, rb, rc := triangle(t, fastMesh())
	waitBlockedPorts(t, 1, ra, rb, rc)

	pub := newBus(t, s1, "pubhost", core.HostConfig{
		LedgerPath:    filepath.Join(t.TempDir(), "pub.ledger"),
		RetryInterval: 20 * time.Millisecond,
	})
	con := newBus(t, s3, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("g.mesh")
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[string]bool)
	recvInto := func(within time.Duration) {
		deadline := time.After(within)
		for {
			select {
			case ev := <-sub.C:
				if s, ok := ev.Value.(string); ok {
					got[s] = true
				}
			case <-deadline:
				return
			}
		}
	}

	if _, err := pub.PublishGuaranteed("g.mesh", "before-death"); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(15 * time.Second)
	for !got["before-death"] {
		recvInto(20 * time.Millisecond)
		select {
		case <-deadline:
			t.Fatal("guaranteed message never crossed the converged mesh")
		default:
		}
	}

	// Kill the router on the S1->S3 tree path, then publish more. The
	// messages sit in the ledger until the survivors re-elect.
	_ = rb.Close()
	if _, err := pub.PublishGuaranteed("g.mesh", "during-outage"); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.PublishGuaranteed("g.mesh", "after-reelection"); err != nil {
		t.Fatal(err)
	}
	for !got["during-outage"] || !got["after-reelection"] {
		recvInto(20 * time.Millisecond)
		select {
		case <-deadline:
			t.Fatalf("guaranteed loss across re-election: got %v, rc mesh %+v", got, rc.MeshStatus())
		default:
		}
	}
	// The ledger drains: acks retrace the healed path back to the origin.
	for len(pub.Host().PendingGuaranteed()) > 0 {
		select {
		case <-deadline:
			t.Fatalf("ledger never drained after re-election; pending %d",
				len(pub.Host().PendingGuaranteed()))
		case <-time.After(10 * time.Millisecond):
		}
	}
	// The survivors' tree is a 2-node line: every port forwarding.
	waitBlockedPorts(t, 0, ra, rc)
}

// TestMeshPartitionHeal drives the netsim partition model: isolating rb's
// S2 endpoint severs the tree path without killing the router, the mesh
// re-elects around the cut, and healing the partition re-converges back to
// a single blocked port with publications still delivered exactly once.
func TestMeshPartitionHeal(t *testing.T) {
	s1, s2, s3, ra, rb, rc := triangle(t, fastMesh())
	waitBlockedPorts(t, 1, ra, rb, rc)

	pub := newBus(t, s1, "pubhost", core.HostConfig{})
	con := newBus(t, s3, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("ph.>")
	if err != nil {
		t.Fatal(err)
	}
	publishUntil(t, pub, "ph.warm", int64(0), sub)

	// Partition rb away from S2: hellos stop crossing, ra and rb declare
	// each other dead on that link, and rc's blocked port must take over.
	var rbS2 int
	for _, att := range rb.atts {
		if att.name == "S2" {
			id, err := strconv.Atoi(strings.TrimPrefix(att.conn.Addr(), "sim:"))
			if err != nil {
				t.Fatal(err)
			}
			rbS2 = id
		}
	}
	s2.Network().Partition(netsim.NodeID(rbS2))
	waitBlockedPorts(t, 0, ra, rb, rc)
	ev := publishUntil(t, pub, "ph.cut", int64(1), sub)
	if ev.Subject.String() != "ph.cut" {
		t.Fatalf("event = %+v", ev)
	}

	// Heal: the redundant link comes back, the election must re-block it,
	// and a post-heal publication still arrives exactly once.
	s2.Network().Heal()
	waitBlockedPorts(t, 1, ra, rb, rc)
	if err := pub.Publish("ph.healed", int64(2)); err != nil {
		t.Fatal(err)
	}
	if copies := countCopies(sub, "ph.healed", 400*time.Millisecond); copies != 1 {
		t.Fatalf("post-heal publication arrived %d times, want exactly 1", copies)
	}
}

// TestMeshWantsCacheInvalidatedOnTopologyChange is the PR 9 regression fix:
// the wants answer "forward into S2" is cached because a subscriber lives
// BEHIND that link (a neighbour router's advertisement, not a host's). When
// that subtree dies, no host on the segment says anything — the router's
// entry in the link's table lapses. The cached answer must not keep saying
// yes.
func TestMeshWantsCacheInvalidatedOnTopologyChange(t *testing.T) {
	cfg := fastMesh()
	s1, s2, s3 := fastSeg(), fastSeg(), fastSeg()
	defer s1.Close()
	defer s2.Close()
	defer s3.Close()
	// A line: S1 --ra-- S2 --rb-- S3, subscriber on the far end.
	ra := newRouter(t, Options{Name: "ra", Mesh: cfg},
		Attachment{Segment: s1, Name: "S1"},
		Attachment{Segment: s2, Name: "S2"},
	)
	rb := newRouter(t, Options{Name: "rb", Mesh: cfg},
		Attachment{Segment: s2, Name: "S2"},
		Attachment{Segment: s3, Name: "S3"},
	)
	con := newBus(t, s3, "conhost", core.HostConfig{})
	if _, err := con.Subscribe("inv.leaf"); err != nil {
		t.Fatal(err)
	}
	subj := subject.MustParse("inv.leaf")
	deadline := time.After(15 * time.Second)
	// The answer comes from rb's hop-propagated interest ad, lands in ra's
	// mesh state, and is cached by the S2 link's wants trie.
	for !ra.WantsOn("S2", subj) {
		select {
		case <-deadline:
			t.Fatal("remote interest never propagated through the mesh")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Kill the subtree. ra's S2 link hears no host ever (none lives on S2)
	// — rb's hello and then its interest entry lapse in the mesh. The
	// cached true must flip.
	_ = rb.Close()
	for ra.WantsOn("S2", subj) {
		select {
		case <-deadline:
			t.Fatal("wants cache kept forwarding into a dead subtree")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestMeshForwardDecisionZeroAlloc pins the steady-state forward decision —
// port-state check, one trie probe served from its match cache — at zero
// allocations: exactly what runs per forwarded publication between envelope
// peek and splice when the only subscriber is behind another router.
func TestMeshForwardDecisionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	r := newFanoutRouter(t, Options{Name: "za"})
	m := r.agent.m
	m.HandleInterest(1, "router:zb", []string{"za.>"}, time.Now())
	subj := subject.MustParse("za.data")
	if !m.Forwarding(1) || !m.Wants(1, subj) {
		t.Fatal("precondition: remote interest should match")
	}
	allocs := testing.AllocsPerRun(10000, func() {
		if !m.Forwarding(1) || !m.Wants(1, subj) {
			t.Fatal("forward decision flipped mid-run")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state forward decision = %v allocs/op, want 0", allocs)
	}
}

// TestMeshForwardDecisionPastCacheCap states what the decision costs once a
// link has seen more distinct subjects than its trie's match cache holds
// (16 384, skip-on-full, cleared by the next interest change): the subject
// is walked again each time. The link's trie holds each pattern once with
// an empty value, so a walk allocates nothing whether it finds a host's
// interest, a neighbour router's or nobody's (the neighbour's cost one small
// slice per egress while it had a trie of its own, keyed by router id).
func TestMeshForwardDecisionPastCacheCap(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	r := newFanoutRouter(t, Options{Name: "za"})
	m := r.agent.m
	m.HandleInterest(1, "router:zb", []string{"za.>"}, time.Now())
	for i := 0; i < 1<<14+64; i++ { // past subject.Trie's cache cap
		m.Wants(1, subject.MustParse("za.fill"+strconv.Itoa(i)))
	}
	for _, tc := range []struct {
		subj   string
		wanted bool
	}{
		{"za.cold", true},    // a neighbor router's interest only
		{"bench.cold", true}, // host interest on the segment
		{"nobody.cold", false},
	} {
		subj := subject.MustParse(tc.subj)
		if got := m.Wants(1, subj); got != tc.wanted {
			t.Fatalf("Wants(%s) = %v, want %v", tc.subj, got, tc.wanted)
		}
		if allocs := testing.AllocsPerRun(1000, func() { m.Wants(1, subj) }); allocs != 0 {
			t.Errorf("uncached forward decision for %s = %v allocs/op, want 0", tc.subj, allocs)
		}
	}
}

// TestInterestCapCountedAndRecorded: an advertisement the table cuts short
// reaches the operator — "mesh.interest_capped" counts every one, the
// flight recorder keeps one "mesh-interest-capped" event however many
// follow — and what was kept is the head of the list.
func TestInterestCapCountedAndRecorded(t *testing.T) {
	r := newFanoutRouter(t, Options{Name: "cap", Mesh: fastMesh(), Health: telemetry.HealthConfig{Interval: time.Hour}})
	var pats []string
	for i := 0; i <= mesh.MaxAdPatterns; i++ {
		pats = append(pats, fmt.Sprintf("cap.p%03d", i))
	}
	ad := busproto.Encode(busproto.Envelope{Kind: busproto.KindInterest, Patterns: pats})
	capped := r.Metrics().Counter("mesh.interest_capped")
	for n := uint64(1); n <= 2; n++ {
		r.handle(r.atts[1], reliable.Message{From: "greedy", Payload: ad})
		waitFor(t, "the capped advertisement to be counted", func() bool { return capped.Load() == n })
	}
	events := 0
	for _, ev := range r.rec.Events() {
		if ev.Kind == telemetry.EventMesh && ev.Target == "mesh-interest-capped" {
			events++
		}
	}
	if events != 1 {
		t.Errorf("%d mesh-interest-capped events recorded, want 1", events)
	}
	if !r.WantsOn("a", subject.MustParse(pats[0])) || r.WantsOn("a", subject.MustParse(pats[mesh.MaxAdPatterns])) {
		t.Error("truncation must keep the head of the advertisement and drop its tail")
	}
}

// TestMeshStatusAdObservable: status snapshots are ordinary self-describing
// publications, so a monitor host ANYWHERE on the bridged bus (ibmon -mesh)
// can render every router's tree state without linking against the router.
func TestMeshStatusAdObservable(t *testing.T) {
	cfg := fastMesh()
	cfg.StatusInterval = 20 * time.Millisecond
	_, _, s3, _, _, _ := triangle(t, cfg)
	mon := newBus(t, s3, "monhost", core.HostConfig{})
	sub, err := mon.Subscribe(mesh.StatusSubjectPrefix + ".>")
	if err != nil {
		t.Fatal(err)
	}
	// Collect until a status ad from ra — two mesh hops away from the
	// monitor's segment — arrives and parses.
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev := <-sub.C:
			obj, ok := ev.Value.(*mop.Object)
			if !ok {
				t.Fatalf("status ad decoded to %T, want *mop.Object", ev.Value)
			}
			st, ok := mesh.ReadStatus(obj)
			if !ok {
				t.Fatalf("unparseable status ad %v", obj)
			}
			if st.Router != "ra" {
				continue
			}
			if st.Root != "ra" {
				t.Fatalf("status ad root = %q, want ra", st.Root)
			}
			if st.Node != telemetry.SanitizeNode("router-ra") {
				t.Fatalf("status ad node = %q", st.Node)
			}
			if len(st.Links) != 2 {
				t.Fatalf("status ad links = %+v", st.Links)
			}
			return
		case <-deadline:
			t.Fatal("no status ad from the far router reached the monitor")
		}
	}
}

// TestMeshFlapAlarm: a flapping neighbor drives re-advertisement churn; the
// router's health tier must raise the "mesh-flap" alarm and the churn series
// must be visible in the "_sys.history" flight-data window.
func TestMeshFlapAlarm(t *testing.T) {
	cfg := fastMesh()
	s1, s2 := fastSeg(), fastSeg()
	defer s1.Close()
	defer s2.Close()
	r := newRouter(t, Options{
		Name: "rh",
		Mesh: cfg,
		Health: telemetry.HealthConfig{
			Interval:     5 * time.Millisecond,
			MeshFlapRate: 5, // readvertisements/s; flap churn far exceeds it
		},
	},
		Attachment{Segment: s1, Name: "S1"},
		Attachment{Segment: s2, Name: "S2"},
	)
	mon := newBus(t, s1, "monhost", core.HostConfig{})
	alarms, err := mon.Subscribe("_sys.alarm.>")
	if err != nil {
		t.Fatal(err)
	}
	// Synthesize a flapping peer: alternate two interest sets into the mesh
	// faster than the debounce can fully coalesce. Driving the state
	// machine directly keeps the churn source deterministic.
	go func() {
		pats := [][]string{{"flap.a"}, {"flap.b"}}
		for i := 0; i < 400; i++ {
			r.agent.m.HandleInterest(0, "zz-flapper", pats[i%2], time.Now())
			time.Sleep(2 * time.Millisecond)
		}
	}()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev := <-alarms.C:
			if !strings.Contains(ev.Subject.String(), "mesh-flap") {
				continue
			}
			// The churn series must be visible in the flight-data ring once
			// the sampler has ticked (its period is coarser than the alarm's).
			for r.hist.Snapshot(0).Ticks == 0 {
				select {
				case <-deadline:
					t.Fatal("history sampler never ticked")
				case <-time.After(10 * time.Millisecond):
				}
			}
			return
		case <-deadline:
			t.Fatalf("mesh-flap alarm never raised; readverts=%d",
				r.agent.readverts.Load())
		}
	}
}

// wireTap is a raw endpoint on a segment that records the subject of every
// data envelope published there and counts the frames carrying a payload
// marker: what the medium carried, whoever sent it.
type wireTap struct {
	mu       sync.Mutex
	subjects map[string]int
	marked   map[string]int // marker -> frames whose bytes contain it
}

func tapSegment(t *testing.T, seg *transport.SimSegment, markers ...string) *wireTap {
	t.Helper()
	ep, err := seg.NewEndpoint("tap")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	tap := &wireTap{subjects: map[string]int{}, marked: map[string]int{}}
	go func() {
		for dg := range ep.Recv() {
			tap.mu.Lock()
			for _, p := range reliable.DecodeDataPayloads(dg.Payload) {
				if hdr, err := busproto.Peek(p); err == nil && len(hdr.Subject) > 0 {
					tap.subjects[string(hdr.Subject)]++
				}
			}
			for _, m := range markers {
				if bytes.Contains(dg.Payload, []byte(m)) {
					tap.marked[m]++
				}
			}
			tap.mu.Unlock()
		}
	}()
	return tap
}

func (w *wireTap) saw(marker string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.marked[marker]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMeshJoinNeedsNoDiscovery: a router started on a segment where another
// is already running finds it through the hellos alone. The periodic hello
// is an hour away, so the only frames that can carry the neighbor's vector
// to the joiner are the joiner's first-tick hello and the answer it
// triggers (internal/mesh TestJoinConvergesWithinFourTicks counts the
// ticks: two); and the only mesh subject the shared segment ever carries
// is the hello conversation — no "_sys.mesh.q."/".r." discovery round
// exists any more, and interest travels as the host's envelope, on no
// subject at all.
func TestMeshJoinNeedsNoDiscovery(t *testing.T) {
	cfg := fastMesh()
	cfg.HelloInterval = time.Hour
	s1, s2, s3 := fastSeg(), fastSeg(), fastSeg()
	t.Cleanup(func() { s1.Close(); s2.Close(); s3.Close() })
	tap := tapSegment(t, s2)
	ra := newRouter(t, Options{Name: "ra", Mesh: cfg},
		Attachment{Segment: s1, Name: "S1"}, Attachment{Segment: s2, Name: "S2"})
	waitFor(t, "ra's first hello", func() bool { return ra.agent.helloSent.Load() >= 2 })

	started := time.Now()
	rb := newRouter(t, Options{Name: "rb", Mesh: cfg},
		Attachment{Segment: s2, Name: "S2"}, Attachment{Segment: s3, Name: "S3"})
	waitFor(t, "the joiner and its neighbor to agree", func() bool {
		a, b := ra.MeshStatus(), rb.MeshStatus()
		return a.Root == "ra" && b.Root == "ra" && b.Parent == "ra" &&
			a.Links[1].Peers == 1 && b.Links[0].Peers == 1
	})
	t.Logf("joined in %v (agent tick %v)", time.Since(started), rb.agent.m.TickInterval())

	tap.mu.Lock()
	defer tap.mu.Unlock()
	if tap.subjects[mesh.HelloSubject] == 0 {
		t.Fatal("the tap saw no hello: it is not observing the segment")
	}
	for subj := range tap.subjects {
		if strings.HasPrefix(subj, "_sys.mesh.") && subj != mesh.HelloSubject {
			t.Errorf("unexpected mesh subject on the wire: %s", subj)
		}
	}
}

// TestMeshThreeRouterLine is what the pairwise relay's transitive union was
// for: S1 -ra- S2 -rb- S3 -rc- S4 with the only subscriber on S4. Interest
// travels three hops up the line, the publication three hops down it, and
// a subject nobody wants never leaves the publisher's segment.
func TestMeshThreeRouterLine(t *testing.T) {
	const wanted, unwanted = "IB-LINE-WANTED", "IB-LINE-UNWANTED"
	segs := []*transport.SimSegment{fastSeg(), fastSeg(), fastSeg(), fastSeg()}
	taps := make([]*wireTap, len(segs))
	for i, seg := range segs {
		t.Cleanup(func() { seg.Close() })
		taps[i] = tapSegment(t, seg, wanted, unwanted)
	}
	routers := make([]*Router, 3)
	for i, name := range []string{"ra", "rb", "rc"} {
		routers[i] = newRouter(t, Options{Name: name, Mesh: fastMesh()},
			Attachment{Segment: segs[i], Name: fmt.Sprintf("S%d", i+1)},
			Attachment{Segment: segs[i+1], Name: fmt.Sprintf("S%d", i+2)})
	}
	pub := newBus(t, segs[0], "pubhost", core.HostConfig{})
	con := newBus(t, segs[3], "conhost", core.HostConfig{})
	sub, err := con.Subscribe("line.>")
	if err != nil {
		t.Fatal(err)
	}
	if ev := publishUntil(t, pub, "line.data", wanted, sub); ev.Value != wanted {
		t.Fatalf("event = %+v", ev)
	}
	for i, tap := range taps {
		// The subscriber's daemon and the tap hear the same broadcast; the
		// tap may be a moment behind.
		waitFor(t, fmt.Sprintf("the wanted publication on S%d", i+1), func() bool { return tap.saw(wanted) > 0 })
	}

	before := routers[0].Stats().Suppressed
	const n = 5
	for i := 0; i < n; i++ {
		if err := pub.Publish("nobody.wants", unwanted); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "ra to turn the unwanted publications away", func() bool {
		return routers[0].Stats().Suppressed >= before+n
	})
	waitFor(t, "the unwanted publication on the publisher's own segment", func() bool { return taps[0].saw(unwanted) > 0 })
	for i, tap := range taps[1:] {
		if got := tap.saw(unwanted); got != 0 {
			t.Errorf("a subject nobody wants crossed S%d (%d frames)", i+2, got)
		}
	}
}

// TestSameNameRoutersDetected: two routers given one name discard each
// other's hellos as their own, so each stays root with every port
// forwarding and a cycle through the pair is never cut (the pairwise relay,
// which knew no names, used to hide this). Both must say so: the
// "mesh.id_conflicts" counter and one "mesh-id-conflict" recorder event.
//
// The counter can only mean a twin if a router never hears its own ads:
// neither netsim nor the UDP segment delivers a broadcast to its sender, and
// reliable.Conn adds no loopback. The first half of the test checks that on
// the wire — a router alone on its segments says hello and counts nothing.
func TestSameNameRoutersDetected(t *testing.T) {
	s1, s2, s3 := fastSeg(), fastSeg(), fastSeg()
	t.Cleanup(func() { s1.Close(); s2.Close(); s3.Close() })
	health := telemetry.HealthConfig{Interval: time.Hour}
	conflicts := func(r *Router) uint64 { return r.Metrics().Counter("mesh.id_conflicts").Load() }

	one := newRouter(t, Options{Name: "twin", Mesh: fastMesh(), Health: health},
		Attachment{Segment: s1, Name: "S1"}, Attachment{Segment: s2, Name: "S2"})
	waitFor(t, "a few hello rounds", func() bool { return one.agent.helloSent.Load() >= 6 })
	if got := conflicts(one); got != 0 {
		t.Fatalf("a router alone on its segments counted %d id conflicts: it hears its own ads", got)
	}

	two := newRouter(t, Options{Name: "twin", Mesh: fastMesh(), Health: health},
		Attachment{Segment: s2, Name: "S2"}, Attachment{Segment: s3, Name: "S3"})
	for _, r := range []*Router{one, two} {
		waitFor(t, "the id conflict to be counted and recorded", func() bool {
			return conflicts(r) > 0 && slices.ContainsFunc(r.rec.Events(), func(ev telemetry.Event) bool {
				return ev.Kind == telemetry.EventMesh && ev.Target == "mesh-id-conflict"
			})
		})
		if st := r.MeshStatus(); st.Root != "twin" || st.Links[0].Peers+st.Links[1].Peers != 0 {
			t.Errorf("a twin's ads were taken for a neighbor's: %+v", st)
		}
	}
	// Recorded once, however long the twin keeps talking.
	waitFor(t, "more conflicting ads", func() bool { return conflicts(one) >= 3 })
	n := 0
	for _, ev := range one.rec.Events() {
		if ev.Target == "mesh-id-conflict" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("%d mesh-id-conflict events recorded, want 1", n)
	}
}
