package mesh

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"infobus/internal/subject"
)

// fastCfg keeps the state-machine tests deterministic and quick: the
// simulated exchange below advances a fake clock in 1ms steps.
func fastCfg() Config {
	return Config{
		HelloInterval:  5 * time.Millisecond,
		Debounce:       2 * time.Millisecond,
		StatusInterval: -1,
	}
}

// fastTTL is the interest lifetime the tests run with: a router refreshes
// every 20 steps of the fake clock and an unrefreshed entry lapses at 80.
const fastTTL = 80 * time.Millisecond

// fabric wires Mesh state machines together by segment name and pumps
// their advertisements synchronously: a deterministic stand-in for the
// network, so election tests need no goroutines or sleeps.
type fabric struct {
	members map[string][]fabricPort // segment name -> attached ports
	meshes  map[string]*Mesh
	hosts   map[fabricPort][]string // host daemon heard on one port -> its interest
	now     time.Time
	down    map[string]bool            // mesh id -> stopped (death)
	cut     map[string]map[string]bool // segment -> mesh ids partitioned off it
}

type fabricPort struct {
	mesh *Mesh
	link int
}

func newFabric() *fabric {
	return &fabric{
		members: map[string][]fabricPort{},
		meshes:  map[string]*Mesh{},
		hosts:   map[fabricPort][]string{},
		now:     time.Unix(1000, 0),
		down:    map[string]bool{},
		cut:     map[string]map[string]bool{},
	}
}

func (f *fabric) add(id string, segments ...string) *Mesh {
	return f.addCfg(id, fastCfg(), segments...)
}

func (f *fabric) addCfg(id string, cfg Config, segments ...string) *Mesh {
	m := New(id, segments, fastTTL, cfg)
	f.meshes[id] = m
	for li, seg := range segments {
		f.members[seg] = append(f.members[seg], fabricPort{mesh: m, link: li})
	}
	return m
}

// setHost stands one host daemon on one mesh's link (that mesh alone hears
// it, which lets a test say whose table an answer came from). Like a daemon
// it advertises at once and then every step, and says the empty set once.
func (f *fabric) setHost(id string, link int, patterns ...string) {
	port := fabricPort{mesh: f.meshes[id], link: link}
	port.mesh.HandleInterest(link, "host", patterns, f.now)
	if f.hosts[port] = patterns; len(patterns) == 0 {
		delete(f.hosts, port)
	}
}

// partition severs one mesh's port on one segment (netsim's partition
// model collapsed to "its frames stop arriving").
func (f *fabric) partition(seg, id string) {
	if f.cut[seg] == nil {
		f.cut[seg] = map[string]bool{}
	}
	f.cut[seg][id] = true
}

func (f *fabric) heal(seg, id string) { delete(f.cut[seg], id) }

// step advances the fake clock one millisecond and delivers every due
// advertisement to every live peer on the same segment.
func (f *fabric) step() {
	f.now = f.now.Add(time.Millisecond)
	type delivery struct {
		to   fabricPort
		v    any
		from string
		seg  string
	}
	var deliveries []delivery
	for id, m := range f.meshes {
		if f.down[id] {
			continue
		}
		acts := m.Actions(f.now)
		collect := func(link int, v any) {
			seg := segmentOf(f, m, link)
			if f.cut[seg][id] {
				return // sender partitioned off this segment
			}
			for _, port := range f.members[seg] {
				if port.mesh == m || f.down[port.mesh.ID()] || f.cut[seg][port.mesh.ID()] {
					continue
				}
				deliveries = append(deliveries, delivery{to: port, v: v, from: id, seg: seg})
			}
		}
		for _, h := range acts.Hellos {
			collect(h.Link, h.Ad)
		}
		for _, i := range acts.Interests {
			collect(i.Link, i.Patterns)
		}
	}
	for _, d := range deliveries {
		switch ad := d.v.(type) {
		case HelloAd:
			d.to.mesh.HandleHello(d.to.link, ad, f.now)
		case []string:
			d.to.mesh.HandleInterest(d.to.link, "router:"+d.from, ad, f.now)
		}
	}
	for port, patterns := range f.hosts {
		port.mesh.HandleInterest(port.link, "host", patterns, f.now)
	}
}

func segmentOf(f *fabric, m *Mesh, link int) string {
	for seg, ports := range f.members {
		for _, p := range ports {
			if p.mesh == m && p.link == link {
				return seg
			}
		}
	}
	panic("unknown link")
}

func (f *fabric) run(steps int) {
	for i := 0; i < steps; i++ {
		f.step()
	}
}

func states(m *Mesh) string {
	st := m.Snapshot()
	parts := make([]string, 0, len(st.Links))
	for _, l := range st.Links {
		parts = append(parts, fmt.Sprintf("%s=%s", l.Name, l.State))
	}
	return strings.Join(parts, " ")
}

// TestElectionTriangle: three routers closing a cycle over three segments
// elect the lowest id as root and block exactly one redundant port, so the
// segment graph becomes a tree.
func TestElectionTriangle(t *testing.T) {
	f := newFabric()
	a := f.add("ra", "S1", "S2")
	b := f.add("rb", "S2", "S3")
	c := f.add("rc", "S3", "S1")
	f.run(60)

	for _, m := range []*Mesh{a, b, c} {
		if got := m.Snapshot().Root; got != "ra" {
			t.Fatalf("%s root = %q, want ra", m.ID(), got)
		}
	}
	if st := a.Snapshot(); st.RootPort != -1 || !a.Forwarding(0) || !a.Forwarding(1) {
		t.Fatalf("root ports: %+v %s", st, states(a))
	}
	if st := b.Snapshot(); st.Parent != "ra" || !b.Forwarding(0) || !b.Forwarding(1) {
		t.Fatalf("rb: parent %q states %s", st.Parent, states(b))
	}
	// rc loses the designated election on S3 to rb (same root, same cost,
	// higher id) and blocks it: the cycle is cut exactly once.
	if st := c.Snapshot(); st.Parent != "ra" || c.Forwarding(0) || !c.Forwarding(1) {
		t.Fatalf("rc: parent %q states %s", st.Parent, states(c))
	}
}

// TestRootDeathReelection: when the root dies, the orphaned routers
// converge on the next-lowest id, and the previously blocked redundant
// port unblocks to reconnect the tree.
func TestRootDeathReelection(t *testing.T) {
	f := newFabric()
	b := f.add("rb", "S2", "S3")
	c := f.add("rc", "S3", "S1")
	f.add("ra", "S1", "S2")
	f.run(60)
	if c.Forwarding(0) {
		t.Fatalf("precondition: rc S3 should be blocked, got %s", states(c))
	}
	topoBefore := c.Counters().TopoChanges

	f.down["ra"] = true
	f.run(200) // dead interval (4x5ms) + count-to-infinity cap + re-election

	for _, m := range []*Mesh{b, c} {
		if got := m.Snapshot().Root; got != "rb" {
			t.Fatalf("%s root after death = %q, want rb (state %s)", m.ID(), got, states(m))
		}
	}
	// The surviving topology is a line S2-rb-S3-rc-S1: everything forwards.
	if !b.Forwarding(0) || !b.Forwarding(1) || !c.Forwarding(0) || !c.Forwarding(1) {
		t.Fatalf("post-death states: rb %s, rc %s", states(b), states(c))
	}
	if st := c.Snapshot(); st.Parent != "rb" {
		t.Fatalf("rc parent = %q, want rb", st.Parent)
	}
	if c.Counters().TopoChanges == topoBefore {
		t.Fatal("re-election must count as a topology change")
	}
}

// TestPartitionHealReelection: partitioning the root off one segment makes
// the stranded router re-root its path through the redundant link; healing
// restores the original tree.
func TestPartitionHealReelection(t *testing.T) {
	f := newFabric()
	b := f.add("rb", "S2", "S3")
	f.add("ra", "S1", "S2")
	f.add("rc", "S3", "S1")
	f.run(60)
	if st := b.Snapshot(); st.RootPort != 0 {
		t.Fatalf("precondition: rb root port should be S2, got %d", st.RootPort)
	}

	f.partition("S2", "ra")
	f.run(120)
	// rb still reaches root ra, but now via S3-rc-S1.
	if st := b.Snapshot(); st.Root != "ra" || st.RootPort != 1 || st.Parent != "rc" {
		t.Fatalf("partitioned rb = %+v (%s)", st, states(b))
	}

	f.heal("S2", "ra")
	f.run(120)
	if st := b.Snapshot(); st.Root != "ra" || st.RootPort != 0 || st.Parent != "ra" {
		t.Fatalf("healed rb = %+v (%s)", st, states(b))
	}
}

// TestInterestPropagatesHopByHop: host interest on a leaf segment is
// advertised up the line with split horizon, so the far router learns to
// forward toward it while the leaf's own segment hears nothing back.
func TestInterestPropagatesHopByHop(t *testing.T) {
	f := newFabric()
	a := f.add("ra", "S1", "S2")
	b := f.add("rb", "S2", "S3")
	f.run(40)

	f.setHost("rb", 1, "mkt.nyse.>") // daemons on S3 want mkt.nyse.>
	f.run(40)

	s := subject.MustParse("mkt.nyse.ibm")
	if !a.Wants(1, s) {
		t.Fatal("ra should have learned S3's interest through rb's ad on S2")
	}
	if a.Wants(0, s) {
		t.Fatal("split horizon: nothing on S1 advertised this interest")
	}
	if n := len(b.links[1].heard); !b.Wants(1, s) || n != 1 {
		t.Fatalf("rb's S3 table holds %d senders, want the host alone: nobody may echo its interest back", n)
	}

	// Withdrawal: when the host interest goes away, rb's next ad — the
	// empty set — removes its entry upstream, and the answer the wants trie
	// had cached for the subject (the Wants above) goes with it, one
	// debounce later and not at the TTL.
	f.setHost("rb", 1)
	f.run(4)
	if a.Wants(1, s) || b.Wants(1, s) {
		t.Fatal("withdrawn interest must stop matching, at the host's router and upstream")
	}
}

// TestInterestAggregatedTransitively: a hop that has already aggregated to
// the 64-pattern cap stays capped at the next hop — the mesh never
// explodes an aggregate back into specifics, and re-advertisements stay
// small no matter how many leaves sit behind a link.
func TestInterestAggregatedTransitively(t *testing.T) {
	f := newFabric()
	a := f.add("ra", "S1", "S2")
	f.add("rb", "S2", "S3")
	f.run(40)

	var pats []string
	for i := 0; i < 200; i++ {
		pats = append(pats, fmt.Sprintf("fam%03d.leaf.%d", i, i))
	}
	f.setHost("rb", 1, pats...)
	f.run(40)

	st := a.Snapshot()
	var learned []string
	for _, l := range st.Links {
		if l.Name == "S2" {
			learned = l.Patterns
		}
	}
	if len(learned) == 0 || len(learned) > 64 {
		t.Fatalf("ra learned %d patterns, want 1..64 aggregated", len(learned))
	}
	for _, p := range learned {
		if !strings.HasSuffix(p, "."+subject.WildcardRest) && p != subject.WildcardRest {
			t.Fatalf("aggregated ad leaked a specific pattern %q", p)
		}
	}
	if !a.Wants(1, subject.MustParse("fam123.leaf.123")) {
		t.Fatal("aggregation must only widen: the original subject still matches")
	}
}

// TestDebounceCoalescesChurn: a flapping subscription produces at most one
// re-advertisement per debounce window per link, not one per flap.
func TestDebounceCoalescesChurn(t *testing.T) {
	f := newFabric()
	b := f.add("rb", "S2", "S3")
	f.add("ra", "S1", "S2")
	f.run(40)

	before := b.Counters().Readverts
	// 30 flaps inside ~3 debounce windows (debounce 2ms, 1ms steps).
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			f.setHost("rb", 1, "flappy.>")
		} else {
			f.setHost("rb", 1)
		}
		f.step()
	}
	f.run(10)
	emitted := b.Counters().Readverts - before
	if emitted > 12 {
		t.Fatalf("30 flaps emitted %d re-advertisements; debounce should coalesce them", emitted)
	}
}

// TestBlockedPortQuiet: interest is never advertised into a blocked port,
// and a blocked port contributes nothing to other links' ads.
func TestBlockedPortQuiet(t *testing.T) {
	f := newFabric()
	c := f.add("rc", "S3", "S1")
	f.add("ra", "S1", "S2")
	f.add("rb", "S2", "S3")
	f.run(60)
	if c.Forwarding(0) {
		t.Fatalf("precondition: rc S3 blocked, got %s", states(c))
	}
	// Interest on S1 (rc's forwarding side): rc must not advertise it into
	// blocked S3.
	f.setHost("rc", 1, "deep.>")
	f.run(60)
	s := subject.MustParse("deep.x")
	// rb hears nothing from rc on S3 (rc is blocked there); it learns the
	// interest via ra instead (S1 hosts are ra's responsibility too —
	// ra hears the same daemons). Here interest was injected as rc's host
	// table only, so rb must NOT know it.
	f.run(20)
	if f.meshes["rb"].Wants(1, s) {
		t.Fatal("blocked rc leaked interest into S3")
	}
}

// TestJoinConvergesWithinFourTicks: a router started beside a running one
// needs no discovery round to find it. Its first tick says hello; the
// neighbor, hearing a router it did not know, answers on its own next tick.
// With the periodic hello an hour away, only that exchange can explain the
// joiner holding the neighbor's vector and both naming one root, and it
// takes two ticks — the bound asserted is the four the bootstrap's window
// used to be.
func TestJoinConvergesWithinFourTicks(t *testing.T) {
	cfg := fastCfg()
	cfg.HelloInterval = time.Hour
	for _, joiner := range []string{"rz", "r0"} { // joins below the root, and as the new root
		f := newFabric()
		a := f.addCfg("ra", cfg, "S1", "S2")
		f.run(40) // ra is long past its own first hello
		b := f.addCfg(joiner, cfg, "S2", "S3")
		root := min(joiner, "ra")
		ticks := 0
		for converged := false; !converged; ticks++ {
			if ticks == 4 {
				t.Fatalf("%s: not converged after 4 ticks: ra %+v, joiner %+v", joiner, a.Snapshot(), b.Snapshot())
			}
			f.step()
			sa, sb := a.Snapshot(), b.Snapshot()
			converged = sa.Root == root && sb.Root == root && sa.Links[1].Peers == 1 && sb.Links[0].Peers == 1
		}
		t.Logf("%s joined ra: converged on root %s in %d ticks", joiner, root, ticks)
	}
}

// TestSameIDCounted: two routers configured with one id discard each
// other's ads as their own — each stays root and learns no interest, so
// nothing would cross the pair. The ads are counted, which is how the
// operator finds out.
func TestSameIDCounted(t *testing.T) {
	// Two twins sharing S2 (the fabric keys meshes by id, so by hand).
	a := New("twin", []string{"S1", "S2"}, fastTTL, fastCfg())
	b := New("twin", []string{"S2", "S3"}, fastTTL, fastCfg())
	now := time.Unix(1000, 0)
	for i := 0; i < 40; i++ {
		now = now.Add(time.Millisecond)
		for _, h := range b.Actions(now).Hellos {
			if h.Link == 0 {
				a.HandleHello(1, h.Ad, now)
			}
		}
		for _, h := range a.Actions(now).Hellos {
			if h.Link == 1 {
				b.HandleHello(0, h.Ad, now)
			}
		}
	}
	for _, m := range []*Mesh{a, b} {
		st := m.Snapshot()
		if st.IDConflicts == 0 {
			t.Fatalf("a twin's hellos were dropped without a trace: %+v", st)
		}
		if st.Root != "twin" || st.Links[0].Peers+st.Links[1].Peers != 0 {
			t.Fatalf("a twin's ad was taken for a neighbor's: %+v", st)
		}
	}
}

// TestInterestSwapKeepsCommonPatterns: a sender's new advertisement
// replaces its old one, drops exactly the patterns that left, and never
// passes through a state where a pattern in both does not match — a
// forwarding goroutine probes the lock-free Wants all through the swaps.
func TestInterestSwapKeepsCommonPatterns(t *testing.T) {
	m := New("ra", []string{"S1", "S2"}, fastTTL, fastCfg())
	now := time.Unix(1000, 0)
	keep, gone, came := subject.MustParse("keep.x"), subject.MustParse("gone.x"), subject.MustParse("came.x")
	m.HandleInterest(1, "rb", []string{"keep.>", "gone.>"}, now)
	if !m.Wants(1, keep) || !m.Wants(1, gone) || m.Wants(1, came) {
		t.Fatal("first ad not reflected")
	}
	m.HandleInterest(1, "rb", []string{"came.>", "keep.>"}, now)
	if !m.Wants(1, keep) || m.Wants(1, gone) || !m.Wants(1, came) {
		t.Fatal("second ad must replace the first: keep and came match, gone does not")
	}

	stop, dropped := make(chan struct{}), false
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if !m.Wants(1, keep) {
					dropped = true
				}
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		m.HandleInterest(1, "rb", [][]string{{"gone.>", "keep.>"}, {"came.>", "keep.>"}}[i%2], now)
	}
	close(stop)
	wg.Wait()
	if dropped {
		t.Fatal("a pattern in both the old and the new set stopped matching mid-swap")
	}
}

// TestRefreshLeavesTrieAlone: an advertisement that changes nothing — the
// same set again (a host's 250 ms cadence), the same set unsorted or with a
// duplicate, or a second sender of a pattern the link already holds — does
// not touch the link's trie, so the match cache the forwarding path reads
// survives it, and re-advertises nothing.
func TestRefreshLeavesTrieAlone(t *testing.T) {
	m := New("ra", []string{"S1", "S2"}, fastTTL, fastCfg())
	now := time.Unix(1000, 0)
	m.HandleInterest(1, "h1", []string{"a.>", "b.x"}, now)
	m.Actions(now.Add(fastCfg().Debounce)) // the ad into S1 goes out; nothing is dirty
	gen := m.links[1].wants.Gen()
	for i, ad := range [][]string{{"a.>", "b.x"}, {"b.x", "a.>"}, {"a.>", "b.x", "a.>"}} {
		m.HandleInterest(1, "h1", ad, now.Add(time.Duration(i)*time.Millisecond))
	}
	m.HandleInterest(1, "h2", []string{"b.x"}, now)
	if got := m.links[1].wants.Gen(); got != gen {
		t.Fatalf("trie generation moved %d -> %d on advertisements that changed no answer", gen, got)
	}
	if m.links[0].adDirty {
		t.Fatal("an unchanged link marked the ad into the other link stale")
	}
	if n := m.links[1].wants.Distinct(); n != 2 || m.links[1].refs["b.x"] != 2 {
		t.Fatalf("trie holds %d patterns, b.x counted %d times; want 2 patterns, each once in the trie", n, m.links[1].refs["b.x"])
	}
}

// TestInterestLapsesAtTTL: one lifetime rule — an entry lapses InterestTTL
// after its sender's last advertisement, exactly, and not while refreshed.
func TestInterestLapsesAtTTL(t *testing.T) {
	m := New("ra", []string{"S1", "S2"}, fastTTL, fastCfg())
	t0 := time.Unix(1000, 0)
	s := subject.MustParse("ttl.x")
	m.HandleInterest(1, "h", []string{"ttl.>"}, t0)
	m.Actions(t0.Add(fastTTL - time.Millisecond))
	if !m.Wants(1, s) {
		t.Fatal("lapsed before its TTL")
	}
	t1 := t0.Add(fastTTL - time.Millisecond)
	m.HandleInterest(1, "h", []string{"ttl.>"}, t1) // refreshed just in time
	m.Actions(t0.Add(fastTTL))
	m.Actions(t1.Add(fastTTL - time.Millisecond))
	if !m.Wants(1, s) {
		t.Fatal("lapsed while refreshed: the TTL runs from the last advertisement")
	}
	acts := m.Actions(t1.Add(fastTTL))
	if m.Wants(1, s) {
		t.Fatal("still matching at last advertisement + InterestTTL")
	}
	if len(m.links[1].heard)+len(m.links[1].refs) != 0 {
		t.Fatalf("lapsed entry left state behind: %+v %+v", m.links[1].heard, m.links[1].refs)
	}
	// What the router asked of S1 on the entry's behalf goes with it: one
	// empty advertisement, a debounce after the lapse.
	acts.Interests = append(acts.Interests, m.Actions(t1.Add(fastTTL+fastCfg().Debounce)).Interests...)
	if len(acts.Interests) != 1 || acts.Interests[0].Link != 0 || len(acts.Interests[0].Patterns) != 0 {
		t.Fatalf("after the lapse the router sent %+v, want one empty ad into S1", acts.Interests)
	}
}

// TestTwoSendersOnePattern: the link keeps a pattern while any sender holds
// it — one leaving (by saying so, or by lapsing) keeps it, both leaving
// drops it.
func TestTwoSendersOnePattern(t *testing.T) {
	now := time.Unix(1000, 0)
	s, other := subject.MustParse("both.x"), subject.MustParse("mine.x")
	for _, leave := range []string{"empty ad", "lapse"} {
		m := New("ra", []string{"S1", "S2"}, fastTTL, fastCfg())
		m.HandleInterest(1, "h1", []string{"both.>", "mine.>"}, now)
		m.HandleInterest(1, "h2", []string{"both.>"}, now.Add(10*time.Millisecond))
		if leave == "empty ad" {
			m.HandleInterest(1, "h1", nil, now.Add(20*time.Millisecond))
		} else {
			m.Actions(now.Add(fastTTL)) // h1's entry is due, h2's has 10 ms left
		}
		if !m.Wants(1, s) || m.Wants(1, other) {
			t.Fatalf("%s: h1 left: want both.> kept for h2 and mine.> gone", leave)
		}
		if leave == "empty ad" {
			m.HandleInterest(1, "h2", []string{}, now.Add(30*time.Millisecond))
		} else {
			m.Actions(now.Add(fastTTL + 10*time.Millisecond))
		}
		if m.Wants(1, s) {
			t.Fatalf("%s: both senders left and the pattern still matches", leave)
		}
	}
}

// TestHostInterestSplitHorizonAndBlockedSource: host interest travels like
// a neighbor router's, because it is kept like one. It is advertised into
// every other forwarding link and never back into the link it was heard on,
// and a blocked link is no source: its hosts are served by the segment's
// designated router.
func TestHostInterestSplitHorizonAndBlockedSource(t *testing.T) {
	f := newFabric()
	a := f.add("ra", "S1", "S2")
	b := f.add("rb", "S2", "S3")
	c := f.add("rc", "S3", "S1")
	f.run(60)
	if c.Forwarding(0) {
		t.Fatalf("precondition: rc S3 blocked, got %s", states(c))
	}
	// A host on S2, heard by rb alone: rb asks S3 for it, never S2.
	f.setHost("rb", 0, "horizon.>")
	// A host on S3, heard by rc alone — on rc's blocked port.
	f.setHost("rc", 0, "blocked.>")
	f.run(20)
	if got := b.links[1].lastAd; len(got) != 1 || got[0] != "horizon.>" {
		t.Fatalf("rb advertised %v into S3, want the S2 host's interest", got)
	}
	if got := b.links[0].lastAd; len(got) != 0 {
		t.Fatalf("rb advertised %v back into S2, the link it heard the host on", got)
	}
	if a.Wants(1, subject.MustParse("horizon.x")) {
		t.Fatal("ra heard the S2 host's interest on S2 from a router: split horizon broken")
	}
	if !c.Wants(0, subject.MustParse("blocked.x")) {
		t.Fatal("rc's S3 table should hold the host it heard there")
	}
	if got := c.links[1].lastAd; len(got) != 0 {
		t.Fatalf("rc sourced %v from its blocked S3 port into S1", got)
	}
	if a.Wants(0, subject.MustParse("blocked.x")) {
		t.Fatal("interest heard on a blocked port reached ra")
	}
}

// TestInterestTableCaps: a peer cannot make a link's table grow without
// bound. One sender's list is truncated at MaxAdPatterns (narrowing only);
// a sender a full link has not heard before is refused while the ones it
// holds keep replacing and refreshing; both count in InterestCapped.
func TestInterestTableCaps(t *testing.T) {
	m := New("ra", []string{"S1", "S2"}, fastTTL, fastCfg())
	now := time.Unix(1000, 0)
	var big []string
	for i := 0; i < MaxAdPatterns+50; i++ {
		big = append(big, fmt.Sprintf("p%04d.>", i))
	}
	m.HandleInterest(1, "greedy", big, now)
	if n := len(m.links[1].heard["greedy"].patterns); n != MaxAdPatterns {
		t.Fatalf("kept %d patterns of one advertisement, cap %d", n, MaxAdPatterns)
	}
	if !m.Wants(1, subject.MustParse("p0000.x")) || m.Wants(1, subject.MustParse(fmt.Sprintf("p%04d.x", MaxAdPatterns))) {
		t.Fatal("truncation must keep the head of the list and drop the tail")
	}
	if got := m.Counters().InterestCapped; got != 1 {
		t.Fatalf("InterestCapped = %d after one truncated ad, want 1", got)
	}
	m.HandleInterest(1, "greedy", nil, now)

	for i := 0; i < maxLinkSenders; i++ {
		m.HandleInterest(1, fmt.Sprintf("h%d", i), []string{"shared.>"}, now)
	}
	m.HandleInterest(1, "late", []string{"late.>"}, now)
	if len(m.links[1].heard) != maxLinkSenders || m.Wants(1, subject.MustParse("late.x")) {
		t.Fatalf("a full link took a new sender: %d entries", len(m.links[1].heard))
	}
	if got := m.Counters().InterestCapped; got != 2 {
		t.Fatalf("InterestCapped = %d after one refused sender, want 2", got)
	}
	if n := m.links[1].wants.Distinct(); n != 1 {
		t.Fatalf("%d senders of one pattern put %d patterns in the trie, want 1", maxLinkSenders, n)
	}
	// A sender the table holds is not new: it may change its mind.
	m.HandleInterest(1, "h0", []string{"changed.>"}, now)
	if !m.Wants(1, subject.MustParse("changed.x")) {
		t.Fatal("a full link refused an update from a sender it already holds")
	}
	// And a place freed is a place to take.
	m.HandleInterest(1, "h1", nil, now)
	m.HandleInterest(1, "late", []string{"late.>"}, now)
	if !m.Wants(1, subject.MustParse("late.x")) || m.Counters().InterestCapped != 2 {
		t.Fatal("a freed place was not given to the next new sender")
	}
	// The other link: its own table, its own bound.
	m.HandleInterest(0, "elsewhere", []string{"else.>"}, now)
	if !m.Wants(0, subject.MustParse("else.x")) {
		t.Fatal("one link's full table refused a sender on another link")
	}
}

// TestEmptyAdSaidOnce: a router asks nothing of a link at start-up and says
// nothing; once it has asked, it refreshes every InterestTTL/4; when it
// wants nothing any more it says so once — the empty set — and goes quiet.
func TestEmptyAdSaidOnce(t *testing.T) {
	m := New("ra", []string{"S1", "S2"}, fastTTL, fastCfg())
	now := time.Unix(1000, 0)
	var sent [][]string
	run := func(steps int, host []string) {
		for i := 0; i < steps; i++ {
			now = now.Add(time.Millisecond)
			if host != nil {
				m.HandleInterest(1, "h", host, now)
			}
			for _, out := range m.Actions(now).Interests {
				if out.Link != 0 {
					t.Fatalf("ad into link %d, where the only interest was heard", out.Link)
				}
				sent = append(sent, out.Patterns)
			}
		}
	}
	run(2*int(fastTTL/time.Millisecond), nil)
	if len(sent) != 0 {
		t.Fatalf("a router with nothing to ask advertised %v", sent)
	}
	run(int(fastTTL/time.Millisecond), []string{"want.>"})
	if n := len(sent); n < refreshDivisor || n > refreshDivisor+1 {
		t.Fatalf("%d ads in one TTL of steady interest, want the first and a refresh every TTL/%d", n, refreshDivisor)
	}
	for _, ad := range sent {
		if len(ad) != 1 || ad[0] != "want.>" {
			t.Fatalf("advertised %v", ad)
		}
	}
	sent = nil
	m.HandleInterest(1, "h", nil, now)
	run(3*int(fastTTL/time.Millisecond), nil)
	if len(sent) != 1 || len(sent[0]) != 0 {
		t.Fatalf("after the last interest left the router sent %v, want the empty set once", sent)
	}
}

// TestVectorOrdering pins the priority-vector comparison.
func TestVectorOrdering(t *testing.T) {
	cases := []struct {
		r1   string
		c1   int64
		i1   string
		r2   string
		c2   int64
		i2   string
		want bool
	}{
		{"a", 5, "z", "b", 0, "a", true}, // lower root wins regardless of cost
		{"a", 1, "z", "a", 2, "a", true}, // lower cost wins
		{"a", 1, "b", "a", 1, "c", true}, // lower id breaks the tie
		{"a", 1, "c", "a", 1, "b", false},
	}
	for i, tc := range cases {
		if got := betterVector(tc.r1, tc.c1, tc.i1, tc.r2, tc.c2, tc.i2); got != tc.want {
			t.Fatalf("case %d: betterVector = %v, want %v", i, got, tc.want)
		}
	}
}

// TestTickInterval pins the driver clock bounds.
func TestTickInterval(t *testing.T) {
	m := New("x", []string{"a", "b"}, fastTTL, Config{Debounce: 100 * time.Millisecond})
	if got := m.TickInterval(); got != 25*time.Millisecond {
		t.Fatalf("tick = %v", got)
	}
	m = New("x", []string{"a"}, fastTTL, Config{Debounce: time.Millisecond})
	if got := m.TickInterval(); got != time.Millisecond {
		t.Fatalf("tick floor = %v", got)
	}
}
