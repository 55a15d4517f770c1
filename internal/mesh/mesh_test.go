package mesh

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"infobus/internal/subject"
)

// fastCfg keeps the state-machine tests deterministic and quick: the
// simulated exchange below advances a fake clock in 1ms steps.
func fastCfg() Config {
	return Config{
		HelloInterval:   5 * time.Millisecond,
		Debounce:        2 * time.Millisecond,
		InterestRefresh: 20 * time.Millisecond,
		StatusInterval:  -1,
	}
}

// fabric wires Mesh state machines together by segment name and pumps
// their advertisements synchronously: a deterministic stand-in for the
// network, so election tests need no goroutines or sleeps.
type fabric struct {
	members map[string][]fabricPort // segment name -> attached ports
	meshes  map[string]*Mesh
	hosts   map[string][][]string // mesh id -> per-link host interest
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
		hosts:   map[string][][]string{},
		now:     time.Unix(1000, 0),
		down:    map[string]bool{},
		cut:     map[string]map[string]bool{},
	}
}

func (f *fabric) add(id string, segments ...string) *Mesh {
	return f.addCfg(id, fastCfg(), segments...)
}

func (f *fabric) addCfg(id string, cfg Config, segments ...string) *Mesh {
	m := New(id, segments, cfg)
	f.meshes[id] = m
	f.hosts[id] = make([][]string, len(segments))
	for li, seg := range segments {
		f.members[seg] = append(f.members[seg], fabricPort{mesh: m, link: li})
	}
	return m
}

func (f *fabric) setHost(id string, link int, patterns ...string) {
	f.hosts[id][link] = patterns
	f.meshes[id].HostInterestChanged(link)
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
		acts := m.Actions(f.now, f.hosts[id])
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
			collect(i.Link, i.Ad)
		}
	}
	for _, d := range deliveries {
		switch ad := d.v.(type) {
		case HelloAd:
			d.to.mesh.HandleHello(d.to.link, ad, f.now)
		case InterestAd:
			d.to.mesh.HandleInterest(d.to.link, ad, f.now)
		}
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
	if !a.WantsRemote(1, s) {
		t.Fatal("ra should have learned S3's interest through rb's ad on S2")
	}
	if a.WantsRemote(0, s) {
		t.Fatal("split horizon: nothing on S1 advertised this interest")
	}
	if b.WantsRemote(1, s) {
		t.Fatal("rb must not hear its own hosts' interest back as remote interest")
	}

	// Withdrawal: when the host interest goes away, rb's next ad replaces
	// the set upstream, and the answer the wants trie had cached for the
	// subject (the WantsRemote above) goes with it.
	f.setHost("rb", 1)
	f.run(120)
	if a.WantsRemote(1, s) {
		t.Fatal("withdrawn interest must stop matching upstream")
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
	if !a.WantsRemote(1, subject.MustParse("fam123.leaf.123")) {
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
	if f.meshes["rb"].WantsRemote(1, s) {
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
	a := New("twin", []string{"S1", "S2"}, fastCfg())
	b := New("twin", []string{"S2", "S3"}, fastCfg())
	now := time.Unix(1000, 0)
	for i := 0; i < 40; i++ {
		now = now.Add(time.Millisecond)
		for _, h := range b.Actions(now, make([][]string, 2)).Hellos {
			if h.Link == 0 {
				a.HandleHello(1, h.Ad, now)
			}
		}
		for _, h := range a.Actions(now, make([][]string, 2)).Hellos {
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

// TestInterestSwapKeepsCommonPatterns: replacing a neighbor's advertised
// set never passes through a state where a pattern in both the old and the
// new set does not match, and drops exactly the patterns that left.
func TestInterestSwapKeepsCommonPatterns(t *testing.T) {
	m := New("ra", []string{"S1", "S2"}, fastCfg())
	now := time.Unix(1000, 0)
	keep, gone, came := subject.MustParse("keep.x"), subject.MustParse("gone.x"), subject.MustParse("came.x")
	m.HandleInterest(1, InterestAd{Router: "rb", Patterns: []string{"keep.>", "gone.>"}}, now)
	if !m.WantsRemote(1, keep) || !m.WantsRemote(1, gone) || m.WantsRemote(1, came) {
		t.Fatal("first ad not reflected")
	}
	m.HandleInterest(1, InterestAd{Router: "rb", Patterns: []string{"came.>", "keep.>"}}, now)
	if !m.WantsRemote(1, keep) || m.WantsRemote(1, gone) || !m.WantsRemote(1, came) {
		t.Fatal("second ad must replace the first: keep and came match, gone does not")
	}
	// A second neighbor wanting the same pattern keeps it alive when the
	// first withdraws.
	m.HandleInterest(1, InterestAd{Router: "rc", Patterns: []string{"keep.>"}}, now)
	m.HandleInterest(1, InterestAd{Router: "rb", Patterns: nil}, now)
	if !m.WantsRemote(1, keep) || m.WantsRemote(1, came) {
		t.Fatal("rb's withdrawal must not take rc's interest with it")
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
	m := New("x", []string{"a", "b"}, Config{Debounce: 100 * time.Millisecond})
	if got := m.TickInterval(); got != 25*time.Millisecond {
		t.Fatalf("tick = %v", got)
	}
	m = New("x", []string{"a"}, Config{Debounce: time.Millisecond})
	if got := m.TickInterval(); got != time.Millisecond {
		t.Fatalf("tick floor = %v", got)
	}
}
