package mesh

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"infobus/internal/subject"
)

// PortState is a link's role in the spanning tree.
type PortState uint8

const (
	// PortBlocked suppresses a redundant link: the router neither forwards
	// data across it nor advertises interest into it. Hellos still flow,
	// so the link re-activates the moment the tree needs it.
	PortBlocked PortState = iota
	// PortForwarding carries data: the link is the router's root port or
	// the router is the designated router on that segment.
	PortForwarding
)

func (s PortState) String() string {
	if s == PortForwarding {
		return "forwarding"
	}
	return "blocked"
}

// Config tunes the mesh protocol. Zero values take the documented
// defaults. All timers are wall-clock; tests on the simulated network use
// millisecond-scale values (like the reliable-protocol helpers).
type Config struct {
	// HelloInterval is the steady-state period between hello broadcasts
	// per link. Topology changes trigger immediate extra hellos, so this
	// governs failure DETECTION, not convergence. Default 100ms.
	HelloInterval time.Duration
	// Debounce batches interest re-advertisement: after a change, the
	// router waits this long for further churn before advertising, so a
	// flapping leaf costs one ad per window per hop instead of one per
	// flap (the Figure 8 constraint, applied per hop). Default 50ms.
	Debounce time.Duration
	// InterestRefresh is the steady-state re-advertisement period; heard
	// interest expires after 4 refresh intervals without one. Default 1s.
	InterestRefresh time.Duration
	// MaxHops is the envelope hop budget: the tree is loop-free, so the
	// budget only bounds the tree diameter and the pathology of a tree
	// still converging. Default 64, enough for the 50–100 segment target.
	// Capped at 255 by the envelope's uint8.
	MaxHops int
	// StatusInterval is the period between "_sys.mesh.status.<node>"
	// introspection snapshots. Default 1s; negative disables them.
	StatusInterval time.Duration
}

// deadFactor: a neighbor unheard for deadFactor hello intervals is declared
// dead and the tree re-elects.
const deadFactor = 4

func (c Config) withDefaults() Config {
	if c.HelloInterval <= 0 {
		c.HelloInterval = 100 * time.Millisecond
	}
	if c.Debounce <= 0 {
		c.Debounce = 50 * time.Millisecond
	}
	if c.InterestRefresh <= 0 {
		c.InterestRefresh = time.Second
	}
	if c.MaxHops <= 0 {
		c.MaxHops = 64
	}
	if c.MaxHops > 255 {
		c.MaxHops = 255
	}
	if c.StatusInterval == 0 {
		c.StatusInterval = time.Second
	}
	return c
}

// neighborHello is the freshest config vector heard from one neighbor
// router on one link.
type neighborHello struct {
	ad      HelloAd
	expires time.Time
}

// neighborInterest is one neighbor router's advertised subtree interest on
// one link.
type neighborInterest struct {
	raw     []string // sorted pattern strings, for ad recomputation
	expires time.Time
}

type link struct {
	name  string
	state PortState

	hellos   map[string]neighborHello    // router id -> freshest hello
	interest map[string]neighborInterest // router id -> subtree interest

	// remote matches every neighbor's patterns for the wants check, keyed
	// (pattern, neighbor id) so one neighbor's set can be replaced. It is
	// the forwarding path's view of interest: its built-in match cache
	// answers repeats and is invalidated by the Add/Remove of any interest
	// change, so a dead subtree stops matching the moment it is pruned.
	remote *subject.Trie[string]

	// lastAd is the interest set last advertised into this link; adDirty
	// marks it stale, adDue the debounced send time.
	lastAd     []string
	adDirty    bool
	adDue      time.Time
	refreshDue time.Time
}

// Mesh is one router's view of the self-organizing tree. The router feeds
// it received ads (HandleHello / HandleInterest / HostInterestChanged),
// drives its clock (Actions), and consults it when forwarding (Forwarding,
// WantsRemote).
type Mesh struct {
	id  string
	cfg Config

	// fwdMask is the hot-path port-state word: bit i set = link i
	// forwarding. One atomic load decides both ends of a forward.
	fwdMask atomic.Uint64

	mu    sync.Mutex
	links []*link // the slice and each link's remote trie are fixed at New
	// Elected tree state.
	root     string
	cost     int64
	rootPort int // link index, -1 when self is root
	parent   string
	seq      int64
	// Clocks.
	helloDue       time.Time
	helloTriggered bool
	statusDue      time.Time

	ctr Counters
}

// Counters are the mesh's cumulative introspection counts; the driver
// mirrors them into router telemetry.
type Counters struct {
	// TopoChanges counts tree recomputations that changed something.
	TopoChanges uint64
	// Readverts counts interest re-advertisements (the mesh-flap alarm
	// watches its rate).
	Readverts uint64
	// IDConflicts counts ads heard carrying this router's own id: another
	// router is configured with the same name (see HandleHello).
	IDConflicts uint64
}

// New builds the state machine for a router with the given unique id and
// one link per attachment, in attachment order. Initially the router
// believes itself root with every port forwarding — the first hello
// exchange corrects it.
func New(id string, linkNames []string, cfg Config) *Mesh {
	m := &Mesh{
		id:       id,
		cfg:      cfg.withDefaults(),
		root:     id,
		rootPort: -1,
	}
	for _, name := range linkNames {
		m.links = append(m.links, &link{
			name:     name,
			state:    PortForwarding,
			hellos:   make(map[string]neighborHello),
			interest: make(map[string]neighborInterest),
			remote:   subject.NewTrie[string](),
		})
	}
	m.storeMask()
	return m
}

// ID returns the router's mesh id.
func (m *Mesh) ID() string { return m.id }

// MaxHops returns the envelope hop budget to enforce.
func (m *Mesh) MaxHops() int { return m.cfg.MaxHops }

// Forwarding reports whether the link is in the forwarding state. One
// atomic load, zero allocations: it runs per forwarded publication.
func (m *Mesh) Forwarding(li int) bool {
	return m.fwdMask.Load()&(1<<uint(li)) != 0
}

func (m *Mesh) storeMask() {
	var mask uint64
	for i, l := range m.links {
		if l.state == PortForwarding && i < 64 {
			mask |= 1 << uint(i)
		}
	}
	m.fwdMask.Store(mask)
}

// vector ordering: lower root id, then lower cost, then lower router id —
// the 802.1D priority vector with the id standing in for both bridge
// priority and port id (attachment order breaks the final tie).
func betterVector(root1 string, cost1 int64, id1 string, root2 string, cost2 int64, id2 string) bool {
	if root1 != root2 {
		return root1 < root2
	}
	if cost1 != cost2 {
		return cost1 < cost2
	}
	return id1 < id2
}

// HandleHello feeds one received hello. It reports whether the tree
// changed (the driver then knows a triggered hello round is pending).
//
// An ad carrying this router's own id is never its own echo — a reliable
// conn does not hear its own broadcasts — so it is a second router
// configured with the same id. Neither can elect against the other (each
// would discard the other's vector as its own), so the ad is dropped and
// counted: IDConflicts is the operator's signal that the pair forwards
// nothing across itself until one is renamed.
func (m *Mesh) HandleHello(li int, ad HelloAd, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ad.Router == m.id {
		m.ctr.IDConflicts++
		return false
	}
	if li < 0 || li >= len(m.links) {
		return false
	}
	l := m.links[li]
	if _, known := l.hellos[ad.Router]; !known {
		// A neighbor heard for the first time learns this router's vector
		// on the next tick, not at the next periodic hello: a router joining
		// a running segment converges in a hello round trip whatever
		// HelloInterval is (even when its arrival changes nothing here).
		m.helloTriggered = true
	}
	l.hellos[ad.Router] = neighborHello{
		ad:      ad,
		expires: now.Add(deadFactor * m.cfg.HelloInterval),
	}
	return m.recompute(now)
}

// HandleInterest feeds one received interest advertisement.
func (m *Mesh) HandleInterest(li int, ad InterestAd, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ad.Router == m.id {
		m.ctr.IDConflicts++ // see HandleHello
		return
	}
	if li < 0 || li >= len(m.links) {
		return
	}
	l := m.links[li]
	raw := append([]string(nil), ad.Patterns...)
	sort.Strings(raw)
	expires := now.Add(4 * m.cfg.InterestRefresh)
	prev, had := l.interest[ad.Router]
	if had && equalStrings(prev.raw, raw) {
		// Refresh only: answers unchanged, the match cache survives.
		prev.expires = expires
		l.interest[ad.Router] = prev
		return
	}
	l.interest[ad.Router] = neighborInterest{raw: raw, expires: expires}
	l.setRemote(ad.Router, prev.raw, raw)
	m.markOthersDirtyLocked(li, now)
}

// setRemote replaces one neighbor's patterns in the link's wants trie, prev
// by next (both sorted). The new set goes in before the leftovers of the old
// come out, so a pattern in both never stops matching — a forward racing
// the swap must not see a subscribed subject as unwanted.
func (l *link) setRemote(router string, prev, next []string) {
	for _, p := range next {
		if pat, err := subject.ParsePattern(p); err == nil {
			l.remote.Add(pat, router)
		}
	}
	for _, p := range prev {
		if _, kept := slices.BinarySearch(next, p); kept {
			continue
		}
		if pat, err := subject.ParsePattern(p); err == nil {
			l.remote.Remove(pat, router)
		}
	}
}

// HostInterestChanged tells the mesh that the set of host (daemon)
// interest on a link changed, so ads into the other links are stale.
func (m *Mesh) HostInterestChanged(li int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.markOthersDirtyLocked(li, time.Now())
}

func (m *Mesh) markOthersDirtyLocked(except int, now time.Time) {
	for i, l := range m.links {
		if i == except {
			continue
		}
		if !l.adDirty {
			l.adDirty = true
			l.adDue = now.Add(m.cfg.Debounce)
		}
	}
}

// recompute re-runs the election from the current hello tables. Caller
// holds m.mu. Reports whether anything observable changed.
func (m *Mesh) recompute(now time.Time) bool {
	// Root and root port: the best vector among everything heard, against
	// the claim "I am root". Offers costing more than the hop budget are
	// unusable AND poisoned: when the root dies, its orphaned claims
	// bounce between survivors with the cost inflating one hop per
	// exchange (distance-vector count-to-infinity); the cap turns that
	// into fast termination, after which the true new root wins.
	maxCost := int64(m.cfg.MaxHops)
	root, cost, parent, rootPort := m.id, int64(0), "", -1
	for i, l := range m.links {
		for _, nh := range l.hellos {
			if now.After(nh.expires) {
				continue
			}
			offRoot, offCost := nh.ad.Root, nh.ad.Cost+1
			if offCost > maxCost {
				continue
			}
			if betterVector(offRoot, offCost, nh.ad.Router, root, cost, parent) && offRoot < m.id {
				root, cost, parent, rootPort = offRoot, offCost, nh.ad.Router, i
			}
		}
	}
	// Port roles: the root port forwards; any other link forwards iff this
	// router is designated on it — its (root, cost, id) vector beats every
	// live neighbor's on that segment.
	changed := root != m.root || cost != m.cost || parent != m.parent || rootPort != m.rootPort
	m.root, m.cost, m.parent, m.rootPort = root, cost, parent, rootPort
	for i, l := range m.links {
		state := PortForwarding
		if i != rootPort {
			for _, nh := range l.hellos {
				if now.After(nh.expires) || nh.ad.Cost > maxCost {
					continue
				}
				if betterVector(nh.ad.Root, nh.ad.Cost, nh.ad.Router, root, cost, m.id) {
					state = PortBlocked
					break
				}
			}
		}
		if state != l.state {
			l.state = state
			changed = true
		}
	}
	if changed {
		m.storeMask()
		m.ctr.TopoChanges++
		m.helloTriggered = true
		// Every link's advertised interest may now be wrong (sources
		// moved between subtrees): re-advertise everywhere, debounced.
		m.markOthersDirtyLocked(-1, now)
	}
	return changed
}

// WantsRemote reports whether any neighbor router on the link advertised
// subtree interest matching the subject. It runs per forwarded publication
// and never takes the mesh lock: the link's trie is concurrent, and a
// repeated subject is a probe of its match cache — no walk, no allocation.
func (m *Mesh) WantsRemote(li int, s subject.Subject) bool {
	if li < 0 || li >= len(m.links) {
		return false
	}
	return len(m.links[li].remote.Match(s)) > 0
}

// HelloOut is one hello to broadcast on one link.
type HelloOut struct {
	Link int
	Ad   HelloAd
}

// InterestOut is one interest advertisement to broadcast on one link.
type InterestOut struct {
	Link int
	Ad   InterestAd
}

// Actions is what the driver must put on the wire after a clock tick.
type Actions struct {
	Hellos    []HelloOut
	Interests []InterestOut
	Status    *StatusAd
}

// Actions advances the protocol clock: expires dead neighbors and stale
// interest, and returns the due hello/interest/status advertisements.
// hostPatterns[i] is the current host (daemon) interest on link i — the
// driver gathers it BEFORE calling, so the mesh lock never nests inside an
// attachment lock.
func (m *Mesh) Actions(now time.Time, hostPatterns [][]string) Actions {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out Actions

	// Expiry: dead neighbors first (may re-elect), then stale interest.
	expired := false
	for _, l := range m.links {
		for id, nh := range l.hellos {
			if now.After(nh.expires) {
				delete(l.hellos, id)
				expired = true
			}
		}
	}
	if expired {
		m.recompute(now)
	}
	for li, l := range m.links {
		pruned := false
		for id, ni := range l.interest {
			if now.After(ni.expires) {
				delete(l.interest, id)
				l.setRemote(id, ni.raw, nil)
				pruned = true
			}
		}
		if pruned {
			m.markOthersDirtyLocked(li, now)
		}
	}

	// Hellos: periodic, plus a triggered round after any tree change.
	if m.helloTriggered || !now.Before(m.helloDue) {
		m.helloTriggered = false
		m.helloDue = now.Add(m.cfg.HelloInterval)
		m.seq++
		links := m.linkInfoLocked(false)
		for li := range m.links {
			out.Hellos = append(out.Hellos, HelloOut{Link: li, Ad: HelloAd{
				Router: m.id, Root: m.root, Cost: m.cost, Parent: m.parent,
				Seq: m.seq, Links: links,
			}})
		}
	}

	// Interest: debounced on change, periodic refresh otherwise; only into
	// forwarding links, and only sourced from the other forwarding links
	// (a blocked subtree is served by its own designated router).
	for li, l := range m.links {
		if l.state != PortForwarding {
			l.adDirty = false
			continue
		}
		due := (l.adDirty && !now.Before(l.adDue)) || !now.Before(l.refreshDue)
		if !due {
			continue
		}
		patterns := m.adPatternsLocked(li, hostPatterns)
		refresh := !now.Before(l.refreshDue)
		if !refresh && equalStrings(patterns, l.lastAd) {
			l.adDirty = false
			continue // debounced churn cancelled itself out: stay quiet
		}
		l.lastAd = patterns
		l.adDirty = false
		l.refreshDue = now.Add(m.cfg.InterestRefresh)
		m.ctr.Readverts++
		out.Interests = append(out.Interests, InterestOut{Link: li, Ad: InterestAd{
			Router: m.id, Seq: m.seq, Patterns: patterns,
		}})
	}

	// Status snapshot.
	if m.cfg.StatusInterval > 0 && !now.Before(m.statusDue) {
		m.statusDue = now.Add(m.cfg.StatusInterval)
		ad := StatusAd{
			Router: m.id, Root: m.root, Cost: m.cost, Parent: m.parent,
			Seq: m.seq, Links: m.linkInfoLocked(true),
		}
		out.Status = &ad
	}
	return out
}

// adPatternsLocked computes the interest to advertise into link li: the
// union of host and neighbor-subtree interest on every OTHER forwarding
// link, re-aggregated under the pattern cap. Split horizon: interest heard
// on li never goes back into li.
func (m *Mesh) adPatternsLocked(li int, hostPatterns [][]string) []string {
	set := make(map[string]struct{})
	for i, l := range m.links {
		if i == li || l.state != PortForwarding {
			continue
		}
		if i < len(hostPatterns) {
			for _, p := range hostPatterns[i] {
				set[p] = struct{}{}
			}
		}
		for _, ni := range l.interest {
			for _, p := range ni.raw {
				set[p] = struct{}{}
			}
		}
	}
	if len(set) == 0 {
		return nil
	}
	patterns := make([]string, 0, len(set))
	for p := range set {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	return subject.AggregatePatterns(patterns, subject.MaxAdvertisedPatterns)
}

func (m *Mesh) linkInfoLocked(withInterest bool) []LinkInfo {
	links := make([]LinkInfo, 0, len(m.links))
	for _, l := range m.links {
		li := LinkInfo{Name: l.name, State: l.state.String(), Peers: int64(len(l.hellos))}
		if withInterest {
			set := make(map[string]struct{})
			for _, ni := range l.interest {
				for _, p := range ni.raw {
					set[p] = struct{}{}
				}
			}
			pats := make([]string, 0, len(set))
			for p := range set {
				pats = append(pats, p)
			}
			sort.Strings(pats)
			li.Patterns = subject.AggregatePatterns(pats, subject.MaxAdvertisedPatterns)
		}
		links = append(links, li)
	}
	return links
}

// Status is a snapshot of the mesh state for tests and tooling.
type Status struct {
	Root     string
	Cost     int64
	Parent   string
	RootPort int
	Links    []LinkInfo
	Counters
}

// Snapshot returns the current tree state.
func (m *Mesh) Snapshot() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Status{
		Root: m.root, Cost: m.cost, Parent: m.parent, RootPort: m.rootPort,
		Links: m.linkInfoLocked(true), Counters: m.ctr,
	}
}

// Counters returns the cumulative introspection counts.
func (m *Mesh) Counters() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ctr
}

// TickInterval is the driver's clock granularity: fine enough that the
// debounce window and triggered hellos feel immediate, coarse enough to
// stay off the profile.
func (m *Mesh) TickInterval() time.Duration {
	t := m.cfg.Debounce / 2
	if t < time.Millisecond {
		t = time.Millisecond
	}
	if t > 25*time.Millisecond {
		t = 25 * time.Millisecond
	}
	return t
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
