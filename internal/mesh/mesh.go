package mesh

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"infobus/internal/subject"
)

// PortState is a link's role in the spanning tree.
type PortState uint8

const (
	// PortBlocked suppresses a redundant link: the router neither forwards
	// data across it nor asks anything of it (it withdraws, once, what it
	// asked while the link forwarded). Hellos still flow, so the link
	// re-activates the moment the tree needs it.
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
// defaults. The state machine reads no clock: every entry point takes the
// caller's now, so tests drive it on virtual time with millisecond-scale
// values (like the reliable-protocol helpers).
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
	// StatusInterval is the period between "_sys.mesh.status.<node>"
	// introspection snapshots. Default 1s; negative disables them.
	StatusInterval time.Duration
}

// deadFactor: a neighbor unheard for deadFactor hello intervals is declared
// dead and the tree re-elects.
const deadFactor = 4

// MaxHops is the envelope hop budget a router enforces, and the largest
// root cost the election accepts: the tree is loop-free, so the budget only
// bounds the tree diameter and the pathology of a tree still converging (or
// of two routers sharing a name). Enough for the 50–100 segment target.
const MaxHops = 64

// maxLinkSenders bounds the senders one link's interest table holds (A14
// runs ~103 per segment). A new sender is refused while the link is full;
// the ones already heard keep refreshing.
const maxLinkSenders = 1024

// refreshDivisor: a router re-advertises every InterestTTL/refreshDivisor,
// the ratio daemon.InterestInterval has to the default TTL, so one lost or
// late advertisement never lapses an entry.
const refreshDivisor = 4

func (c Config) withDefaults() Config {
	if c.HelloInterval <= 0 {
		c.HelloInterval = 100 * time.Millisecond
	}
	if c.Debounce <= 0 {
		c.Debounce = 50 * time.Millisecond
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

// heardAd is what one sender on a link last advertised: a host daemon's
// subscriptions or a neighbor router's subtree interest — the table does
// not know which, and does not need to.
type heardAd struct {
	patterns []string // valid, sorted, distinct
	expires  time.Time
}

type link struct {
	name  string
	state PortState

	hellos map[string]neighborHello // router id -> freshest hello

	// heard is the link's one interest table, keyed by the sender's
	// transport address so a sender's next advertisement replaces its last.
	// refs counts the senders behind each distinct pattern, and wants holds
	// each distinct pattern once: it is the forwarding path's view of the
	// table. Its built-in match cache answers repeats and is invalidated by
	// the Add/Remove of a pattern entering or leaving the link — not by a
	// refresh, and not by a second sender of a pattern already there — so a
	// dead subtree stops matching the moment it is pruned.
	heard map[string]heardAd
	refs  map[string]int
	wants *subject.Trie[struct{}]

	// lastAd is the interest set last advertised into this link; adDirty
	// marks it stale, adDue the debounced send time.
	lastAd     []string
	adDirty    bool
	adDue      time.Time
	refreshDue time.Time
}

// Mesh is one router's view of the self-organizing tree. The router feeds
// it what it hears (HandleHello, HandleInterest), drives its clock
// (Actions), and consults it when forwarding (Forwarding, Wants).
type Mesh struct {
	id  string
	cfg Config
	// ttl is the one lifetime rule of the interest tables: an entry lapses
	// ttl after its sender's last advertisement.
	ttl time.Duration

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
	// IDConflicts counts hellos heard carrying this router's own id: another
	// router is configured with the same name (see HandleHello).
	IDConflicts uint64
	// InterestCapped counts advertisements a table bound cut short: one
	// truncated at MaxAdPatterns, or a new sender refused by a full link.
	InterestCapped uint64
}

// New builds the state machine for a router with the given unique id and
// one link per attachment, in attachment order; interestTTL is how long a
// heard advertisement lives without a refresh. Initially the router
// believes itself root with every port forwarding — the first hello
// exchange corrects it.
func New(id string, linkNames []string, interestTTL time.Duration, cfg Config) *Mesh {
	m := &Mesh{
		id:       id,
		cfg:      cfg.withDefaults(),
		ttl:      interestTTL,
		root:     id,
		rootPort: -1,
	}
	for _, name := range linkNames {
		m.links = append(m.links, &link{
			name:   name,
			state:  PortForwarding,
			hellos: make(map[string]neighborHello),
			heard:  make(map[string]heardAd),
			refs:   make(map[string]int),
			wants:  subject.NewTrie[struct{}](),
		})
	}
	m.storeMask()
	return m
}

// ID returns the router's mesh id.
func (m *Mesh) ID() string { return m.id }

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

// HandleInterest feeds the pattern list of one busproto.KindInterest
// envelope heard on link li from transport address from — a host daemon's
// advertisement or a neighbor router's, alike. It replaces what from
// advertised before; an empty list withdraws the sender. An advertisement
// that changes nothing only pushes the entry's expiry out and leaves the
// link's trie (and its match cache) alone. Unparsable patterns are dropped,
// a list over MaxAdPatterns is truncated (which only narrows forwarding),
// and a sender the full table has not heard before is refused; both bounds
// count in InterestCapped.
func (m *Mesh) HandleInterest(li int, from string, patterns []string, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if li < 0 || li >= len(m.links) {
		return
	}
	l := m.links[li]
	if len(patterns) > MaxAdPatterns {
		patterns = patterns[:MaxAdPatterns]
		m.ctr.InterestCapped++
	}
	prev, had := l.heard[from]
	if had && slices.Equal(patterns, prev.patterns) {
		// The steady state, a sender's periodic refresh: nothing to parse.
		prev.expires = now.Add(m.ttl)
		l.heard[from] = prev
		return
	}
	next := make([]string, 0, len(patterns))
	for _, p := range patterns {
		if _, err := subject.ParsePattern(p); err == nil {
			next = append(next, p)
		}
	}
	slices.Sort(next)
	next = slices.Compact(next)
	switch {
	case len(next) == 0:
		if !had {
			return
		}
		delete(l.heard, from)
	case !had && len(l.heard) >= maxLinkSenders:
		m.ctr.InterestCapped++
		return
	default:
		l.heard[from] = heardAd{patterns: next, expires: now.Add(m.ttl)}
	}
	if l.swap(prev.patterns, next) {
		m.markOthersDirtyLocked(li, now)
	}
}

// swap replaces one sender's contribution to the link, prev by next (both
// sorted and distinct), and reports whether the link's distinct pattern set
// changed. The new set is counted in before the old is counted out, so a
// pattern in both never leaves the trie — a forward racing the swap must
// not see a subscribed subject as unwanted.
func (l *link) swap(prev, next []string) (changed bool) {
	for _, p := range next {
		if l.refs[p]++; l.refs[p] == 1 {
			l.wants.Add(subject.MustParsePattern(p), struct{}{})
			changed = true
		}
	}
	for _, p := range prev {
		if l.refs[p]--; l.refs[p] == 0 {
			delete(l.refs, p)
			l.wants.Remove(subject.MustParsePattern(p), struct{}{})
			changed = true
		}
	}
	return changed
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
	const maxCost = int64(MaxHops)
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

// Wants reports whether any sender on the link — a host there, or a router
// speaking for what lies behind it — holds a live advertisement matching
// the subject. It runs per forwarded publication and never takes the mesh
// lock: the link's trie is concurrent, and a repeated subject is a probe of
// its match cache — no walk, no allocation.
func (m *Mesh) Wants(li int, s subject.Subject) bool {
	if li < 0 || li >= len(m.links) {
		return false
	}
	return len(m.links[li].wants.Match(s)) > 0
}

// HelloOut is one hello to broadcast on one link.
type HelloOut struct {
	Link int
	Ad   HelloAd
}

// InterestOut is one interest advertisement to broadcast on one link, as
// the pattern list of a busproto.KindInterest envelope: what a host daemon
// sends. An empty list withdraws what the router last asked of the link.
type InterestOut struct {
	Link     int
	Patterns []string
}

// Actions is what the driver must put on the wire after a clock tick.
type Actions struct {
	Hellos    []HelloOut
	Interests []InterestOut
	Status    *StatusAd
}

// Actions advances the protocol clock: expires dead neighbors and lapsed
// interest, and returns the due hello/interest/status advertisements.
func (m *Mesh) Actions(now time.Time) Actions {
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
		for from, ad := range l.heard {
			if !now.Before(ad.expires) {
				delete(l.heard, from)
				pruned = l.swap(ad.patterns, nil) || pruned
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

	// Interest: debounced on change, refreshed periodically while there is
	// something to keep alive. A router asks only of forwarding links, and
	// only for the other forwarding links (a blocked subtree is served by its
	// own designated router); of a blocked link, or one it has nothing to ask
	// of, it wants the empty set, which is said once — when it replaces a
	// non-empty one — and never refreshed.
	for li, l := range m.links {
		refresh := len(l.lastAd) > 0 && !now.Before(l.refreshDue)
		changeDue := l.adDirty && !now.Before(l.adDue)
		if !refresh && !changeDue {
			continue
		}
		l.adDirty = false
		var patterns []string
		if l.state == PortForwarding {
			patterns = m.adPatternsLocked(li)
		}
		if !refresh && slices.Equal(patterns, l.lastAd) {
			continue // debounced churn cancelled itself out: stay quiet
		}
		l.lastAd = patterns
		l.refreshDue = now.Add(m.ttl / refreshDivisor)
		m.ctr.Readverts++
		out.Interests = append(out.Interests, InterestOut{Link: li, Patterns: patterns})
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
// union of what every OTHER forwarding link's table holds, each read off
// its trie already aggregated (Trie.Aggregate: no walk of a set over the
// cap) and the union re-aggregated under the same cap. Split horizon:
// interest heard on li never goes back into li.
func (m *Mesh) adPatternsLocked(li int) []string {
	var patterns []string
	for i, l := range m.links {
		if i != li && l.state == PortForwarding {
			patterns = append(patterns, l.wants.Aggregate(subject.MaxAdvertisedPatterns)...)
		}
	}
	slices.Sort(patterns)
	return subject.AggregatePatterns(slices.Compact(patterns), subject.MaxAdvertisedPatterns)
}

func (m *Mesh) linkInfoLocked(withInterest bool) []LinkInfo {
	links := make([]LinkInfo, 0, len(m.links))
	for _, l := range m.links {
		li := LinkInfo{Name: l.name, State: l.state.String(), Peers: int64(len(l.hellos))}
		if withInterest {
			li.Patterns = l.wants.Aggregate(subject.MaxAdvertisedPatterns)
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
