package subject

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Trie is a concurrent subject-matching trie. It maps subscription patterns
// to opaque subscriber values and answers, for a published subject, the set
// of values whose patterns match.
//
// The structure follows the subject hierarchy: each trie level corresponds
// to one subject element, with distinguished child slots for the "*" and
// ">" wildcards. Matching a subject of depth d visits at most O(2^w · d)
// nodes where w is the number of wildcard levels crossed — in practice a
// handful of nodes — independent of the total number of subscriptions.
// This property is what Figure 8 of the paper measures: throughput must not
// degrade as the number of distinct subjects (and subscriptions) grows.
//
// Values are compared with ==; registering the same (pattern, value) pair
// twice is idempotent. A Trie is safe for concurrent use. The zero value is
// not ready; use NewTrie.
type Trie[V comparable] struct {
	mu   sync.RWMutex
	root *trieNode[V]
	size int // number of (pattern, value) pairs
	// distinct counts the nodes whose values or rest set is non-empty, one
	// per distinct registered pattern; Aggregate reads it to know whether
	// the exact pattern set fits without walking to find out.
	distinct int

	// Match cache: subject string → matched value set. Publications repeat
	// subjects far more often than subscriptions change (Figures 6–8 publish
	// thousands of messages per subject), so the fan-out path services
	// repeats from here without walking the trie or allocating. Entries are
	// immutable snapshots. The cache is sharded by subject family
	// (Subject.shardIndex) so a daemon's inbound workers rarely meet on one
	// cache mutex; every other trie has one shard.
	//
	// Invalidation is lazy: Add/Remove only advance gen, and a shard whose
	// entries were filled at an older generation is cleared by its next
	// lookup. gen is read outside mu; a fill that raced a mutation carries
	// the older generation and never enters a newer shard.
	gen    atomic.Uint64
	shards []cacheShard[V]
}

// cacheShard is one shard of the match cache: the entries in m were all
// computed at generation gen.
type cacheShard[V comparable] struct {
	mu  sync.Mutex
	gen uint64
	m   map[string][]V
	_   [40]byte // pad to a cache line: neighbouring shards are locked from different cores
}

// maxMatchCache bounds each shard of the match cache. When full, new
// subjects are simply not cached (they re-walk the trie) rather than
// evicting: a publisher cycling through more subjects than the cap would
// otherwise defeat the cache entirely — clear-on-overflow has a ~0% hit
// rate under cyclic access. Sized above Figure 8's 10 000-subject workload.
const maxMatchCache = 16384

// trieNode's value sets are never written below their length (Add appends,
// Remove builds a new slice), so a set Match handed out never changes.
type trieNode[V comparable] struct {
	children map[string]*trieNode[V]
	star     *trieNode[V] // "*" child
	rest     []V          // values subscribed with ">" terminating here
	values   []V          // values whose pattern ends exactly here
}

// NewTrie returns an empty trie.
func NewTrie[V comparable]() *Trie[V] { return NewShardedTrie[V](1) }

// NewShardedTrie returns an empty trie whose match cache has the given
// number of shards (at least one), each holding up to maxMatchCache
// subjects. A subject's shard is picked by its two-element prefix, so
// concurrent matches on different subject families seldom share a lock.
func NewShardedTrie[V comparable](shards int) *Trie[V] {
	return &Trie[V]{root: &trieNode[V]{}, shards: make([]cacheShard[V], max(shards, 1))}
}

// Len returns the number of registered (pattern, value) pairs.
func (t *Trie[V]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Add registers value under pattern. Adding an identical pair again is a
// no-op. It reports whether the pair was newly added.
func (t *Trie[V]) Add(p Pattern, value V) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	set := &n.values
	for _, e := range p.elements {
		switch e {
		case WildcardRest:
			// ">" is validated to be final by ParsePattern.
			set = &n.rest
			continue
		case WildcardOne:
			if n.star == nil {
				n.star = &trieNode[V]{}
			}
			n = n.star
		default:
			if n.children == nil {
				n.children = make(map[string]*trieNode[V])
			}
			child, ok := n.children[e]
			if !ok {
				child = &trieNode[V]{}
				n.children[e] = child
			}
			n = child
		}
		set = &n.values
	}
	if containsValue(*set, value) {
		return false
	}
	if len(*set) == 0 {
		t.distinct++
	}
	*set = append(*set, value)
	t.size++
	t.gen.Add(1)
	return true
}

// Remove unregisters a (pattern, value) pair and reports whether it was
// present. Empty interior nodes are pruned so long-lived buses with churning
// subscriptions do not leak.
func (t *Trie[V]) Remove(p Pattern, value V) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	removed := t.remove(t.root, p.elements, value)
	if removed {
		t.size--
		t.gen.Add(1)
	}
	return removed
}

func (t *Trie[V]) remove(n *trieNode[V], elems []string, value V) bool {
	if len(elems) == 0 {
		return t.removeValue(&n.values, value)
	}
	e := elems[0]
	switch e {
	case WildcardRest:
		return t.removeValue(&n.rest, value)
	case WildcardOne:
		if n.star == nil {
			return false
		}
		ok := t.remove(n.star, elems[1:], value)
		if ok && n.star.empty() {
			n.star = nil
		}
		return ok
	default:
		child := n.children[e]
		if child == nil {
			return false
		}
		ok := t.remove(child, elems[1:], value)
		if ok && child.empty() {
			delete(n.children, e)
		}
		return ok
	}
}

func (n *trieNode[V]) empty() bool {
	return len(n.children) == 0 && n.star == nil && len(n.rest) == 0 && len(n.values) == 0
}

// Match returns every distinct value whose pattern matches the subject.
// Order is unspecified but deterministic for a fixed trie state.
//
// Ownership: the returned slice is an immutable snapshot shared with the
// trie's match cache, and may be one node's own value set (see union) —
// callers may iterate it freely (including concurrently) but must not
// modify it. It stays consistent even if the trie mutates afterwards:
// mutations replace cache entries and node sets, they never write through
// old ones.
func (t *Trie[V]) Match(s Subject) []V {
	sh := &t.shards[s.shardIndex(len(t.shards))]
	cur := t.gen.Load()
	sh.mu.Lock()
	if sh.gen == cur {
		if vs, ok := sh.m[s.raw]; ok {
			sh.mu.Unlock()
			return vs
		}
	}
	sh.mu.Unlock()

	t.mu.RLock()
	gen := t.gen.Load() // mutations hold mu for writing, so this pins the walk's state
	var buf [8][]V
	out := union(matchWalk(t.root, s.raw, buf[:0]))
	t.mu.RUnlock()

	sh.mu.Lock()
	if gen > sh.gen {
		// First fill at a newer generation: everything cached is stale.
		clear(sh.m)
		sh.gen = gen
	}
	// gen < sh.gen: a concurrent fill already advanced the shard past this
	// walk. The result is still a correct answer for the caller (the walk
	// happened before the newer mutation) but must not enter the map. When
	// full, skip rather than evict.
	if gen == sh.gen && len(sh.m) < maxMatchCache {
		if sh.m == nil {
			sh.m = make(map[string][]V)
		}
		sh.m[s.raw] = out
	}
	sh.mu.Unlock()
	return out
}

// Gen returns the trie's mutation generation. It advances on every Add and
// Remove that changes the set; state derived from the trie (the daemon's
// interest advertisement) compares it to detect staleness without
// registering with the trie.
func (t *Trie[V]) Gen() uint64 { return t.gen.Load() }

// matchWalk appends to sets the non-empty value sets of every trie node
// whose path matches rest, the subject's elements not yet consumed. A ">"
// registered at n matches when one or more elements remain.
func matchWalk[V comparable](n *trieNode[V], rest string, sets [][]V) [][]V {
	vs := n.rest
	if rest == "" {
		vs = n.values
	}
	if len(vs) > 0 {
		sets = append(sets, vs)
	}
	if rest == "" {
		return sets
	}
	e, tail, _ := strings.Cut(rest, sep)
	if child, ok := n.children[e]; ok {
		sets = matchWalk(child, tail, sets)
	}
	if n.star != nil {
		sets = matchWalk(n.star, tail, sets)
	}
	return sets
}

// union returns the distinct values of sets, capped: the largest set itself
// when it holds every value of the others (always so when one node
// contributed); else a copy. Dedup scans: a trie's sets are a host's
// clients or an application's subscriptions, a handful.
func union[V comparable](sets [][]V) []V {
	if len(sets) == 0 {
		return nil
	}
	big := 0
	for i, vs := range sets {
		if len(vs) > len(sets[big]) {
			big = i
		}
	}
	out := slices.Clip(sets[big])
	for i, vs := range sets {
		for _, v := range vs {
			if i != big && !containsValue(out, v) {
				out = append(out, v)
			}
		}
	}
	return slices.Clip(out)
}

// Patterns returns the canonical strings of all registered patterns, sorted,
// with duplicates (same pattern, different values) collapsed. Intended for
// introspection and monitoring tools.
func (t *Trie[V]) Patterns() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.patternsLocked()
}

func (t *Trie[V]) patternsLocked() []string {
	out := t.root.appendPatterns(make([]string, 0, t.distinct), nil)
	sort.Strings(out)
	return out
}

// appendPatterns appends the pattern of every occupied node at or below n,
// whose own path is prefix. Paths are unique, so no pattern repeats.
func (n *trieNode[V]) appendPatterns(out, prefix []string) []string {
	if len(n.values) > 0 {
		out = append(out, strings.Join(prefix, sep))
	}
	if len(n.rest) > 0 {
		out = append(out, strings.Join(append(prefix, WildcardRest), sep))
	}
	for e, child := range n.children {
		out = child.appendPatterns(out, append(prefix, e))
	}
	if n.star != nil {
		out = n.star.appendPatterns(out, append(prefix, WildcardOne))
	}
	return out
}

// Distinct returns the number of distinct registered patterns,
// len(Patterns()) without the walk.
func (t *Trie[V]) Distinct() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.distinct
}

// Aggregate returns AggregatePatterns(t.Patterns(), max), sorted, without
// walking a set that will not fit. Above max the aggregate is the trie's
// first level: Remove prunes empty nodes, so every key of root.children
// heads at least one registered pattern, and a root "*" or ">" slot is
// occupied only while some pattern starts with that wildcard. The cost is
// then O(min(len(root.children), max)) however many patterns lie below.
func (t *Trie[V]) Aggregate(max int) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	root := t.root
	if t.distinct <= max {
		return t.patternsLocked()
	}
	if root.star != nil || len(root.rest) > 0 || len(root.children) > max {
		return []string{WildcardRest}
	}
	out := make([]string, 0, len(root.children))
	for e, child := range root.children {
		if len(child.values) > 0 {
			out = append(out, e)
		}
		if len(child.children) > 0 || child.star != nil || len(child.rest) > 0 {
			out = append(out, e+sep+WildcardRest)
		}
	}
	if len(out) > max {
		return []string{WildcardRest}
	}
	sort.Strings(out)
	return out
}

func containsValue[V comparable](vs []V, v V) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

// removeValue deletes v from one node's values or rest set, counting the
// node's pattern out when the set empties. The rest goes to a new slice:
// the old one may be a Match answer.
func (t *Trie[V]) removeValue(set *[]V, v V) bool {
	vs := *set
	for i, x := range vs {
		if x == v {
			*set = nil
			if len(vs) == 1 {
				t.distinct--
			} else {
				*set = slices.Concat(vs[:i], vs[i+1:])
			}
			return true
		}
	}
	return false
}
