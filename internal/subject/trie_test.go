package subject

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func matchStrings(t *Trie[string], subj string) []string {
	out := slices.Clone(t.Match(MustParse(subj))) // the answer may be a node's own set
	sort.Strings(out)
	return out
}

func TestTrieExactMatch(t *testing.T) {
	tr := NewTrie[string]()
	tr.Add(MustParsePattern("a.b"), "s1")
	tr.Add(MustParsePattern("a.c"), "s2")
	tr.Add(MustParsePattern("a.b"), "s3")

	got := matchStrings(tr, "a.b")
	want := []string{"s1", "s3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Match(a.b) = %v, want %v", got, want)
	}
	if got := matchStrings(tr, "a.d"); len(got) != 0 {
		t.Errorf("Match(a.d) = %v, want empty", got)
	}
	if got := matchStrings(tr, "a"); len(got) != 0 {
		t.Errorf("Match(a) = %v, want empty", got)
	}
}

func TestTrieWildcards(t *testing.T) {
	tr := NewTrie[string]()
	tr.Add(MustParsePattern("news.equity.*"), "star")
	tr.Add(MustParsePattern("news.>"), "rest")
	tr.Add(MustParsePattern("news.equity.gmc"), "exact")
	tr.Add(MustParsePattern(">"), "all")

	cases := []struct {
		subj string
		want []string
	}{
		{"news.equity.gmc", []string{"all", "exact", "rest", "star"}},
		{"news.equity.ibm", []string{"all", "rest", "star"}},
		{"news.bond", []string{"all", "rest"}},
		{"news", []string{"all"}},
		{"sports.scores", []string{"all"}},
		{"news.equity.gmc.earnings", []string{"all", "rest"}},
	}
	for _, c := range cases {
		got := matchStrings(tr, c.subj)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("Match(%q) = %v, want %v", c.subj, got, c.want)
		}
	}
}

func TestTrieDuplicateAdd(t *testing.T) {
	tr := NewTrie[string]()
	if !tr.Add(MustParsePattern("a.b"), "v") {
		t.Error("first Add should report true")
	}
	if tr.Add(MustParsePattern("a.b"), "v") {
		t.Error("duplicate Add should report false")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
	if got := tr.Match(MustParse("a.b")); len(got) != 1 {
		t.Errorf("Match returned %v, want one value", got)
	}
}

func TestTrieDistinctValueDedup(t *testing.T) {
	// One subscriber registered under two overlapping patterns must be
	// delivered once per message, not once per pattern.
	tr := NewTrie[string]()
	tr.Add(MustParsePattern("a.>"), "v")
	tr.Add(MustParsePattern("a.b"), "v")
	if got := tr.Match(MustParse("a.b")); len(got) != 1 {
		t.Errorf("Match = %v, want single deduplicated value", got)
	}
}

func TestTrieRemove(t *testing.T) {
	tr := NewTrie[string]()
	pats := []string{"a.b", "a.*", "a.>", "*", ">"}
	for _, p := range pats {
		tr.Add(MustParsePattern(p), "v:"+p)
	}
	if tr.Len() != len(pats) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(pats))
	}
	for i, p := range pats {
		if !tr.Remove(MustParsePattern(p), "v:"+p) {
			t.Errorf("Remove(%q) = false, want true", p)
		}
		if tr.Remove(MustParsePattern(p), "v:"+p) {
			t.Errorf("second Remove(%q) = true, want false", p)
		}
		if tr.Len() != len(pats)-i-1 {
			t.Errorf("Len after removing %q = %d", p, tr.Len())
		}
	}
	if got := tr.Match(MustParse("a.b")); len(got) != 0 {
		t.Errorf("Match after removal = %v, want empty", got)
	}
	// Interior nodes must have been pruned.
	if len(tr.root.children) != 0 || tr.root.star != nil {
		t.Error("trie not pruned after removing all patterns")
	}
}

func TestTrieRemoveAbsent(t *testing.T) {
	tr := NewTrie[string]()
	tr.Add(MustParsePattern("a.b"), "v")
	if tr.Remove(MustParsePattern("a.c"), "v") {
		t.Error("Remove of absent pattern should report false")
	}
	if tr.Remove(MustParsePattern("a.b"), "other") {
		t.Error("Remove of absent value should report false")
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

// TestTrieMatchAny: "is anyone over there interested?", asked the way
// routers and mesh links ask it — a non-empty Match.
func TestTrieMatchAny(t *testing.T) {
	tr := NewTrie[string]()
	tr.Add(MustParsePattern("fab5.>"), "router")
	if len(tr.Match(MustParse("fab5.cc.litho8"))) == 0 {
		t.Error("fab5.> should match fab5.cc.litho8")
	}
	if len(tr.Match(MustParse("fab6.cc"))) != 0 {
		t.Error("nothing should match fab6.cc")
	}
}

func TestTriePatterns(t *testing.T) {
	tr := NewTrie[string]()
	for _, p := range []string{"a.b", "a.*", "x.>", "a.b"} {
		tr.Add(MustParsePattern(p), "v1")
	}
	tr.Add(MustParsePattern("a.b"), "v2")
	got := tr.Patterns()
	want := []string{"a.*", "a.b", "x.>"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Patterns = %v, want %v", got, want)
	}
}

// The trie must agree with the reference semantics of Pattern.Matches for
// randomly generated pattern/subject populations.
func TestTrieAgainstReferenceMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []string{"a", "b", "c"}
	randElems := func(n int, allowWild bool) string {
		parts := make([]string, n)
		for i := range parts {
			r := rng.Intn(10)
			switch {
			case allowWild && r == 0:
				parts[i] = "*"
			case allowWild && r == 1 && i == n-1:
				parts[i] = ">"
			default:
				parts[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		out := ""
		for i, p := range parts {
			if i > 0 {
				out += "."
			}
			out += p
		}
		return out
	}

	tr := NewTrie[int]()
	patterns := make([]Pattern, 0, 200)
	for i := 0; i < 200; i++ {
		p, err := ParsePattern(randElems(rng.Intn(4)+1, true))
		if err != nil {
			continue
		}
		patterns = append(patterns, p)
		tr.Add(p, len(patterns)-1)
	}
	for trial := 0; trial < 500; trial++ {
		s := MustParse(randElems(rng.Intn(4)+1, false))
		want := make(map[int]struct{})
		for i, p := range patterns {
			if p.Matches(s) {
				want[i] = struct{}{}
			}
		}
		got := tr.Match(s)
		if len(got) != len(want) {
			t.Fatalf("subject %q: trie matched %d values, reference %d", s, len(got), len(want))
		}
		for _, v := range got {
			if _, ok := want[v]; !ok {
				t.Fatalf("subject %q: trie matched pattern %q which does not match", s, patterns[v])
			}
		}
	}
}

func TestTrieConcurrency(t *testing.T) {
	tr := NewTrie[int]()
	var wg sync.WaitGroup
	subj := MustParse("load.test.subject")
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := MustParsePattern(fmt.Sprintf("load.test.%c", 'a'+i%26))
				tr.Add(p, w*1000+i)
				tr.Match(subj)
				tr.Remove(p, w*1000+i)
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkTrieMatch(b *testing.B) {
	for _, nsub := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("subs=%d", nsub), func(b *testing.B) {
			tr := NewTrie[int]()
			for i := 0; i < nsub; i++ {
				tr.Add(MustParsePattern(fmt.Sprintf("bench.s%d.data", i)), i)
			}
			s := MustParse(fmt.Sprintf("bench.s%d.data", nsub/2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := tr.Match(s); len(got) != 1 {
					b.Fatalf("Match = %v", got)
				}
			}
		})
	}
}

// TestTrieMatchCacheInvalidation exercises the match cache: repeated
// Match calls on the same subject are served from cache, and any Add or
// Remove must invalidate it so results never go stale.
func TestTrieMatchCacheInvalidation(t *testing.T) {
	tr := NewTrie[string]()
	tr.Add(MustParsePattern("a.>"), "first")
	s := MustParse("a.b")
	for i := 0; i < 3; i++ { // warm and re-hit the cache
		if got := tr.Match(s); len(got) != 1 || got[0] != "first" {
			t.Fatalf("Match #%d = %v", i, got)
		}
	}
	tr.Add(MustParsePattern("a.b"), "second")
	if got := tr.Match(s); len(got) != 2 {
		t.Fatalf("after Add: Match = %v, want 2 values", got)
	}
	tr.Remove(MustParsePattern("a.>"), "first")
	if got := tr.Match(s); len(got) != 1 || got[0] != "second" {
		t.Fatalf("after Remove: Match = %v, want [second]", got)
	}
	// A ">"-terminated add takes the early-return path in Add; it must
	// invalidate too.
	tr.Add(MustParsePattern(">"), "rest")
	if got := tr.Match(s); len(got) != 2 {
		t.Fatalf("after rest-Add: Match = %v, want 2 values", got)
	}
}

// TestTrieMatchCacheConcurrent hammers Match while the subscription set
// churns; run under -race this guards the gen/shard protocol.
func TestTrieMatchCacheConcurrent(t *testing.T) {
	tr := NewTrie[int]()
	tr.Add(MustParsePattern("stable.>"), 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			tr.Add(MustParsePattern("churn.x"), i)
			tr.Remove(MustParsePattern("churn.x"), i)
		}
	}()
	s := MustParse("stable.subject")
	for {
		select {
		case <-done:
			return
		default:
			if got := tr.Match(s); len(got) != 1 || got[0] != 0 {
				t.Fatalf("Match = %v", got)
			}
		}
	}
}

// cached reports how many subjects shard i of the trie's match cache holds.
func cached[V comparable](tr *Trie[V], i int) int {
	sh := &tr.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.m)
}

// familyOn returns a two-element subject prefix whose subjects land on
// shard i of an n-shard trie.
func familyOn(n, i int) string {
	for k := 0; ; k++ {
		if f := fmt.Sprintf("fam%d.x", k); MustParse(f).shardIndex(n) == i {
			return f
		}
	}
}

func TestMatchCacheServesAndInvalidates(t *testing.T) {
	tr := NewTrie[int]()
	tr.Add(MustParsePattern("a.>"), 1)
	s := MustParse("a.b")

	got := tr.Match(s)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("first match = %v", got)
	}
	if n := cached(tr, 0); n != 1 {
		t.Fatalf("cache len = %d after fill", n)
	}
	// Served from the cache (same snapshot slice).
	again := tr.Match(s)
	if len(again) != 1 || &again[0] != &got[0] {
		t.Fatal("second match did not come from the cache")
	}

	// A trie mutation invalidates lazily: the next lookup re-walks and
	// drops what the shard held.
	tr.Match(MustParse("a.c"))
	tr.Add(MustParsePattern("a.b"), 2)
	got = tr.Match(s)
	if len(got) != 2 {
		t.Fatalf("post-mutation match = %v, want 2 values", got)
	}
	if n := cached(tr, 0); n != 1 {
		t.Fatalf("cache len = %d after the post-mutation fill, want 1 (a.c was stale)", n)
	}
	tr.Remove(MustParsePattern("a.b"), 2)
	got = tr.Match(s)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("post-remove match = %v", got)
	}
}

// TestMatchCacheCapSkipsNotEvicts: a full shard stops caching new subjects
// but keeps serving (and never evicts) the ones it has, and the cap is per
// shard — a second shard still has all of its room.
func TestMatchCacheCapSkipsNotEvicts(t *testing.T) {
	tr := NewShardedTrie[int](2)
	tr.Add(MustParsePattern(">"), 7)
	fam := [2]string{familyOn(2, 0), familyOn(2, 1)}
	first := tr.Match(MustParse(fam[0] + ".s0"))
	for i := 1; i < maxMatchCache+10; i++ {
		tr.Match(MustParse(fmt.Sprintf("%s.s%d", fam[0], i)))
	}
	if n := cached(tr, 0); n != maxMatchCache {
		t.Fatalf("shard 0 holds %d subjects, want %d (cap)", n, maxMatchCache)
	}
	over := MustParse(fmt.Sprintf("%s.s%d", fam[0], maxMatchCache+5)) // over cap: not cached
	if got := tr.Match(over); len(got) != 1 || got[0] != 7 {
		t.Fatalf("uncached subject answered %v", got)
	}
	if _, ok := tr.shards[0].m[fam[0]+".s0"]; !ok || tr.Match(MustParse(fam[0] + ".s0"))[0] != first[0] {
		t.Fatal("a full shard evicted an entry it held")
	}
	tr.Match(MustParse(fam[1] + ".s0"))
	if n := cached(tr, 1); n != 1 {
		t.Fatalf("shard 1 holds %d subjects, want 1: shard 0 being full must not stop it caching", n)
	}
}

// TestMatchCacheShardsIndependent: the shards of one trie never see each
// other's entries, and each drops its stale entries on its own next lookup.
func TestMatchCacheShardsIndependent(t *testing.T) {
	tr := NewShardedTrie[int](2)
	tr.Add(MustParsePattern(">"), 1)
	subj := [2]Subject{MustParse(familyOn(2, 0) + ".a"), MustParse(familyOn(2, 1) + ".a")}
	tr.Match(subj[0])
	if a, b := cached(tr, 0), cached(tr, 1); a != 1 || b != 0 {
		t.Fatalf("shard lens = %d/%d, want 1/0", a, b)
	}
	tr.Match(subj[1])
	tr.Add(MustParsePattern(subj[0].String()), 2)
	if got := tr.Match(subj[0]); len(got) != 2 {
		t.Fatalf("shard 0 stale after mutation: %v", got)
	}
	if got := tr.Match(subj[1]); len(got) != 1 {
		t.Fatalf("shard 1 answered %v", got)
	}
}

// TestMatchCacheNeverServesOlderThanObserved: lanes matching disjoint
// subject families, each through its own shard, while another goroutine
// adds and removes. A matcher that saw Add(k) return must find a value
// >= k (values only grow and the newest is never removed), and one that saw
// Remove(k) return must find nothing <= k — a cached set older than the
// mutation it observed would break one or the other. Run under -race.
func TestMatchCacheNeverServesOlderThanObserved(t *testing.T) {
	const lanes, perLane = 4, 3000
	tr := NewShardedTrie[int](lanes)
	all := MustParsePattern(">")
	tr.Add(all, 0)
	var added, removed atomic.Int64 // highest value whose Add / Remove has returned
	removed.Store(-1)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			tr.Add(all, k)
			added.Store(int64(k))
			tr.Remove(all, k-1)
			removed.Store(int64(k - 1))
		}
	}()
	var wg sync.WaitGroup
	for ln := 0; ln < lanes; ln++ {
		wg.Add(1)
		go func(ln int) {
			defer wg.Done()
			subjects := make([]Subject, 8)
			for i := range subjects {
				subjects[i] = MustParse(fmt.Sprintf("lane%d.fam.s%d", ln, i))
			}
			for i := 0; i < perLane; i++ {
				lo, gone := int(added.Load()), int(removed.Load())
				got := tr.Match(subjects[i%len(subjects)])
				newest := -1
				for _, v := range got {
					if v <= gone {
						t.Errorf("lane %d: matched %d after Remove(%d) returned", ln, v, gone)
						return
					}
					newest = max(newest, v)
				}
				if newest < lo {
					t.Errorf("lane %d: matched %v after Add(%d) returned", ln, got, lo)
					return
				}
			}
		}(ln)
	}
	wg.Wait()
	close(stop)
	<-stopped
}

func TestInterner(t *testing.T) {
	in := NewInterner(2)
	a1, err := in.Parse("x.y")
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := in.Parse("x.y")
	if a1.String() != a2.String() || a1.Depth() != a2.Depth() {
		t.Fatalf("interned parse mismatch: %v vs %v", a1, a2)
	}
	if _, err := in.Parse("..bad"); err == nil {
		t.Fatal("interner accepted an invalid subject")
	}
	// Past the cap, parses stay correct (just uncached).
	for _, raw := range []string{"a.b", "c.d", "e.f", "x.y"} {
		s, err := in.Parse(raw)
		if err != nil || s.String() != raw {
			t.Fatalf("Parse(%q) = %v, %v", raw, s, err)
		}
	}
}

func TestInternerParseBytes(t *testing.T) {
	in := NewInterner(8)
	raw := []byte("wire.frame.subject")
	s1, err := in.ParseBytes(raw)
	if err != nil || s1.String() != "wire.frame.subject" {
		t.Fatalf("ParseBytes = %v, %v", s1, err)
	}
	// The interned key must not alias the caller's frame: scribbling over
	// the byte slice (as frame-buffer reuse would) must not corrupt hits.
	for i := range raw {
		raw[i] = 'z'
	}
	s2, err := in.ParseBytes([]byte("wire.frame.subject"))
	if err != nil || s2.String() != "wire.frame.subject" {
		t.Fatalf("re-lookup after scribble = %v, %v", s2, err)
	}
	if _, err := in.ParseBytes([]byte("..bad")); err == nil {
		t.Fatal("ParseBytes accepted an invalid subject")
	}
	// Cache hits are the forwarding steady state and must not allocate.
	key := []byte("hot.path.subject")
	if _, err := in.ParseBytes(key); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := in.ParseBytes(key); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseBytes cache hit allocates %.1f, want 0", allocs)
	}
	// A miss probes once and copies the bytes: one allocation. At the cap
	// nothing is inserted, so the count is exact; below it the map's own
	// occasional growth is a fraction AllocsPerRun's integer mean drops.
	full := NewInterner(1)
	if _, err := full.ParseBytes([]byte("fill.it")); err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 1001) // AllocsPerRun calls once more than it counts
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("miss.%d.subject", i))
	}
	for _, c := range []struct {
		name string
		in   *Interner
	}{{"full", full}, {"below the cap", NewInterner(len(keys))}} {
		i := 0
		allocs := testing.AllocsPerRun(len(keys)-1, func() {
			if s, err := c.in.ParseBytes(keys[i]); err != nil || s.String() != string(keys[i]) {
				t.Fatalf("ParseBytes(%q) = %v, %v", keys[i], s, err)
			}
			i++
		})
		if allocs != 1 {
			t.Errorf("ParseBytes miss (%s) allocates %.1f, want 1", c.name, allocs)
		}
	}
}

// TestMatchMissAllocs: after a real trie mutation (so the next Match misses
// the cache and walks), a miss answered by one node's set allocates
// nothing, also when a second node holds the same single value; only a true
// union of different sets is copied out, in one allocation.
func TestMatchMissAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cases := []struct {
		name   string
		pats   []string
		vals   []int
		want   []int
		allocs uint64
	}{
		{"one node", []string{"a.b"}, []int{1}, []int{1}, 0},
		{"two nodes, one value", []string{"a.b", "a.>"}, []int{1, 1}, []int{1}, 0},
		{"union", []string{"a.b", "a.>"}, []int{1, 2}, []int{1, 2}, 1},
	}
	s, other := MustParse("a.b"), MustParsePattern("z.z")
	for _, c := range cases {
		tr := NewTrie[int]()
		for i, p := range c.pats {
			tr.Add(MustParsePattern(p), c.vals[i])
		}
		tr.Match(s) // the shard's map exists from here on
		const runs = 100
		var mallocs uint64
		var before, after runtime.MemStats
		runtime.GC() // a collection's own allocations land in the windows less often
		for range runs {
			tr.Add(other, 9)
			tr.Remove(other, 9)
			runtime.ReadMemStats(&before)
			got := tr.Match(s)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			if !slices.Equal(sortedCopy(got), c.want) {
				t.Fatalf("%s: Match = %v, want %v", c.name, got, c.want)
			}
			if sh := &tr.shards[0]; sh.gen != tr.gen.Load() {
				t.Fatalf("%s: the Match after a mutation did not refill the shard", c.name)
			}
		}
		if mallocs/runs != c.allocs || mallocs%runs != 0 {
			t.Errorf("%s: a miss allocates %d/%d, want %d", c.name, mallocs, runs, c.allocs)
		}
	}
}

// TestMatchResultSurvivesRemove: a held Match answer never changes while
// another goroutine removes values from the node it came from and adds
// them back. The answers alternate between that node's own set and a copied
// union (hold.* holds a value hold.x sometimes lacks). Run under -race: a
// write below a set's length would be reported as a race as well.
func TestMatchResultSurvivesRemove(t *testing.T) {
	tr := NewTrie[int]()
	p := MustParsePattern("hold.x")
	for v := range 8 {
		tr.Add(p, v)
	}
	tr.Add(MustParsePattern("hold.*"), 3)
	s := MustParse("hold.x")
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			tr.Remove(p, k%8)
			tr.Add(p, k%8)
		}
	}()
	var held [8]struct{ got, want []int }
	for i := range 5000 {
		got := tr.Match(s)
		if len(got) != cap(got) {
			t.Fatalf("Match answered len %d cap %d: an append would reach the trie's spare room", len(got), cap(got))
		}
		held[i%len(held)].got, held[i%len(held)].want = got, slices.Clone(got)
		for _, h := range held {
			if !slices.Equal(h.got, h.want) {
				t.Fatalf("a held answer changed: %v, was %v", h.got, h.want)
			}
		}
	}
	close(stop)
	<-stopped
}
