package subject

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// checkWidens asserts AggregatePatterns' contract on one input: the output
// fits the cap (or is the lone ">"), aggregating again changes nothing, and
// every probe subject an input pattern matches is matched by an output
// pattern. It returns the aggregate.
func checkWidens(t *testing.T, in []string, max int, probes []Subject) []string {
	t.Helper()
	out := AggregatePatterns(in, max)
	if len(out) > max && !slices.Equal(out, []string{WildcardRest}) {
		t.Fatalf("max %d: aggregate of %v has %d patterns: %v", max, in, len(out), out)
	}
	if again := AggregatePatterns(out, max); !slices.Equal(again, out) {
		t.Fatalf("max %d: not idempotent: %v -> %v", max, out, again)
	}
	matches := func(pats []string, s Subject) bool {
		return slices.ContainsFunc(pats, func(p string) bool { return MustParsePattern(p).Matches(s) })
	}
	for _, s := range probes {
		if matches(in, s) && !matches(out, s) {
			t.Fatalf("max %d: %v -> %v narrowed: subject %q lost", max, in, out, s)
		}
	}
	return out
}

// randomPattern draws from a small alphabet so that patterns collide,
// share first elements, and include one-element literals and both
// wildcards; firsts bounds the number of distinct first elements.
func randomPattern(rng *rand.Rand, firsts int, rootWild bool) string {
	elems := []string{fmt.Sprintf("f%d", rng.Intn(firsts))}
	if rootWild && rng.Intn(40) == 0 {
		elems[0] = []string{WildcardOne, WildcardRest}[rng.Intn(2)]
	}
	for d := rng.Intn(3); d > 0 && elems[0] != WildcardRest; d-- {
		switch r := rng.Intn(12); {
		case r == 0:
			elems = append(elems, WildcardOne)
		case r == 1 && d == 1:
			elems = append(elems, WildcardRest)
		default:
			elems = append(elems, fmt.Sprintf("e%d", r))
		}
	}
	return strings.Join(elems, sep)
}

// TestTrieAggregateEqualsAggregatePatterns: through random Add/Remove
// sequences (several values, duplicate patterns, first levels both under
// and over the cap, root wildcards coming and going, a final drain that
// prunes back to the root) Trie.Aggregate stays equal to the definition it
// short-cuts and the distinct counter to the number of patterns.
func TestTrieAggregateEqualsAggregatePatterns(t *testing.T) {
	type pair struct {
		pat string
		val int
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		firsts, rootWild := []int{1, 3, 6, 200}[seed%4], seed%3 == 0
		tr := NewTrie[int]()
		var live []pair
		check := func(step int) {
			t.Helper()
			pats := tr.Patterns()
			if tr.Distinct() != len(pats) {
				t.Fatalf("seed %d step %d: distinct = %d, %d patterns", seed, step, tr.Distinct(), len(pats))
			}
			for _, max := range []int{1, 4, 64} {
				if got, want := tr.Aggregate(max), AggregatePatterns(pats, max); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d max %d: Aggregate = %v, want %v (patterns %v)", seed, step, max, got, want, pats)
				}
			}
		}
		for step := 0; step < 500; step++ {
			if len(live) > 0 && rng.Intn(5) < 2 {
				i := rng.Intn(len(live))
				if !tr.Remove(MustParsePattern(live[i].pat), live[i].val) {
					t.Fatalf("seed %d: live pair %v not removed", seed, live[i])
				}
				live = slices.Delete(live, i, i+1)
			} else {
				p := pair{randomPattern(rng, firsts, rootWild), rng.Intn(3)}
				if tr.Add(MustParsePattern(p.pat), p.val) {
					live = append(live, p)
				}
			}
			check(step)
		}
		for i, p := range live {
			tr.Remove(MustParsePattern(p.pat), p.val)
			check(-i)
		}
		if tr.Distinct() != 0 || len(tr.root.children) != 0 || tr.root.star != nil {
			t.Fatalf("seed %d: drained trie not pruned to the root", seed)
		}
	}
}

// TestAggregateWidens is the "only widens, never narrows" property over
// random pattern sets, one-element literals included.
func TestAggregateWidens(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 120; round++ {
		firsts := []int{2, 5, 80}[round%3]
		in := make([]string, rng.Intn(120))
		for i := range in {
			in[i] = randomPattern(rng, firsts, round%4 == 0)
		}
		probes := make([]Subject, 60)
		for i := range probes {
			// A random literal pattern of the same alphabet is a subject.
			p := strings.NewReplacer(WildcardOne, "e0", WildcardRest, "e1").Replace(randomPattern(rng, firsts, false))
			probes[i] = MustParse(p)
		}
		for _, max := range []int{1, 4, 64} {
			checkWidens(t, in, max, probes)
		}
	}
}

// TestAggregateKeepsOneElementSubjects pins the case the property found:
// "foo.>" does not match the subject "foo", so a one-element literal is
// advertised as itself.
func TestAggregateKeepsOneElementSubjects(t *testing.T) {
	in := []string{"foo", "foo.bar", "foo.baz.*", "solo", "deep.a", "deep.b"}
	got := checkWidens(t, in, 5, []Subject{MustParse("foo"), MustParse("solo"), MustParse("foo.bar")})
	if want := []string{"deep.>", "foo", "foo.>", "solo"}; !slices.Equal(got, want) {
		t.Errorf("aggregate = %v, want %v", got, want)
	}
	// The cap applies to the resulting set: four entries do not fit three.
	if got := AggregatePatterns(in, 3); !slices.Equal(got, []string{WildcardRest}) {
		t.Errorf("aggregate over the cap = %v, want [>]", got)
	}
}

// TestAggregateInterest: the fixed cases of interest aggregation.
func TestAggregateInterest(t *testing.T) {
	// Small sets pass through unchanged.
	small := []string{"a.b", "c.>"}
	got := AggregatePatterns(small, 64)
	if len(got) != 2 || got[0] != "a.b" {
		t.Errorf("small set = %v", got)
	}
	// Oversized sets collapse to first-element prefixes.
	var big []string
	for i := 0; i < 1000; i++ {
		big = append(big, "bench.s"+string(rune('a'+i%26))+".data")
	}
	got = AggregatePatterns(big, 64)
	if len(got) != 1 || got[0] != "bench.>" {
		t.Errorf("aggregated = %v, want [bench.>]", got)
	}
	// Too many distinct prefixes collapse to ">".
	var wide []string
	for i := 0; i < 200; i++ {
		wide = append(wide, "p"+string(rune('a'+i%26))+string(rune('a'+i/26))+".x")
	}
	got = AggregatePatterns(wide, 64)
	if len(got) != 1 || got[0] != ">" {
		t.Errorf("wide aggregated = %v, want [>]", got)
	}
	// A leading wildcard forces the universal pattern.
	got = AggregatePatterns(append(big, ">"), 64)
	if len(got) != 1 || got[0] != ">" {
		t.Errorf("wildcard aggregated = %v", got)
	}
	// Aggregation only widens: every original pattern's matches are
	// covered by some aggregated pattern.
	agg := AggregatePatterns(big, 64)
	s := MustParse("bench.sa.data")
	covered := false
	for _, a := range agg {
		if MustParsePattern(a).Matches(s) {
			covered = true
		}
	}
	if !covered {
		t.Error("aggregation narrowed interest")
	}
}
