package subject

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParsePattern: arbitrary strings never panic, and every accepted
// pattern matches consistently with itself when it is also a valid
// concrete subject.
func FuzzParsePattern(f *testing.F) {
	for _, s := range []string{"a.b.c", "a.*.>", ">", "*", "fab5.cc.litho8.thick", "..", "a..b", "a.b*"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePattern(s)
		if err != nil {
			return
		}
		if p.String() != s {
			t.Fatalf("pattern round trip: %q -> %q", s, p.String())
		}
		if subj, err := Parse(s); err == nil {
			if !p.Matches(subj) {
				t.Fatalf("literal pattern %q does not match itself", s)
			}
			if !p.Overlaps(p) {
				t.Fatalf("pattern %q does not overlap itself", s)
			}
		}
	})
}

// FuzzAggregateWidens: for any set of valid patterns, any cap and any
// subject, aggregation never drops a subject an input pattern matched, is
// idempotent, and Trie.Aggregate agrees with AggregatePatterns.
func FuzzAggregateWidens(f *testing.F) {
	f.Add("foo foo.bar foo.baz solo", "foo", uint8(2))
	f.Add("a.b a.c b.> *.x", "q.x", uint8(1))
	f.Add("a b c d e f g", "d", uint8(3))
	f.Fuzz(func(t *testing.T, pats, subj string, max uint8) {
		var in []string
		tr := NewTrie[int]()
		for _, s := range strings.Fields(pats) {
			if p, err := ParsePattern(s); err == nil {
				in = append(in, s)
				tr.Add(p, 0)
			}
		}
		var probes []Subject
		if s, err := Parse(subj); err == nil {
			probes = append(probes, s)
		}
		checkWidens(t, in, int(max), probes)
		if got, want := tr.Aggregate(int(max)), AggregatePatterns(tr.Patterns(), int(max)); !slices.Equal(got, want) {
			t.Fatalf("Trie.Aggregate(%d) = %v, AggregatePatterns(%v) = %v", max, got, tr.Patterns(), want)
		}
	})
}
