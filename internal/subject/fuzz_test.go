package subject

import (
	"errors"
	"fmt"
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

// refParse is the strings.Split validator Parse replaced, kept as the
// reference FuzzParse holds Parse to: the same decision, the same error.
func refParse(s string) ([]string, error) {
	if s == "" {
		return nil, ErrEmpty
	}
	if len(s) > MaxLength {
		return nil, fmt.Errorf("%q (%d bytes): %w", s[:32]+"...", len(s), ErrTooLong)
	}
	elems := strings.Split(s, sep)
	if len(elems) > MaxElements {
		return nil, fmt.Errorf("%q (%d elements): %w", s, len(elems), ErrTooDeep)
	}
	for i, e := range elems {
		if e == "" {
			return nil, fmt.Errorf("element %d of %q: %w", i, s, ErrEmptyElement)
		}
		for _, r := range e {
			if r < 0x21 || r == 0x7f {
				return nil, fmt.Errorf("element %d of %q: %w", i, s, ErrIllegalChar)
			}
		}
	}
	for i, e := range elems {
		if e == WildcardOne || e == WildcardRest {
			return nil, fmt.Errorf("element %d of %q: %w", i, s, ErrWildcardInName)
		}
	}
	return elems, nil
}

// refShardHash is the element-wise FNV-1a the shard key was before a
// Subject dropped its elements; subjects must keep their shards.
func refShardHash(elems []string) uint32 {
	h := uint32(2166136261)
	for i, e := range elems[:min(len(elems), 2)] {
		if i > 0 {
			h = (h ^ '.') * 16777619
		}
		for j := 0; j < len(e); j++ {
			h = (h ^ uint32(e[j])) * 16777619
		}
	}
	return h
}

// refMatches is element-wise pattern matching over split subjects.
func refMatches(pe, se []string) bool {
	for i, e := range pe {
		switch {
		case e == WildcardRest:
			return len(se) > i
		case i >= len(se) || e != WildcardOne && se[i] != e:
			return false
		}
	}
	return len(pe) == len(se)
}

// FuzzParse: Parse and Interner.ParseBytes (which parses network bytes)
// survive any input and agree with refParse on the decision and the error;
// an accepted subject's Elements, Depth, Family, IsSys, shard key,
// HasPrefix and Pattern.Matches agree with element-wise references.
func FuzzParse(f *testing.F) {
	for _, c := range [][2]string{{"fab5.cc.litho8.thick", "fab5.cc"}, {"_sys.stats.n1", "_sys"},
		{"a.b", "a.*"}, {"a..b", "a.>"}, {"a.*", "*"}, {"a.b c", "a b"}, {"a", "a.b"}, {"ab.c", "a"},
		{strings.Repeat("a.", MaxElements) + "a", ">"}, {"\xff.\x7f", "x"}} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, s, q string) {
		got, err := Parse(s)
		elems, refErr := refParse(s)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("Parse(%q) error %v, reference %v", s, err, refErr)
		}
		for _, c := range []error{ErrEmpty, ErrTooLong, ErrTooDeep, ErrEmptyElement, ErrIllegalChar, ErrWildcardInName} {
			if errors.Is(err, c) != errors.Is(refErr, c) {
				t.Fatalf("Parse(%q) error %v, reference %v: categories differ", s, err, refErr)
			}
		}
		in := NewInterner(0)
		for range 2 { // a miss, then a hit
			if b, berr := in.ParseBytes([]byte(s)); b != got || (berr == nil) != (err == nil) {
				t.Fatalf("ParseBytes(%q) = %v, %v; Parse = %v, %v", s, b, berr, got, err)
			}
		}
		if err != nil {
			return
		}
		family := s
		if len(elems) > 2 {
			family = elems[0] + sep + elems[1]
		}
		switch {
		case !slices.Equal(got.Elements(), elems) || got.Depth() != len(elems):
			t.Fatalf("%q: Elements %q, Depth %d; want %q", s, got.Elements(), got.Depth(), elems)
		case got.Family() != family || IsSys(got) != (elems[0] == SysPrefix):
			t.Fatalf("%q: Family %q, IsSys %t", s, got.Family(), IsSys(got))
		case got.shardKey != refShardHash(elems):
			t.Fatalf("%q: shard key %x, want %x", s, got.shardKey, refShardHash(elems))
		}
		if qs, qelems := parseRef(q); qelems != nil {
			want := len(qelems) <= len(elems) && slices.Equal(elems[:len(qelems)], qelems)
			if got.HasPrefix(qs) != want {
				t.Fatalf("%q.HasPrefix(%q) = %t, want %t", s, q, !want, want)
			}
		}
		if p, err := ParsePattern(q); err == nil {
			if want := refMatches(strings.Split(q, sep), elems); p.Matches(got) != want {
				t.Fatalf("%q matches %q = %t, want %t", q, s, !want, want)
			}
		}
	})
}

// parseRef parses s as a subject and returns it with its reference
// elements, or nil elements if it is not one.
func parseRef(s string) (Subject, []string) {
	subj, err := Parse(s)
	if err != nil {
		return Subject{}, nil
	}
	elems, _ := refParse(s)
	return subj, elems
}

// FuzzTrieMatch: Match answers exactly the distinct values whose pattern
// Matches the subject, on a cold miss and on a cache hit; an answer held
// across a Remove and an Add on the trie does not change.
func FuzzTrieMatch(f *testing.F) {
	f.Add("a.b a.> a.* *.b > a.b.c", []byte{1, 1, 2, 1, 3, 0}, "a.b", uint8(1))
	f.Add("x.y x.y x.> *.y", []byte{0, 1, 0, 0}, "x.y", uint8(0))
	f.Add("a.b a.>", []byte{1, 2}, "a.b", uint8(3))
	f.Fuzz(func(t *testing.T, pats string, vals []byte, subj string, drop uint8) {
		s, err := Parse(subj)
		if err != nil {
			return
		}
		type pair struct {
			p Pattern
			v int
		}
		var reg []pair
		tr := NewTrie[int]()
		for i, field := range strings.Fields(pats) {
			p, err := ParsePattern(field)
			if err != nil {
				continue
			}
			v := i % 4
			if len(vals) > 0 {
				v = int(vals[i%len(vals)] % 4)
			}
			if tr.Add(p, v) {
				reg = append(reg, pair{p, v})
			}
		}
		check := func(stage string) []int {
			var want []int
			for _, r := range reg {
				if r.p.Matches(s) && !slices.Contains(want, r.v) {
					want = append(want, r.v)
				}
			}
			got := tr.Match(s)
			if !slices.Equal(sortedCopy(got), sortedCopy(want)) {
				t.Fatalf("%s: Match(%q) = %v, want %v (distinct)", stage, subj, got, want)
			}
			return got
		}
		held := check("cold")
		was := slices.Clone(held)
		check("cached")
		if len(reg) == 0 {
			return
		}
		k := int(drop) % len(reg)
		r := reg[k]
		tr.Remove(r.p, r.v)
		reg = slices.Delete(reg, k, k+1)
		check("after Remove")
		tr.Add(r.p, r.v)
		tr.Add(r.p, 4) // an append into the node's set
		reg = append(reg, r, pair{r.p, 4})
		check("after Add")
		if !slices.Equal(held, was) {
			t.Fatalf("a held answer changed: %v, was %v", held, was)
		}
	})
}

func sortedCopy(vs []int) []int {
	out := slices.Clone(vs)
	slices.Sort(out)
	return out
}
