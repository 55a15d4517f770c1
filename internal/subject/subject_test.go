package subject

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in    string
		depth int
	}{
		{"fab5", 1},
		{"fab5.cc", 2},
		{"fab5.cc.litho8.thick", 4},
		{"news.equity.gmc", 3},
		{"a.b.c.d.e.f.g.h", 8},
		{"UPPER.lower.MiXeD", 3},
		{"with-dash.under_score.digits123", 3},
	}
	for _, c := range cases {
		s, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", c.in, err)
			continue
		}
		if s.String() != c.in {
			t.Errorf("Parse(%q).String() = %q", c.in, s.String())
		}
		if s.Depth() != c.depth {
			t.Errorf("Parse(%q).Depth() = %d, want %d", c.in, s.Depth(), c.depth)
		}
		if s.IsZero() {
			t.Errorf("Parse(%q).IsZero() = true", c.in)
		}
	}
}

func TestIsSys(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"_sys.stats.node-1", true},
		{"_sys.ping", true},
		{"_sys.x", true},
		{"_syst.stats", false}, // element-wise, not a string prefix
		{"news._sys.x", false},
		{"news.equity.gmc", false},
	}
	for _, c := range cases {
		if got := IsSys(MustParse(c.in)); got != c.want {
			t.Errorf("IsSys(%q) = %t, want %t", c.in, got, c.want)
		}
	}
	if IsSys(Subject{}) {
		t.Error("IsSys(zero) must be false")
	}
}

func TestParseInvalid(t *testing.T) {
	cases := []struct {
		in   string
		want error
	}{
		{"", ErrEmpty},
		{".", ErrEmptyElement},
		{"a.", ErrEmptyElement},
		{".a", ErrEmptyElement},
		{"a..b", ErrEmptyElement},
		{"a b", ErrIllegalChar},
		{"a.b\tc", ErrIllegalChar},
		{"a.b\x00", ErrIllegalChar},
		{"a.*", ErrWildcardInName},
		{"*.a", ErrWildcardInName},
		{"a.>", ErrWildcardInName},
		{strings.Repeat("x", MaxLength+1), ErrTooLong},
		{strings.Repeat("a.", MaxElements) + "a", ErrTooDeep},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if !errors.Is(err, c.want) {
			t.Errorf("Parse(%q) error = %v, want %v", c.in, err, c.want)
		}
	}
}

func TestParsePatternValid(t *testing.T) {
	for _, in := range []string{
		"a", "a.b", "*", "a.*", "*.b", "a.*.c", ">", "a.>", "a.*.>", "*.*",
	} {
		p, err := ParsePattern(in)
		if err != nil {
			t.Errorf("ParsePattern(%q): %v", in, err)
			continue
		}
		if p.String() != in {
			t.Errorf("ParsePattern(%q).String() = %q", in, p.String())
		}
	}
}

func TestParsePatternInvalid(t *testing.T) {
	cases := []struct {
		in   string
		want error
	}{
		{"", ErrEmpty},
		{">.a", ErrMisplacedRest},
		{"a.>.b", ErrMisplacedRest},
		{"a*", ErrWildcardElement},
		{"a.b*", ErrWildcardElement},
		{"a.*x", ErrWildcardElement},
		{"a.>x", ErrWildcardElement},
		{"a..b", ErrEmptyElement},
	}
	for _, c := range cases {
		_, err := ParsePattern(c.in)
		if !errors.Is(err, c.want) {
			t.Errorf("ParsePattern(%q) error = %v, want %v", c.in, err, c.want)
		}
	}
}

func TestPatternIsLiteral(t *testing.T) {
	if !MustParsePattern("a.b.c").IsLiteral() {
		t.Error("a.b.c should be literal")
	}
	for _, in := range []string{"a.*", "a.>", "*"} {
		if MustParsePattern(in).IsLiteral() {
			t.Errorf("%q should not be literal", in)
		}
	}
}

func TestMatches(t *testing.T) {
	cases := []struct {
		pattern, subj string
		want          bool
	}{
		{"a.b.c", "a.b.c", true},
		{"a.b.c", "a.b.d", false},
		{"a.b.c", "a.b", false},
		{"a.b", "a.b.c", false},
		{"a.*", "a.b", true},
		{"a.*", "a.b.c", false},
		{"a.*", "a", false},
		{"*.b", "a.b", true},
		{"*.b", "b.b", true},
		{"*.b", "a.c", false},
		{"a.*.c", "a.x.c", true},
		{"a.*.c", "a.x.y", false},
		{">", "a", true},
		{">", "a.b.c", true},
		{"a.>", "a.b", true},
		{"a.>", "a.b.c.d", true},
		{"a.>", "a", false}, // '>' requires at least one more element
		{"a.>", "b.c", false},
		{"a.*.>", "a.x.y", true},
		{"a.*.>", "a.x", false},
		{"news.equity.*", "news.equity.gmc", true},
		{"news.>", "news.equity.gmc", true},
	}
	for _, c := range cases {
		p := MustParsePattern(c.pattern)
		s := MustParse(c.subj)
		if got := p.Matches(s); got != c.want {
			t.Errorf("Matches(%q, %q) = %v, want %v", c.pattern, c.subj, got, c.want)
		}
	}
}

func TestOverlaps(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"a.b", "a.b", true},
		{"a.b", "a.c", false},
		{"a.*", "a.b", true},
		{"a.*", "*.b", true},
		{"a.*", "b.*", false},
		{"a.>", "a.b.c", true},
		{"a.>", "b.>", false},
		{">", "x.y.z", true},
		{"a.b", "a.b.c", false},
		{"a.*", "a.b.c", false},
		{"a.*.c", "a.x.*", true},
		{"a.>", "a.*", true},
	}
	for _, c := range cases {
		a, b := MustParsePattern(c.a), MustParsePattern(c.b)
		if got := a.Overlaps(b); got != c.want {
			t.Errorf("Overlaps(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := b.Overlaps(a); got != c.want {
			t.Errorf("Overlaps(%q, %q) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestChildAndHasPrefix(t *testing.T) {
	base := MustParse("fab5.cc")
	child, err := base.Child("litho8")
	if err != nil {
		t.Fatal(err)
	}
	if child.String() != "fab5.cc.litho8" {
		t.Fatalf("Child = %q", child.String())
	}
	if !child.HasPrefix(base) {
		t.Error("child should have base as prefix")
	}
	if base.HasPrefix(child) {
		t.Error("base should not have child as prefix")
	}
	if !base.HasPrefix(base) {
		t.Error("subject should be its own prefix")
	}
	if child.HasPrefix(MustParse("fab5.ccx")) {
		t.Error("element-wise prefix must not match string prefix across element boundary")
	}
	if _, err := base.Child("bad element"); err == nil {
		t.Error("Child with illegal element should fail")
	}
}

// Property: a literal pattern matches exactly the identical subject.
func TestQuickLiteralPatternSelfMatch(t *testing.T) {
	f := func(parts []uint8) bool {
		elems := make([]string, 0, len(parts)%8+1)
		for i := 0; i <= len(parts)%8; i++ {
			elems = append(elems, string(rune('a'+int(pick(parts, i))%26)))
		}
		raw := strings.Join(elems, ".")
		s, err := Parse(raw)
		if err != nil {
			return false
		}
		p, err := ParsePattern(raw)
		if err != nil {
			return false
		}
		return p.Matches(s) && p.IsLiteral()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: replacing any single element of a subject with "*" still
// matches, and appending ">" to any strict prefix still matches.
func TestQuickWildcardGeneralization(t *testing.T) {
	f := func(parts []uint8, starAt uint8) bool {
		n := len(parts)%6 + 2
		elems := make([]string, n)
		for i := range elems {
			elems[i] = string(rune('a'+int(pick(parts, i))%26)) + string(rune('a'+i))
		}
		s := MustParse(strings.Join(elems, "."))

		withStar := make([]string, n)
		copy(withStar, elems)
		withStar[int(starAt)%n] = WildcardOne
		if !MustParsePattern(strings.Join(withStar, ".")).Matches(s) {
			return false
		}
		cut := int(starAt)%(n-1) + 1 // strict prefix length in [1, n-1]
		rest := strings.Join(elems[:cut], ".") + ".>"
		return MustParsePattern(rest).Matches(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: if two patterns both match a subject, they overlap.
func TestQuickMatchImpliesOverlap(t *testing.T) {
	pats := []string{"a.b", "a.*", "*.b", "a.>", ">", "a.b.c", "a.*.c", "*.*"}
	subs := []string{"a.b", "a.c", "a.b.c", "x.y", "a.x.c"}
	for _, ps := range pats {
		for _, qs := range pats {
			p, q := MustParsePattern(ps), MustParsePattern(qs)
			for _, ss := range subs {
				s := MustParse(ss)
				if p.Matches(s) && q.Matches(s) && !p.Overlaps(q) {
					t.Errorf("patterns %q and %q both match %q but Overlaps is false", ps, qs, ss)
				}
			}
		}
	}
}

func pick(parts []uint8, i int) uint8 {
	if len(parts) == 0 {
		return uint8(i * 7)
	}
	return parts[i%len(parts)]
}

// The three TestLaneIndex* tests pin shardIndex, the trie's match-cache shard
// key.
func TestLaneIndexDeterministicAndBounded(t *testing.T) {
	for _, raw := range []string{"a", "a.b", "a.b.c", "fab5.cc.litho8.thick"} {
		s := MustParse(raw)
		for _, n := range []int{1, 2, 4, 7, 64} {
			i := s.shardIndex(n)
			if i < 0 || i >= n {
				t.Fatalf("shardIndex(%q, %d) = %d out of range", raw, n, i)
			}
			if j := MustParse(raw).shardIndex(n); j != i {
				t.Fatalf("shardIndex(%q, %d) not deterministic: %d vs %d", raw, n, i, j)
			}
		}
		if s.shardIndex(1) != 0 || s.shardIndex(0) != 0 {
			t.Fatalf("shardIndex(%q) with <=1 shards must be 0", raw)
		}
	}
}

// TestLaneIndexPrefixFamily: subjects sharing a two-element prefix land on
// one shard (their match-cache entries stay together); the third element
// does not matter.
func TestLaneIndexPrefixFamily(t *testing.T) {
	base := MustParse("fan.grp.a").shardIndex(8)
	for _, raw := range []string{"fan.grp.b", "fan.grp.zzz", "fan.grp.a.b.c"} {
		if got := MustParse(raw).shardIndex(8); got != base {
			t.Errorf("%q shard %d, want %d (shared two-element prefix)", raw, got, base)
		}
	}
}

// TestLaneIndexSpreads: distinct two-element prefixes must not collapse
// onto a single shard — the whole point of the hash is spreading subject
// families across the cache shards.
func TestLaneIndexSpreads(t *testing.T) {
	used := make(map[int]bool)
	for i := 0; i < 64; i++ {
		used[MustParse(fmt.Sprintf("fam%d.x.data", i)).shardIndex(8)] = true
	}
	if len(used) < 4 {
		t.Fatalf("64 prefixes hit only %d of 8 shards", len(used))
	}
	// Separator is part of the hash: "a.bc" and "ab.c" are different
	// prefixes (they may still collide mod n, so compare the raw keys).
	if shardHash([]string{"a", "bc"}) == shardHash([]string{"ab", "c"}) {
		t.Error(`shardHash("a"."bc") == shardHash("ab"."c")`)
	}
}
