// Package subject implements hierarchical subject names and wildcard
// matching for Subject-Based Addressing, the naming scheme at the heart of
// the Information Bus (Oki, Pfluegl, Siegel, Skeen; SOSP '93, §3.1).
//
// A subject is a dot-separated sequence of non-empty elements, for example
// "fab5.cc.litho8.thick" (plant, cell controller, lithography station,
// wafer thickness). The bus itself enforces no policy on the interpretation
// of subjects; applications establish conventions.
//
// Subscriptions may use wildcards:
//
//   - "*" matches exactly one element at its position, e.g.
//     "news.equity.*" matches "news.equity.gmc" but not "news.equity" or
//     "news.equity.gmc.earnings".
//   - ">" matches one or more trailing elements and may only appear last,
//     e.g. "fab5.>" matches every subject under "fab5".
//
// Subject comparisons are case-sensitive and byte-wise; the bus never
// interprets element content.
//
// A Subject is its canonical string, depth and prefix hash: Parse allocates
// nothing, matching walks the string, only Subject.Elements splits (and
// allocates). Trie.Match may return one node's own value set.
package subject

import (
	"errors"
	"fmt"
	"strings"
)

// MaxElements bounds the number of elements in a subject; deeper subjects
// are rejected at parse time. The bound keeps the trie depth, and therefore
// the matching cost, small and predictable.
const MaxElements = 32

// MaxLength bounds the total byte length of a subject string.
const MaxLength = 500

const (
	sep = "."
	// WildcardOne matches exactly one element.
	WildcardOne = "*"
	// WildcardRest matches one or more trailing elements.
	WildcardRest = ">"
)

// SysPrefix is the first element of the reserved system subject space
// "_sys.>", on which the bus publishes telemetry about itself
// (internal/telemetry): per-node stats objects and ping answers.
// Subscribing under it is open to everyone (that is the point — anonymous
// self-observation, P4); publishing is restricted by the bus layer
// (internal/core) so applications cannot spoof system stats.
const SysPrefix = "_sys"

// IsSys reports whether the subject lies in the reserved "_sys.>" space.
func IsSys(s Subject) bool {
	return s.raw == SysPrefix || strings.HasPrefix(s.raw, SysPrefix+sep)
}

// Common validation errors. Parse and ParsePattern wrap these with position
// information; use errors.Is to test for a category.
var (
	ErrEmpty           = errors.New("subject: empty subject")
	ErrTooLong         = errors.New("subject: exceeds maximum length")
	ErrTooDeep         = errors.New("subject: exceeds maximum element count")
	ErrEmptyElement    = errors.New("subject: empty element")
	ErrIllegalChar     = errors.New("subject: illegal character in element")
	ErrWildcardInName  = errors.New("subject: wildcard not allowed in a concrete subject")
	ErrMisplacedRest   = errors.New("subject: '>' must be the last element")
	ErrWildcardElement = errors.New("subject: wildcard must be a whole element")
)

// Subject is a parsed, validated, concrete (wildcard-free) subject name.
// The zero value is invalid; construct via Parse or MustParse. Its elements
// are not kept: the walks that need them cut them from raw.
type Subject struct {
	raw   string
	depth int32
	// shardKey is a hash of the subject-prefix (the first two elements),
	// computed once at parse time so picking the trie's match-cache shard
	// costs the hot path nothing. Subjects sharing a two-element prefix
	// share a shard, which keeps one subject family's entries together.
	shardKey uint32
}

// Pattern is a parsed subscription pattern: a subject that may contain
// wildcards. Every concrete Subject is also a valid Pattern.
type Pattern struct {
	raw      string
	elements []string
	hasWild  bool
	hasRest  bool
}

// Parse validates and parses a concrete subject name. Wildcard elements
// are rejected: concrete subjects label published data objects and must
// identify exactly one point in the subject hierarchy. It allocates nothing.
func Parse(s string) (Subject, error) {
	depth, family, wild, err := scan(s)
	if err != nil {
		return Subject{}, err
	}
	if wild >= 0 {
		return Subject{}, fmt.Errorf("element %d of %q: %w", wild, s, ErrWildcardInName)
	}
	return Subject{raw: s, depth: int32(depth), shardKey: shardHash(s[:family])}, nil
}

// shardHash is FNV-1a over the subject-prefix: the first two elements (or
// the single element of a depth-1 subject) as they stand in the canonical
// form, separator included, so "a.bc" and "ab.c" hash differently.
func shardHash(prefix string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(prefix); i++ {
		h = (h ^ uint32(prefix[i])) * prime32
	}
	return h
}

// shardIndex maps the subject onto one of a trie's n match-cache shards by
// its precomputed prefix hash. Deterministic: the same subject always lands
// on the same shard, and all subjects sharing a two-element prefix share one.
func (s Subject) shardIndex(n int) int {
	if n <= 1 {
		return 0
	}
	return int(s.shardKey % uint32(n))
}

// MustParse is like Parse but panics on error. It is intended for
// package-level subjects and tests where the literal is known valid.
func MustParse(s string) Subject {
	subj, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return subj
}

// ParsePattern validates and parses a subscription pattern. "*" must occupy
// a whole element; ">" must occupy the final element.
func ParsePattern(s string) (Pattern, error) {
	if _, _, _, err := scan(s); err != nil {
		return Pattern{}, err
	}
	elems := strings.Split(s, sep)
	p := Pattern{raw: s, elements: elems}
	for i, e := range elems {
		switch e {
		case WildcardOne:
			p.hasWild = true
		case WildcardRest:
			if i != len(elems)-1 {
				return Pattern{}, fmt.Errorf("element %d of %q: %w", i, s, ErrMisplacedRest)
			}
			p.hasWild = true
			p.hasRest = true
		default:
			if strings.ContainsAny(e, WildcardOne+WildcardRest) {
				return Pattern{}, fmt.Errorf("element %d of %q: %w", i, s, ErrWildcardElement)
			}
		}
	}
	return p, nil
}

// MustParsePattern is like ParsePattern but panics on error.
func MustParsePattern(s string) Pattern {
	p, err := ParsePattern(s)
	if err != nil {
		panic(err)
	}
	return p
}

// scan validates the lexical structure subjects and patterns share in one
// pass over the bytes of s, reporting length, then depth, then the first
// faulty element. It returns the element count, the byte length of the
// two-element prefix and the index of the first wildcard element, or -1.
func scan(s string) (depth, family, wild int, err error) {
	if s == "" {
		return 0, 0, -1, ErrEmpty
	}
	if len(s) > MaxLength {
		return 0, 0, -1, fmt.Errorf("%q (%d bytes): %w", s[:32]+"...", len(s), ErrTooLong)
	}
	var bad error // the first faulty element's fault, at element badAt
	badAt, start, family, wild := 0, 0, len(s), -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != '.' {
			// Control characters and whitespace would make subjects
			// unprintable in monitoring tools and ambiguous in logs. Every
			// byte of a multi-byte rune is 0x80 or above, so bytes stand
			// for runes.
			if c := s[i]; (c < 0x21 || c == 0x7f) && bad == nil {
				bad, badAt = ErrIllegalChar, depth
			}
			continue
		}
		switch e := s[start:i]; {
		case e == "" && bad == nil:
			bad, badAt = ErrEmptyElement, depth
		case (e == WildcardOne || e == WildcardRest) && wild < 0:
			wild = depth
		}
		if depth++; depth == 2 {
			family = i
		}
		start = i + 1
	}
	if depth > MaxElements {
		return 0, 0, -1, fmt.Errorf("%q (%d elements): %w", s, depth, ErrTooDeep)
	}
	if bad != nil {
		return 0, 0, -1, fmt.Errorf("element %d of %q: %w", badAt, s, bad)
	}
	return depth, family, wild, nil
}

// String returns the canonical dotted form.
func (s Subject) String() string { return s.raw }

// Elements returns the subject's elements, split on every call: it allocates.
func (s Subject) Elements() []string {
	if s.raw == "" {
		return nil
	}
	return strings.Split(s.raw, sep)
}

// Depth returns the number of elements.
func (s Subject) Depth() int { return int(s.depth) }

// Family returns the subject's two-element prefix ("fab5.cc" for
// "fab5.cc.litho8.thick"), the same grouping shardHash keys the match
// cache by. The result is a substring of the canonical form — no allocation —
// so per-message accounting (telemetry top-K tables) can key on it from
// the delivery hot path.
func (s Subject) Family() string {
	if i := strings.IndexByte(s.raw, '.'); i >= 0 {
		if j := strings.IndexByte(s.raw[i+1:], '.'); j >= 0 {
			return s.raw[:i+1+j]
		}
	}
	return s.raw
}

// IsZero reports whether s is the (invalid) zero Subject.
func (s Subject) IsZero() bool { return s.raw == "" }

// HasPrefix reports whether p is an ancestor of (or equal to) s in the
// subject hierarchy, element-wise: "fab5.cc" is a prefix of
// "fab5.cc.litho8" but not of "fab5.ccx".
func (s Subject) HasPrefix(p Subject) bool {
	rest, ok := strings.CutPrefix(s.raw, p.raw)
	return ok && (rest == "" || rest[0] == '.' || p.raw == "")
}

// String returns the canonical dotted form of the pattern.
func (p Pattern) String() string { return p.raw }

// IsZero reports whether p is the (invalid) zero Pattern.
func (p Pattern) IsZero() bool { return len(p.elements) == 0 }

// IsLiteral reports whether the pattern contains no wildcards and therefore
// matches exactly one subject.
func (p Pattern) IsLiteral() bool { return !p.hasWild }

// Matches reports whether the pattern matches the concrete subject.
//
// Matching is element-wise: "*" consumes exactly one element and ">"
// consumes one or more trailing elements. A pattern without wildcards
// matches only the identical subject.
func (p Pattern) Matches(s Subject) bool {
	rest := s.raw // the subject's elements not yet consumed; "" when none are left
	for _, e := range p.elements {
		if rest == "" {
			return false
		}
		if e == WildcardRest {
			// ">" requires at least one remaining subject element.
			return true
		}
		var se string
		se, rest, _ = strings.Cut(rest, sep)
		if e != WildcardOne && e != se {
			return false
		}
	}
	return rest == ""
}
