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
	return len(s.elements) > 0 && s.elements[0] == SysPrefix
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
// The zero value is invalid; construct via Parse or MustParse.
type Subject struct {
	raw      string
	elements []string
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

// Parse validates and parses a concrete subject name. Wildcard characters
// are rejected: concrete subjects label published data objects and must
// identify exactly one point in the subject hierarchy.
func Parse(s string) (Subject, error) {
	elems, err := split(s)
	if err != nil {
		return Subject{}, err
	}
	for i, e := range elems {
		if e == WildcardOne || e == WildcardRest {
			return Subject{}, fmt.Errorf("element %d of %q: %w", i, s, ErrWildcardInName)
		}
	}
	return Subject{raw: s, elements: elems, shardKey: shardHash(elems)}, nil
}

// shardHash is FNV-1a over the subject-prefix: the first two elements (or
// the single element of a depth-1 subject), with the separator included so
// ("a.bc", "ab.c") hash differently.
func shardHash(elems []string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	n := len(elems)
	if n > 2 {
		n = 2
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			h = (h ^ '.') * prime32
		}
		for j := 0; j < len(elems[i]); j++ {
			h = (h ^ uint32(elems[i][j])) * prime32
		}
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
	elems, err := split(s)
	if err != nil {
		return Pattern{}, err
	}
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

// split validates the shared lexical structure of subjects and patterns and
// returns the elements.
func split(s string) ([]string, error) {
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
			// Control characters and whitespace would make subjects
			// unprintable in monitoring tools and ambiguous in logs.
			if r < 0x21 || r == 0x7f {
				return nil, fmt.Errorf("element %d of %q: %w", i, s, ErrIllegalChar)
			}
		}
	}
	return elems, nil
}

// String returns the canonical dotted form.
func (s Subject) String() string { return s.raw }

// Elements returns the subject's elements. The slice must not be modified.
func (s Subject) Elements() []string { return s.elements }

// Depth returns the number of elements.
func (s Subject) Depth() int { return len(s.elements) }

// Family returns the subject's two-element prefix ("fab5.cc" for
// "fab5.cc.litho8.thick"), the same grouping shardHash keys the match
// cache by. The result is a substring of the canonical form — no allocation —
// so per-message accounting (telemetry top-K tables) can key on it from
// the delivery hot path.
func (s Subject) Family() string {
	if len(s.elements) <= 2 {
		return s.raw
	}
	return s.raw[:len(s.elements[0])+1+len(s.elements[1])]
}

// IsZero reports whether s is the (invalid) zero Subject.
func (s Subject) IsZero() bool { return len(s.elements) == 0 }

// Child returns the subject extended by one element, e.g.
// MustParse("fab5.cc").Child("litho8") == "fab5.cc.litho8".
func (s Subject) Child(element string) (Subject, error) {
	return Parse(s.raw + sep + element)
}

// HasPrefix reports whether p is an ancestor of (or equal to) s in the
// subject hierarchy, element-wise: "fab5.cc" is a prefix of
// "fab5.cc.litho8" but not of "fab5.ccx".
func (s Subject) HasPrefix(p Subject) bool {
	if len(p.elements) > len(s.elements) {
		return false
	}
	for i, e := range p.elements {
		if s.elements[i] != e {
			return false
		}
	}
	return true
}

// String returns the canonical dotted form of the pattern.
func (p Pattern) String() string { return p.raw }

// Elements returns the pattern's elements. The slice must not be modified.
func (p Pattern) Elements() []string { return p.elements }

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
	pe, se := p.elements, s.elements
	for i, e := range pe {
		switch e {
		case WildcardRest:
			// ">" requires at least one remaining subject element.
			return len(se) > i
		case WildcardOne:
			if i >= len(se) {
				return false
			}
		default:
			if i >= len(se) || se[i] != e {
				return false
			}
		}
	}
	return len(pe) == len(se)
}

// Overlaps reports whether two patterns can both match some subject. It is
// used by information routers to decide whether a remote subscription makes
// forwarding a local subscription's traffic necessary.
func (p Pattern) Overlaps(q Pattern) bool {
	i, j := 0, 0
	for i < len(p.elements) && j < len(q.elements) {
		a, b := p.elements[i], q.elements[j]
		if a == WildcardRest || b == WildcardRest {
			return true
		}
		if a != b && a != WildcardOne && b != WildcardOne {
			return false
		}
		i++
		j++
	}
	// Both exhausted simultaneously: a common subject exists. Otherwise the
	// longer pattern needs elements the shorter cannot supply, unless the
	// shorter ends in ">" (handled above).
	return i == len(p.elements) && j == len(q.elements)
}
