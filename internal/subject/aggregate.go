package subject

import (
	"sort"
	"strings"
)

// MaxAdvertisedPatterns bounds one interest advertisement, a host daemon's
// and a mesh router's alike. A host with thousands of subscriptions
// (Figure 8 subscribes to 10 000 subjects) must not occupy the shared
// medium with its interest chatter, so larger sets are aggregated to
// wildcard prefixes — routers may then over-forward slightly, which is
// safe, instead of the wire drowning.
const MaxAdvertisedPatterns = 64

// AggregatePatterns collapses an oversized interest-pattern set to
// first-element wildcard prefixes ("bench.>"), and to a single ">" if even
// that is too many. Aggregation only widens interest, never narrows it: a
// router acting on the aggregate may over-forward slightly, which is safe,
// instead of the advertisement occupying the shared medium (the Figure 8
// constraint). A one-element literal stays as it is ("foo", beside "foo.>"
// when deeper patterns share the element): "foo.>" needs a further element
// and would not match the subject "foo".
//
// The operation is idempotent and transitive-safe: feeding its own output
// (or a union of outputs from several hops) back in yields an equally wide
// or wider set, never a narrower one, so mesh routers can re-aggregate at
// every hop. Sets at or under max are returned unchanged; the cap applies
// to the aggregated set as well.
func AggregatePatterns(patterns []string, max int) []string {
	if len(patterns) <= max {
		return patterns
	}
	set := make(map[string]struct{})
	for _, p := range patterns {
		first, _, deeper := strings.Cut(p, sep)
		if first == WildcardOne || first == WildcardRest {
			return []string{WildcardRest}
		}
		if deeper {
			p = first + sep + WildcardRest
		}
		set[p] = struct{}{}
	}
	if len(set) > max {
		return []string{WildcardRest}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
