package telemetry

import (
	"sort"
	"sync"
)

// TopK is a bounded space-saving sketch of the heaviest subject families:
// when the table is full, a new family evicts the current minimum and
// inherits its count (the classic Metwally et al. overestimate, recorded
// per entry as Err so monitors can show accuracy). The daemon keeps one
// table per delivery lane — a lane's subjects all share its table, so
// Note contends only with the lane's own deliveries — and the history
// digest merges the per-lane tables.
//
// Note's steady state (family already tabled) is a map probe plus three
// adds under a short mutex: no allocation, no sorting. Eviction scans the
// K entries linearly; with K ≤ a few hundred that is cheaper and simpler
// than a heap it would have to re-sift on every count bump.
type TopK struct {
	mu    sync.Mutex
	k     int
	items map[string]*topKItem
}

type topKItem struct {
	family string
	msgs   uint64
	bytes  uint64
	drops  uint64
	err    uint64 // inherited overestimate at insertion
}

// TopKEntry is one family's accounting in a snapshot (the SysFamily kind).
type TopKEntry struct {
	Family string `mop:"family"`
	Msgs   uint64 `mop:"msgs"` // delivery count (overestimate bounded by Err)
	Bytes  uint64 `mop:"bytes"`
	Drops  uint64 `mop:"drops"` // deliveries dropped (slow consumer)
	Err    uint64 `mop:"err"`   // max overcount inherited from the evicted minimum
}

// NewTopK creates a table bounded to k families (minimum 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, items: make(map[string]*topKItem, k)}
}

// Note records one message in family (bytes payload bytes), before it is
// handed to any consumer: a consumer that reads the table on receipt finds
// its own message in it. family may be a substring of a longer subject
// string; the table keys on its content.
func (t *TopK) Note(family string, bytes int) {
	t.mu.Lock()
	it := t.items[family]
	if it == nil {
		if len(t.items) < t.k {
			it = &topKItem{family: family}
			t.items[family] = it
		} else {
			// Space-saving eviction: the minimum-count entry makes room and
			// the newcomer inherits its count as the overestimate bound.
			var min *topKItem
			for _, cand := range t.items {
				if min == nil || cand.msgs < min.msgs {
					min = cand
				}
			}
			delete(t.items, min.family)
			it = min // recycle the struct: no allocation on churn
			it.family = family
			it.err = it.msgs
			it.bytes, it.drops = 0, 0
			t.items[family] = it
		}
	}
	it.msgs++
	it.bytes += uint64(bytes)
	t.mu.Unlock()
}

// NoteDrop amends the last Note of family: a consumer queue refused the
// message. A family evicted in between takes the mark with it.
func (t *TopK) NoteDrop(family string) {
	t.mu.Lock()
	if it := t.items[family]; it != nil {
		it.drops++
	}
	t.mu.Unlock()
}

// Snapshot returns the table's entries sorted by msgs descending.
func (t *TopK) Snapshot() []TopKEntry {
	t.mu.Lock()
	out := make([]TopKEntry, 0, len(t.items))
	for _, it := range t.items {
		out = append(out, TopKEntry{Family: it.family, Msgs: it.msgs,
			Bytes: it.bytes, Drops: it.drops, Err: it.err})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Msgs != out[j].Msgs {
			return out[i].Msgs > out[j].Msgs
		}
		return out[i].Family < out[j].Family
	})
	return out
}

// MergeTopK combines per-lane snapshots (same family summed across lanes,
// Err kept as the max) and returns the heaviest k entries.
func MergeTopK(k int, tables ...[]TopKEntry) []TopKEntry {
	merged := make(map[string]TopKEntry)
	for _, tb := range tables {
		for _, e := range tb {
			m := merged[e.Family]
			m.Family = e.Family
			m.Msgs += e.Msgs
			m.Bytes += e.Bytes
			m.Drops += e.Drops
			if e.Err > m.Err {
				m.Err = e.Err
			}
			merged[e.Family] = m
		}
	}
	out := make([]TopKEntry, 0, len(merged))
	for _, e := range merged {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Msgs != out[j].Msgs {
			return out[i].Msgs > out[j].Msgs
		}
		return out[i].Family < out[j].Family
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
