package subject

import "sync"

// Interner caches Parse results by raw bytes. Daemons and routers parse the
// subject of every inbound frame; Parse allocates nothing, so interning
// saves only the string copy of the bytes. Workloads repeat subjects heavily
// (the paper's Figure 6/7 runs publish thousands of messages per subject),
// so most frames are a map hit. Safe for concurrent use.
//
// The cache is bounded: when full, new subjects are parsed but not cached
// (no eviction bookkeeping, and no clear-on-overflow churn — a workload
// cycling through more subjects than the cap would defeat a cleared cache
// entirely). Parse failures are not cached — corrupt subjects are dropped
// by the caller anyway, and caching them would let garbage churn the table.
type Interner struct {
	mu  sync.Mutex
	max int
	m   map[string]Subject
}

// defaultInternerSize bounds an Interner built with NewInterner(0); sized
// above Figure 8's 10 000-subject workload.
const defaultInternerSize = 16384

// NewInterner returns an interner holding at most max subjects (0 selects
// the package default).
func NewInterner(max int) *Interner {
	if max <= 0 {
		max = defaultInternerSize
	}
	return &Interner{max: max, m: make(map[string]Subject)}
}

// Parse is Subject Parse. A subject that is already a string has no copy
// to save, so it is neither looked up nor cached.
func (in *Interner) Parse(raw string) (Subject, error) { return Parse(raw) }

// ParseBytes is Parse for a subject that arrived as a byte slice (a
// busproto.Header view aliasing a wire frame). On a cache hit — the
// steady state of a forwarding engine — it allocates nothing: the map
// probe uses the compiler's zero-copy []byte→string lookup. A miss probes
// once, then copies the bytes (its one allocation), parses the copy and
// inserts it, so the cache never aliases the caller's frame.
func (in *Interner) ParseBytes(raw []byte) (Subject, error) {
	in.mu.Lock()
	s, ok := in.m[string(raw)]
	in.mu.Unlock()
	if ok {
		return s, nil
	}
	s, err := Parse(string(raw))
	if err == nil {
		in.mu.Lock()
		if len(in.m) < in.max {
			in.m[s.raw] = s
		}
		in.mu.Unlock()
	}
	return s, err
}
