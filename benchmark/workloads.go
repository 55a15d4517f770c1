package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"infobus/internal/mop"
	"infobus/internal/subject"
	"infobus/internal/wire"
)

// Load constants. Rates and sizes are fixed here and never scaled at run
// time: the parent commit and a change must see the identical load, so a
// number may only move because the program under test moved.
const (
	// warmupMsgs are published per publisher after set-up and before the
	// timed phases; they fill caches and type dictionaries and are excluded
	// from every metric.
	warmupMsgs = 1000
	// satWindow is the closed-loop token window of the saturated phase:
	// messages published and not yet seen by the slowest consumer host,
	// shared evenly between the publishers of a workload.
	satWindow = 1024
	// sliceDur is the length of the slices each timed phase is cut into:
	// 1000 slices in a 10 s phase. A timing metric is computed per slice
	// and reported as the median over the slices.
	sliceDur = 10 * time.Millisecond
	// setupReps is how many times a run builds the topology to its first
	// verified delivery before, between and after the timed phases; setup_s
	// is the median of all 3 x setupReps.
	setupReps = 9
	// segmentQueue bounds each endpoint's receive queue on the benchmark
	// segment, in datagrams. A full queue blocks the sender.
	segmentQueue = 8192
	// drainTimeout bounds the wait for the last delivery of a phase; what
	// has not arrived by then is counted missing.
	drainTimeout = 15 * time.Second
	// churnPairsPerSec is the Subscribe+Cancel rate of subject_churn. Every
	// pair costs one interest advertisement, which walks all 2020
	// subscriptions (about 9000 allocations: at this rate three fifths of
	// the workload's allocs_per_msg) and goes out 2 ms after the pair; the churning client waits for it (see
	// topo.churn), so pairs cannot come faster than a few hundred a second.
	churnPairsPerSec = 50
)

// Header slots every benchmark object starts with; the delivery oracle
// reads them, the content checksum covers the slots after them.
const (
	slotPub = iota
	slotSeq
	slotSum
	slotContent
)

var headerAttrs = []mop.Attr{
	{Name: "pub", Type: mop.Int},
	{Name: "seq", Type: mop.Int},
	{Name: "sum", Type: mop.Int},
}

func class(name string, attrs ...mop.Attr) *mop.Type {
	return mop.MustNewClass(name, nil, append(append([]mop.Attr(nil), headerAttrs...), attrs...), nil)
}

var (
	tickClass = class("Tick",
		mop.Attr{Name: "symbol", Type: mop.String},
		mop.Attr{Name: "price", Type: mop.Float},
		mop.Attr{Name: "size", Type: mop.Int},
		mop.Attr{Name: "at", Type: mop.Time})
	sourceClass = mop.MustNewClass("Source", nil, []mop.Attr{
		{Name: "agency", Type: mop.String},
		{Name: "desk", Type: mop.String},
		{Name: "region", Type: mop.String},
	}, nil)
	storyClass = class("Story",
		mop.Attr{Name: "headline", Type: mop.String},
		mop.Attr{Name: "body", Type: mop.Bytes},
		mop.Attr{Name: "keywords", Type: mop.ListOf(mop.String)},
		mop.Attr{Name: "source", Type: sourceClass})
	quoteClass = class("Quote",
		mop.Attr{Name: "symbol", Type: mop.String},
		mop.Attr{Name: "bid", Type: mop.Float},
		mop.Attr{Name: "ask", Type: mop.Float},
		mop.Attr{Name: "size", Type: mop.Int},
		mop.Attr{Name: "at", Type: mop.Time},
		mop.Attr{Name: "venue", Type: mop.String},
		mop.Attr{Name: "depth", Type: mop.Bytes})
	orderClass = class("Order",
		mop.Attr{Name: "account", Type: mop.String},
		mop.Attr{Name: "symbol", Type: mop.String},
		mop.Attr{Name: "side", Type: mop.String},
		mop.Attr{Name: "qty", Type: mop.Int},
		mop.Attr{Name: "limit", Type: mop.Float},
		mop.Attr{Name: "at", Type: mop.Time},
		mop.Attr{Name: "note", Type: mop.Bytes})
)

// spec is one workload: its topology, its load and the generators of its
// inputs. Every field is a constant of the benchmark.
type spec struct {
	name string

	publishers int  // generator goroutines, each its own Bus on the publisher host
	consHosts  int  // consumer hosts
	pacedRate  int  // msgs/s over all publishers, paced phase
	compact    bool // publisher host uses the compact wire format
	guaranteed bool // PublishGuaranteed through a ledger
	routed     bool // publisher and consumer on different segments, one router
	telemetry  bool // tracing 0.1, _sys.stats 1 s, health and history tiers
	churn      bool // one client subscribes and cancels while messages flow

	pool       int // distinct objects per publisher, cycled
	cycle      int // length of the subject schedule, cycled
	replayMsgs int // messages the layer replay pushes through each layer

	subjects func(r *rand.Rand) []string
	// apps returns, per application on one consumer host, its subscription
	// patterns. Every consumer host runs the same applications.
	apps   func(r *rand.Rand, subjects []string) [][]string
	object func(r *rand.Rand, pub int) *mop.Object
}

func letters(r *rand.Rand, n int, alphabet string) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

const (
	upper = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	lower = "abcdefghijklmnopqrstuvwxyz"
)

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// distinct draws n different strings from gen.
func distinct(n int, gen func() string) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		s := gen()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Every string, byte field and integer below has a fixed encoded length, so
// wire_bytes_per_msg does not depend on the seed.
func stamp(r *rand.Rand) time.Time {
	return time.Unix(1_700_000_000, int64(r.Intn(1e9))).UTC()
}

func newObject(t *mop.Type, pub int, content ...mop.Value) *mop.Object {
	o := mop.MustNew(t)
	vals := append([]mop.Value{int64(pub), int64(0), int64(0)}, content...)
	for i, v := range vals {
		if err := o.SetAt(i, v); err != nil {
			panic(err)
		}
	}
	if err := o.SetAt(slotSum, int64(contentSum(o))); err != nil {
		panic(err)
	}
	return o
}

func tickObject(r *rand.Rand, pub int) *mop.Object {
	return newObject(tickClass, pub, letters(r, 4, upper), 10+r.Float64()*990, int64(100+r.Intn(8000)), stamp(r))
}

func quoteObject(r *rand.Rand, pub int) *mop.Object {
	bid := 10 + r.Float64()*990
	return newObject(quoteClass, pub, letters(r, 4, upper), bid, bid+r.Float64(), int64(100+r.Intn(8000)),
		stamp(r), letters(r, 4, upper), randBytes(r, 104))
}

func orderObject(r *rand.Rand, pub int) *mop.Object {
	side := "buy_"
	if r.Intn(2) == 0 {
		side = "sell"
	}
	return newObject(orderClass, pub, letters(r, 8, upper), letters(r, 4, upper), side, int64(100+r.Intn(8000)),
		10+r.Float64()*990, stamp(r), randBytes(r, 96))
}

func storyObject(r *rand.Rand, pub int) *mop.Object {
	src := mop.MustNew(sourceClass)
	src.MustSet("agency", letters(r, 8, upper)).MustSet("desk", letters(r, 6, lower)).MustSet("region", letters(r, 4, upper))
	kw := make(mop.List, 8)
	for i := range kw {
		kw[i] = letters(r, 8, lower)
	}
	body := []byte(letters(r, 8192, lower+"     "))
	return newObject(storyClass, pub, letters(r, 64, lower+" "), body, kw, src)
}

var exchanges = []string{"nyse", "nasd", "lse_", "tse_"}

var workloads = []*spec{
	{
		name: "tick_fanout",
		// per-message cost: small compact-format ticks fanned out to 8 subscribing
		// applications on 2 hosts; wire, busproto, reliable batching, daemon lanes
		// and fan-out, core dispatch do the work, per-byte cost none
		publishers: 1, consHosts: 2, pacedRate: 20000, compact: true,
		pool: 4096, cycle: 4096, replayMsgs: 20000,
		subjects: func(r *rand.Rand) []string {
			var out []string
			for _, ex := range exchanges {
				for _, sym := range distinct(16, func() string { return letters(r, 4, lower) }) {
					out = append(out, "tick."+ex+"."+sym)
				}
			}
			return out
		},
		apps: func(_ *rand.Rand, _ []string) [][]string {
			return [][]string{{"tick.>"}, {"tick.>"}, {"tick." + exchanges[0] + ".*"}, {"tick." + exchanges[1] + ".*"}}
		},
		object: tickObject,
	},
	{
		name: "story_bulk",
		// per-byte cost: 8 KB self-describing stories on one subject to one
		// consumer; marshal, window and transport copies dominate, so it is the
		// bypass workload for every per-message optimisation
		publishers: 1, consHosts: 1, pacedRate: 2000,
		pool: 128, cycle: 128, replayMsgs: 5000,
		subjects: func(*rand.Rand) []string { return []string{"news.wire.story"} },
		apps:     func(*rand.Rand, []string) [][]string { return [][]string{{"news.wire.story"}} },
		object:   storyObject,
	},
	{
		name: "subject_churn",
		// Figure 8's axis: 20000 subjects (above the 16384-entry match and intern
		// caches), 2020 subscriptions, and a client subscribing and cancelling at
		// 50/s; subject trie, caches and interest advertisement do the work
		publishers: 1, consHosts: 1, pacedRate: 5000, churn: true,
		pool: 4096, cycle: 1 << 16, replayMsgs: 20000,
		subjects: func(r *rand.Rand) []string {
			names := distinct(1000, func() string { return letters(r, 5, lower) })
			out := make([]string, 0, 20000)
			for g := 0; g < 20; g++ {
				for _, n := range names {
					out = append(out, fmt.Sprintf("churn.g%02d.%s", g, n))
				}
			}
			return out
		},
		apps: func(r *rand.Rand, subjects []string) [][]string {
			// 2000 literal subscriptions (100 per group), a wildcard over
			// every even group, and ten wildcards over one name in any
			// group: two fifths of the messages match nothing, a tenth
			// match a literal, half match a group wildcard.
			var pats []string
			for g := 0; g < 20; g++ {
				for _, i := range r.Perm(1000)[:100] {
					pats = append(pats, subjects[g*1000+i])
				}
				if g%2 == 0 {
					pats = append(pats, fmt.Sprintf("churn.g%02d.*", g))
				}
			}
			for _, i := range r.Perm(1000)[:10] {
				s := subject.MustParse(subjects[i])
				pats = append(pats, "churn.*."+s.Elements()[2])
			}
			return [][]string{pats}
		},
		object: quoteObject,
	},
	{
		name: "guaranteed_ledger",
		// guaranteed delivery: two publishers log 256 B orders to a ledger (fsync
		// off) before sending; ledger stage/commit/ack, the daemon ack path and
		// (origin,id) dedup dominate, no other workload touches them
		publishers: 2, consHosts: 1, pacedRate: 4000, guaranteed: true,
		pool: 4096, cycle: 4096, replayMsgs: 10000,
		subjects: func(r *rand.Rand) []string {
			var out []string
			for _, d := range distinct(8, func() string { return letters(r, 4, lower) }) {
				out = append(out, "order.desk."+d)
			}
			return out
		},
		apps:   func(*rand.Rand, []string) [][]string { return [][]string{{"order.>"}} },
		object: orderObject,
	},
	{
		name: "routed_mixed",
		// router and telemetry: 256 B quotes cross one router, every 10th traced so
		// it leaves the router fast path, with _sys.stats, health and history on as
		// an operator runs them; single-segment workloads bypass both
		publishers: 1, consHosts: 1, pacedRate: 10000, routed: true, telemetry: true,
		pool: 4096, cycle: 4096, replayMsgs: 20000,
		subjects: func(r *rand.Rand) []string {
			var out []string
			for _, sym := range distinct(64, func() string { return letters(r, 4, lower) }) {
				out = append(out, "quote.fx."+sym)
			}
			return out
		},
		apps:   func(*rand.Rand, []string) [][]string { return [][]string{{"quote.>"}} },
		object: quoteObject,
	},
}

func workloadByName(name string) *spec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// subscription is one Subscribe call of one application on one consumer
// host, with the subjects it must receive.
type subscription struct {
	host, app int
	pattern   string
	want      []bool // by subject index
	wantList  []int  // the indices where want is true
}

// inputs is everything a run feeds the program under test, made from the
// seed before any timing starts.
type inputs struct {
	w        *spec
	subjects []string
	cycle    []uint32        // subject index of sequence n is cycle[n%len] once past the probes
	probes   []uint32        // subject index of sequence n < len(probes): one subject per subscription
	pool     [][]*mop.Object // [publisher][slot]; sequence n carries pool[p][n%len]
	sums     [][]uint32      // content checksum of each pool object
	subs     []subscription
	churn    []string // patterns the churning client subscribes and cancels, cycled
	hash     string
}

func (in *inputs) subjectOf(n int64) uint32 {
	if n < int64(len(in.probes)) {
		return in.probes[n]
	}
	return in.cycle[n%int64(len(in.cycle))]
}

func (in *inputs) object(pub int, n int64) *mop.Object {
	return in.pool[pub][n%int64(len(in.pool[pub]))]
}

func seedFor(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// generate builds a workload's inputs. The same seed gives the same inputs,
// byte for byte; in.hash covers all of them.
func generate(w *spec, seed int64) *inputs {
	r := rand.New(rand.NewSource(seedFor(seed, w.name)))
	in := &inputs{w: w, subjects: w.subjects(r)}

	// The schedule visits the subjects in shuffled rounds, so every subject
	// carries the same share of the load whatever the seed; only
	// subject_churn, whose point is a working set larger than the caches,
	// draws uniformly.
	in.cycle = make([]uint32, w.cycle)
	if w.churn {
		for i := range in.cycle {
			in.cycle[i] = uint32(r.Intn(len(in.subjects)))
		}
	} else {
		for i := 0; i < len(in.cycle); {
			for _, s := range r.Perm(len(in.subjects)) {
				if i == len(in.cycle) {
					break
				}
				in.cycle[i] = uint32(s)
				i++
			}
		}
	}

	parsed := make([]subject.Subject, len(in.subjects))
	index := make(map[string]int, len(in.subjects))
	for i, s := range in.subjects {
		parsed[i] = subject.MustParse(s)
		index[s] = i
	}
	apps := w.apps(r, in.subjects)
	for h := 0; h < w.consHosts; h++ {
		for a, pats := range apps {
			for _, p := range pats {
				pat := subject.MustParsePattern(p)
				sub := subscription{host: h, app: a, pattern: p, want: make([]bool, len(in.subjects))}
				if i, ok := index[p]; ok && pat.IsLiteral() {
					sub.want[i] = true
					sub.wantList = []int{i}
				} else {
					for i, s := range parsed {
						if pat.Matches(s) {
							sub.want[i] = true
							sub.wantList = append(sub.wantList, i)
						}
					}
				}
				if len(sub.wantList) == 0 {
					panic("benchmark: subscription " + p + " matches no subject")
				}
				in.subs = append(in.subs, sub)
			}
		}
	}
	// One probe per subscription of the first consumer host (the others run
	// the same applications): set-up ends when every subscription has
	// verified a delivery.
	for _, sub := range in.subs {
		if sub.host == 0 {
			in.probes = append(in.probes, uint32(sub.wantList[r.Intn(len(sub.wantList))]))
		}
	}

	if w.churn {
		// Literal subjects nobody else subscribes to, so the churn changes
		// the subscription set but not the expected deliveries.
		taken := make(map[string]bool)
		for _, sub := range in.subs {
			taken[sub.pattern] = true
		}
		for _, i := range r.Perm(len(in.subjects)) {
			if !taken[in.subjects[i]] {
				in.churn = append(in.churn, in.subjects[i])
			}
			if len(in.churn) == 4096 {
				break
			}
		}
	}

	in.pool = make([][]*mop.Object, w.publishers)
	in.sums = make([][]uint32, w.publishers)
	for p := range in.pool {
		in.pool[p] = make([]*mop.Object, w.pool)
		in.sums[p] = make([]uint32, w.pool)
		for i := range in.pool[p] {
			o := w.object(r, p)
			in.pool[p][i] = o
			in.sums[p][i] = uint32(o.GetAt(slotSum).(int64))
		}
	}
	in.hash = in.digest()
	return in
}

func (in *inputs) digest() string {
	h := sha256.New()
	word := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	for _, s := range in.subjects {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, c := range in.cycle {
		word(c)
	}
	for _, p := range in.probes {
		word(p)
	}
	for _, s := range in.subs {
		fmt.Fprintf(h, "%d/%d/%s\n", s.host, s.app, s.pattern)
	}
	for _, c := range in.churn {
		h.Write([]byte(c))
		h.Write([]byte{0})
	}
	for _, pool := range in.pool {
		for _, o := range pool {
			b, err := wire.Marshal(o)
			if err != nil {
				panic(err)
			}
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// contentSum is the payload checksum every object carries in its "sum"
// slot: a hash of the slots after the header. The top bit is set so the
// value always encodes in five bytes.
func contentSum(o *mop.Object) uint32 {
	h := uint64(14695981039346656037)
	for i := slotContent; i < o.Type().NumAttrs(); i++ {
		h = sumValue(h, o.GetAt(i))
	}
	return uint32(h>>32^h) | 1<<31
}

func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

func sumValue(h uint64, v mop.Value) uint64 {
	switch x := v.(type) {
	case int64:
		return mix(h, uint64(x))
	case float64:
		return mix(h, math.Float64bits(x))
	case string:
		for i := 0; i < len(x); i++ {
			h = mix(h, uint64(x[i]))
		}
		return mix(h, uint64(len(x)))
	case []byte:
		return mix(h, uint64(crc32.Checksum(x, castagnoli))<<32|uint64(len(x)))
	case time.Time:
		return mix(h, uint64(x.UnixNano()))
	case mop.List:
		for _, e := range x {
			h = sumValue(h, e)
		}
		return mix(h, uint64(len(x)))
	case *mop.Object:
		if x == nil {
			return mix(h, 0)
		}
		for i := 0; i < x.Type().NumAttrs(); i++ {
			h = sumValue(h, x.GetAt(i))
		}
		return h
	default:
		return mix(h, 1)
	}
}
