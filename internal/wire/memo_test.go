package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"infobus/internal/mop"
)

// tickType and quoteType have the shapes of the benchmark's compact Tick and
// self-describing Quote: three integer header slots, then the content.
func tickType() *mop.Type {
	return mop.MustNewClass("Tick", nil, []mop.Attr{
		{Name: "pub", Type: mop.Int},
		{Name: "seq", Type: mop.Int},
		{Name: "sum", Type: mop.Int},
		{Name: "symbol", Type: mop.String},
		{Name: "price", Type: mop.Float},
		{Name: "size", Type: mop.Int},
		{Name: "at", Type: mop.Time},
	}, nil)
}

func quoteType() *mop.Type {
	return mop.MustNewClass("Quote", nil, []mop.Attr{
		{Name: "pub", Type: mop.Int},
		{Name: "seq", Type: mop.Int},
		{Name: "sum", Type: mop.Int},
		{Name: "symbol", Type: mop.String},
		{Name: "bid", Type: mop.Float},
		{Name: "ask", Type: mop.Float},
		{Name: "size", Type: mop.Int},
		{Name: "at", Type: mop.Time},
		{Name: "venue", Type: mop.String},
		{Name: "depth", Type: mop.Bytes},
	}, nil)
}

func sampleTick(tick *mop.Type) *mop.Object {
	return mop.MustNew(tick).
		MustSet("pub", int64(1)).
		MustSet("seq", int64(4711)).
		MustSet("sum", int64(3735928559)).
		MustSet("symbol", "GM").
		MustSet("price", 42.125).
		MustSet("size", int64(1200)).
		MustSet("at", time.Unix(749571200, 500).UTC())
}

func sampleQuote(quote *mop.Type) *mop.Object {
	return mop.MustNew(quote).
		MustSet("pub", int64(1)).
		MustSet("seq", int64(4711)).
		MustSet("sum", int64(3735928559)).
		MustSet("symbol", "GM").
		MustSet("bid", 42.125).
		MustSet("ask", 42.25).
		MustSet("size", int64(1200)).
		MustSet("at", time.Unix(749571200, 500).UTC()).
		MustSet("venue", "NYSE").
		MustSet("depth", []byte{0, 1, 2, 3, 0xfe, 0xff})
}

// TestLegacyGoldenBytes pins the self-describing encoding of one Quote-shaped
// message, byte for byte, as captured at commit 3ea2519 (before the encoder
// pooled its collector and the publish path encoded into scratch).
func TestLegacyGoldenBytes(t *testing.T) {
	const want = "494201010551756f7465000a037075620203736571020373756d020673796d626f6c04036269" +
		"64030361736b030473697a6502026174060576656e7565040564657074680500080551756f74" +
		"65020202ce4902defbedea1b0402474d03404510000000000003404520000000000002e01206" +
		"e887e8dd9ec281e71404044e595345050600010203feff"
	obj := sampleQuote(quoteType())
	got := marshalLegacy(t, obj)
	if hex.EncodeToString(got) != want {
		t.Fatalf("self-describing encoding changed:\n got %x\nwant %s", got, want)
	}
	again, err := AppendMarshal(make([]byte, 0, 512), obj) // a pooled collector, a caller's buffer
	if err != nil || !bytes.Equal(again, got) {
		t.Fatalf("AppendMarshal into scratch differs from Marshal (err %v)", err)
	}
}

// nilValued returns msg's table section followed by a nil value: what
// decoding the table alone costs.
func nilValued(t testing.TB, msg []byte) []byte {
	t.Helper()
	var end int
	var ok bool
	if IsCompact(msg) {
		end, ok = skipRefTable(msg, 3)
	} else {
		end, ok = skipTypeTable(msg, 3)
	}
	if !ok {
		t.Fatal("message has no walkable table section")
	}
	return append(append([]byte(nil), msg[:end]...), tagNil)
}

// TestUnmarshalSteadyStateAllocs holds the receive-side budget (scripts/
// check.sh runs it by name): once a host has resolved a class table, a
// message carrying the same table allocates only what the decode returns —
// the object, its slots, and one box per scalar that does not fit an
// interface word — and nothing at all for the table.
func TestUnmarshalSteadyStateAllocs(t *testing.T) {
	tick, quote := tickType(), quoteType()
	dict := NewSendDict(1 << 30) // no inline fallback during the run
	first, err := dict.Marshal(sampleTick(tick))
	if err != nil {
		t.Fatal(err)
	}
	steady, err := dict.Marshal(sampleTick(tick))
	if err != nil {
		t.Fatal(err)
	}
	legacy := marshalLegacy(t, sampleQuote(quote))

	for _, tc := range []struct {
		name   string
		warmup []byte
		msg    []byte
		budget float64
	}{
		{"compact Tick", first, steady, 10},
		{"self-describing Quote", legacy, legacy, 18},
	} {
		reg, cache := mop.NewRegistry(), NewTypeCache(0)
		for _, m := range [][]byte{tc.warmup, tc.msg} {
			if _, err := UnmarshalWith(m, reg, cache); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := UnmarshalWith(tc.msg, reg, cache); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.budget {
			t.Errorf("%s: warm decode allocates %.1f times/op, budget %.0f", tc.name, got, tc.budget)
		}
		table := nilValued(t, tc.msg)
		got = testing.AllocsPerRun(200, func() {
			if v, err := UnmarshalWith(table, reg, cache); err != nil || v != nil {
				t.Fatalf("table-only decode: %v, %v", v, err)
			}
		})
		if got != 0 {
			t.Errorf("%s: a memoised table costs %.1f allocs/op, want 0", tc.name, got)
		}
		t.Logf("%s: %d B", tc.name, len(tc.msg))
	}
}

// ---------------------------------------------------------------------------
// Transparency: a memoised decode is indistinguishable from a cold one.

// memolessCache returns a cache whose table memo has no room — every table
// is resolved per message, as at the commits before the memo — while its
// fingerprint map works normally: the reference a memoising cache is
// compared against.
func memolessCache() *TypeCache {
	c := NewTypeCache(0)
	c.tableBytes = c.max * memoBytesPerEntry
	return c
}

func classNames(reg *mop.Registry) []string {
	var names []string
	for _, c := range reg.Classes() {
		names = append(names, c.Name())
	}
	return names // Classes sorts by name
}

// sameOutcome reports how two decodes of one message differ: the value
// (compared by its deterministic self-describing encoding, since two
// registries hold distinct descriptors of one class) or the error.
func sameOutcome(av mop.Value, aerr error, bv mop.Value, berr error) string {
	if (aerr == nil) != (berr == nil) {
		return "one failed: " + errString(aerr) + " vs " + errString(berr)
	}
	if aerr != nil {
		if aerr.Error() != berr.Error() {
			return "errors differ: " + aerr.Error() + " vs " + berr.Error()
		}
		var am, bm *MissingFingerprintsError
		if errors.As(aerr, &am) != errors.As(berr, &bm) {
			return "only one reports missing fingerprints"
		}
		if am != nil && !slices.Equal(am.FPs, bm.FPs) {
			return "missing fingerprints differ"
		}
		return ""
	}
	ab, err := Marshal(av)
	if err != nil {
		return "reference value does not re-encode: " + err.Error()
	}
	bb, err := Marshal(bv)
	if err != nil {
		return "value does not re-encode: " + err.Error()
	}
	if !bytes.Equal(ab, bb) {
		return "values differ"
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkMemoTransparent decodes seq, message by message, through a memoless
// cache and through a memoising one, and requires the same value or error,
// the same classes registered and the same fingerprints cached after every
// message. Each cache serves two registries prepared by setup — a host's
// own, and a second one sharing the cache, which an entry resolved against
// the first must never serve. It returns the memoising side (first
// registry) for further inspection.
func checkMemoTransparent(t testing.TB, setup func(*mop.Registry), seq ...[]byte) (*mop.Registry, *TypeCache) {
	t.Helper()
	var refRegs, gotRegs [2]*mop.Registry
	for i := range refRegs {
		refRegs[i], gotRegs[i] = mop.NewRegistry(), mop.NewRegistry()
		if setup != nil {
			setup(refRegs[i])
			setup(gotRegs[i])
		}
	}
	ref, got := memolessCache(), NewTypeCache(0)
	for i, m := range seq {
		for k := range refRegs {
			rv, rerr := UnmarshalWith(m, refRegs[k], ref)
			gv, gerr := UnmarshalWith(m, gotRegs[k], got)
			if diff := sameOutcome(rv, rerr, gv, gerr); diff != "" {
				t.Fatalf("message %d, registry %d: memoised decode differs from cold: %s", i, k, diff)
			}
			if r, g := classNames(refRegs[k]), classNames(gotRegs[k]); !slices.Equal(r, g) {
				t.Fatalf("message %d, registry %d: classes registered: cold %v, memoised %v", i, k, r, g)
			}
			// (Compact references resolve through the fingerprint map,
			// which registries sharing a cache have always shared.)
			if o, ok := gv.(*mop.Object); ok && o != nil && !IsCompact(m) {
				if local, err := gotRegs[k].Lookup(o.Type().Name()); err != nil || local != o.Type() {
					t.Fatalf("message %d, registry %d: value bound to a class of another registry", i, k)
				}
			}
		}
		if ref.Len() != got.Len() {
			t.Fatalf("message %d: fingerprints cached: cold %d, memoised %d", i, ref.Len(), got.Len())
		}
	}
	if len(ref.tables) != 0 {
		t.Fatal("the reference cache memoised a table")
	}
	return gotRegs[0], got
}

// holderTypes is the lazy-resolution case: Holder's table section always
// carries Inner (a declared attribute type), but only a value with the slot
// set instantiates it.
func holderTypes() (holder, inner *mop.Type) {
	inner = mop.MustNewClass("Inner", nil, []mop.Attr{{Name: "n", Type: mop.Int}}, nil)
	holder = mop.MustNewClass("Holder", nil, []mop.Attr{
		{Name: "id", Type: mop.Int},
		{Name: "inner", Type: inner},
	}, nil)
	return holder, inner
}

func holderMessages(t testing.TB) (empty, full []byte) {
	t.Helper()
	holder, inner := holderTypes()
	var err error
	if empty, err = Marshal(mop.MustNew(holder).MustSet("id", int64(1))); err != nil {
		t.Fatal(err)
	}
	full, err = Marshal(mop.MustNew(holder).MustSet("id", int64(2)).
		MustSet("inner", mop.MustNew(inner).MustSet("n", int64(7))))
	if err != nil {
		t.Fatal(err)
	}
	return empty, full
}

func sectionOf(t testing.TB, msg []byte) string {
	t.Helper()
	table := nilValued(t, msg)
	return string(table[2 : len(table)-1])
}

// TestMemoLazyResolutionGrowth: an entry published by a message that left a
// nested class uninstantiated is grown — by a copy — when a later message
// instantiates it.
func TestMemoLazyResolutionGrowth(t *testing.T) {
	empty, full := holderMessages(t)
	if sectionOf(t, empty) != sectionOf(t, full) {
		t.Fatal("both messages must carry the same table section")
	}
	// The host knows Holder and Inner already, so decoding the first message
	// binds Holder alone: Inner is carried, not instantiated, not resolved.
	setup := func(reg *mop.Registry) {
		holder, _ := holderTypes()
		if err := reg.Register(holder); err != nil {
			t.Fatal(err)
		}
	}
	_, cache := checkMemoTransparent(t, setup, empty)
	first := cache.tables[sectionOf(t, empty)]
	if first == nil || len(first.names) != 1 {
		t.Fatalf("entry after the first message: %+v, want Holder bound alone", first)
	}
	_, cache = checkMemoTransparent(t, setup, empty, full, empty, full)
	if e := cache.tables[sectionOf(t, empty)]; e == nil || len(e.names) != 2 {
		t.Fatalf("entry after the instantiating message: %+v, want Holder and Inner", e)
	}
	if len(first.names) != 1 {
		t.Fatal("a published entry was mutated")
	}
}

// TestMemoUninstantiatedConflictStillDecodes: lazy resolution is behaviour.
// A table may carry a class that conflicts with the local registry; as long
// as no value instantiates it the message decodes, cold and warm, and the
// message that does instantiate it fails both ways, every time.
func TestMemoUninstantiatedConflictStillDecodes(t *testing.T) {
	empty, full := holderMessages(t)
	setup := func(reg *mop.Registry) {
		// Same Holder layout, but the local Inner has another attribute type.
		inner := mop.MustNewClass("Inner", nil, []mop.Attr{{Name: "n", Type: mop.String}}, nil)
		holder := mop.MustNewClass("Holder", nil, []mop.Attr{
			{Name: "id", Type: mop.Int},
			{Name: "inner", Type: inner},
		}, nil)
		if err := reg.Register(holder); err != nil {
			t.Fatal(err)
		}
	}
	reg, cache := checkMemoTransparent(t, setup, empty, full, empty, full, empty)
	if _, err := UnmarshalWith(empty, reg, cache); err != nil {
		t.Fatalf("uninstantiated conflicting class: %v, want a decode", err)
	}
	if _, err := UnmarshalWith(full, reg, cache); !errors.Is(err, ErrTypeConflict) {
		t.Fatalf("instantiated conflicting class: %v, want ErrTypeConflict", err)
	}
	if e := cache.tables[sectionOf(t, empty)]; e == nil || e.names["Inner"] != nil {
		t.Fatalf("the failed resolution was memoised: %+v", e)
	}
}

// TestMemoConflictNeverMemoised: a table whose instantiated class conflicts
// with a pre-registered one fails identically cold and warm and leaves no
// entry; a TDL-style redefinition (new structure, hence new bytes) misses
// while the old entry keeps serving publishers of the old version.
func TestMemoConflictNeverMemoised(t *testing.T) {
	old := mop.MustNewClass("Reading", nil, []mop.Attr{{Name: "value", Type: mop.Float}}, nil)
	redefined := mop.MustNewClass("Reading", nil, []mop.Attr{
		{Name: "value", Type: mop.Float},
		{Name: "unit", Type: mop.String},
	}, nil)
	oldMsg := marshalLegacy(t, mop.MustNew(old).MustSet("value", 1.5))
	newMsg := marshalLegacy(t, mop.MustNew(redefined).MustSet("value", 2.5).MustSet("unit", "mm"))
	oldDict, newDict := NewSendDict(0), NewSendDict(0)
	var compact [][]byte
	for _, d := range []struct {
		dict *SendDict
		obj  *mop.Object
	}{{oldDict, mop.MustNew(old)}, {oldDict, mop.MustNew(old)}, {newDict, mop.MustNew(redefined)},
		{newDict, mop.MustNew(redefined)}, {oldDict, mop.MustNew(old)}} {
		m, err := d.dict.Marshal(d.obj)
		if err != nil {
			t.Fatal(err)
		}
		compact = append(compact, m)
	}

	reg, cache := checkMemoTransparent(t, nil, oldMsg, newMsg, oldMsg, newMsg, oldMsg)
	if _, err := UnmarshalWith(newMsg, reg, cache); !errors.Is(err, ErrTypeConflict) {
		t.Fatalf("redefined class: %v, want ErrTypeConflict", err)
	}
	if cache.tables[sectionOf(t, newMsg)] != nil {
		t.Fatal("a conflicting table was memoised")
	}
	if cache.tables[sectionOf(t, oldMsg)] == nil {
		t.Fatal("the old version's table is not memoised")
	}
	// Compact: the redefinition arrives as a def under a new fingerprint and
	// conflicts; its reference-only successor misses a fingerprint for ever.
	reg, cache = checkMemoTransparent(t, nil, compact...)
	if len(cache.tables) != 1 {
		t.Fatalf("%d compact tables memoised, want the old version's alone", len(cache.tables))
	}
	if _, err := UnmarshalWith(compact[4], reg, cache); err != nil {
		t.Fatalf("old-version publisher after the redefinition: %v", err)
	}
}

// TestMemoRegistryIdentity: an entry serves the registry it was resolved
// against and no other, so two registries sharing one cache each get classes
// registered and values bound to their own descriptors.
func TestMemoRegistryIdentity(t *testing.T) {
	msg := marshalLegacy(t, sampleQuote(quoteType()))
	cache := NewTypeCache(0)
	regA, regB := mop.NewRegistry(), mop.NewRegistry()
	for i := 0; i < 3; i++ {
		for _, reg := range []*mop.Registry{regA, regB, nil} {
			v, err := UnmarshalWith(msg, reg, cache)
			if err != nil {
				t.Fatal(err)
			}
			if reg == nil {
				continue
			}
			local, err := reg.Lookup("Quote")
			if err != nil {
				t.Fatalf("round %d: Quote not registered: %v", i, err)
			}
			if v.(*mop.Object).Type() != local {
				t.Fatalf("round %d: value bound to another registry's class", i)
			}
		}
	}
	if e := cache.tables[sectionOf(t, msg)]; e == nil || e.reg != regA {
		t.Fatal("the first registry to resolve a table keeps its entry")
	}
}

// TestMemoCompactDefsBetweenRefs: one message in ResendEvery carries its
// definitions again; it is parsed, and the reference-only ones around it
// keep hitting.
func TestMemoCompactDefsBetweenRefs(t *testing.T) {
	tick := tickType()
	dict := NewSendDict(3)
	var seq [][]byte
	defs := 0
	for i := 0; i < 9; i++ {
		m, err := dict.Marshal(sampleTick(tick))
		if err != nil {
			t.Fatal(err)
		}
		if CompactCarriesDefs(m) {
			defs++
		}
		seq = append(seq, m)
	}
	if defs != 3 {
		t.Fatalf("%d def-carrying messages in 9 at ResendEvery 3, want 3", defs)
	}
	var miss countingCounter
	reg, cache := mop.NewRegistry(), NewTypeCache(0)
	cache.CountMemo(&miss, nil)
	for _, m := range seq {
		if _, err := UnmarshalWith(m, reg, cache); err != nil {
			t.Fatal(err)
		}
	}
	if got := miss.n.Load(); got != 4 { // 3 with defs + the first reference-only one
		t.Fatalf("%d memo misses over 9 messages, want 4", got)
	}
	checkMemoTransparent(t, nil, seq...)
}

type countingCounter struct{ n atomic.Int64 }

func (c *countingCounter) Inc() { c.n.Add(1) }

// TestMemoBounds: the memo is bounded by entry count and by key bytes, skips
// on full, and keeps serving what it holds.
func TestMemoBounds(t *testing.T) {
	classMsg := func(name string, attrs int) []byte {
		as := make([]mop.Attr, attrs)
		for i := range as {
			as[i] = mop.Attr{Name: "attribute" + string(rune('a'+i%26)) + string(rune('a'+i/26)), Type: mop.Int}
		}
		return marshalLegacy(t, mop.MustNew(mop.MustNewClass(name, nil, as, nil)))
	}
	const size = 4
	var miss, full countingCounter
	reg, cache := mop.NewRegistry(), NewTypeCache(size)
	cache.CountMemo(&miss, &full)
	var msgs [][]byte
	for i := 0; i < size+2; i++ {
		msgs = append(msgs, classMsg("Class"+string(rune('A'+i)), 2))
	}
	for _, m := range msgs {
		if _, err := UnmarshalWith(m, reg, cache); err != nil {
			t.Fatal(err)
		}
	}
	if len(cache.tables) != size || full.n.Load() != 2 {
		t.Fatalf("%d tables memoised, %d refused; want %d and 2", len(cache.tables), full.n.Load(), size)
	}
	before := miss.n.Load()
	if _, err := UnmarshalWith(msgs[0], reg, cache); err != nil || miss.n.Load() != before {
		t.Fatalf("a known table after the memo filled: err %v, misses %d -> %d", err, before, miss.n.Load())
	}
	if _, err := UnmarshalWith(msgs[size], reg, cache); err != nil || miss.n.Load() != before+1 {
		t.Fatalf("a refused table must keep decoding cold: err %v, misses %d -> %d", err, before, miss.n.Load())
	}

	// One table larger than the whole byte budget is never stored; tables
	// that fit are, up to the budget.
	reg, cache = mop.NewRegistry(), NewTypeCache(size)
	budget := size * memoBytesPerEntry
	big := classMsg("Big", 120)
	if len(sectionOf(t, big)) <= budget {
		t.Fatalf("test table is %d B, must exceed the %d B budget", len(sectionOf(t, big)), budget)
	}
	for _, m := range [][]byte{big, classMsg("MidA", 35), classMsg("MidB", 35), classMsg("MidC", 35), big} {
		if _, err := UnmarshalWith(m, reg, cache); err != nil {
			t.Fatal(err)
		}
		if cache.tableBytes > budget {
			t.Fatalf("memo keys hold %d B, budget %d", cache.tableBytes, budget)
		}
	}
	if cache.tables[sectionOf(t, big)] != nil || len(cache.tables) != 2 {
		t.Fatalf("%d tables memoised under the byte budget, want the two that fit", len(cache.tables))
	}
	sum := 0
	for k := range cache.tables {
		sum += len(k)
	}
	if sum != cache.tableBytes {
		t.Fatalf("tableBytes %d, keys sum to %d", cache.tableBytes, sum)
	}
}

// TestMemoConcurrentDecode (run under -race): eight goroutines decode four
// interleaved tables through one cache, racing each other for every first
// resolution and every growth, while a ninth installs definitions.
func TestMemoConcurrentDecode(t *testing.T) {
	tick := tickType()
	dict := NewSendDict(1 << 30)
	tickDefs, err := dict.Marshal(sampleTick(tick))
	if err != nil {
		t.Fatal(err)
	}
	tickRefs, err := dict.Marshal(sampleTick(tick))
	if err != nil {
		t.Fatal(err)
	}
	empty, full := holderMessages(t)
	_, dj, group := newsTypes(t)
	msgs := [][]byte{
		tickRefs,
		marshalLegacy(t, sampleQuote(quoteType())),
		empty, full, // one table, grown by the second
		marshalLegacy(t, sampleStory(t, dj, group)),
	}
	want := make([][]byte, len(msgs))
	{
		reg, cache := mop.NewRegistry(), NewTypeCache(0)
		if _, err := UnmarshalWith(tickDefs, reg, cache); err != nil {
			t.Fatal(err)
		}
		for i, m := range msgs {
			v, err := UnmarshalWith(m, reg, cache)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = marshalLegacy(t, v)
		}
	}
	for round := 0; round < 20; round++ {
		reg, cache := mop.NewRegistry(), NewTypeCache(0)
		if _, err := UnmarshalWith(tickDefs, reg, cache); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := HarvestDefs(tickDefs, reg, cache); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		var decoders sync.WaitGroup
		for g := 0; g < 8; g++ {
			decoders.Add(1)
			go func(g int) {
				defer decoders.Done()
				for n := 0; n < 50; n++ {
					i := (g + n) % len(msgs)
					v, err := UnmarshalWith(msgs[i], reg, cache)
					if err != nil {
						t.Errorf("message %d: %v", i, err)
						return
					}
					got, err := Marshal(v)
					if err != nil || !bytes.Equal(got, want[i]) {
						t.Errorf("message %d decoded differently under contention (err %v)", i, err)
						return
					}
				}
			}(g)
		}
		decoders.Wait()
		close(stop)
		wg.Wait()
		if e := cache.tables[sectionOf(t, empty)]; e == nil || len(e.names) != 2 {
			t.Fatalf("round %d: Holder's entry after contention: %+v", round, e)
		}
	}
}
