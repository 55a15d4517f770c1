package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"infobus/internal/mop"
)

// marshalLegacy is the reference encoding used to compare decoded values:
// the self-contained v1 format is deterministic, so two values are equal
// iff their legacy encodings are byte-identical.
func marshalLegacy(t *testing.T, v mop.Value) []byte {
	t.Helper()
	data, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFingerprintContentAddressed(t *testing.T) {
	_, dj1, _ := newsTypes(t)
	_, dj2, _ := newsTypes(t) // same structure, distinct *mop.Type values
	if dj1 == dj2 {
		t.Fatal("helper returned identical pointers")
	}
	if Fingerprint(dj1) == 0 {
		t.Fatal("class fingerprint must be non-zero")
	}
	if Fingerprint(dj1) != Fingerprint(dj2) {
		t.Fatal("same structure must fingerprint identically")
	}
	// A structural change — one extra attribute — must change the print.
	other := mop.MustNewClass("DowJonesStory", nil, []mop.Attr{
		{Name: "djCode", Type: mop.String},
		{Name: "desk", Type: mop.String},
	}, nil)
	if Fingerprint(other) == Fingerprint(dj1) {
		t.Fatal("different structure must fingerprint differently")
	}
	if Fingerprint(nil) != 0 || Fingerprint(mop.Int) != 0 {
		t.Fatal("nil and non-class types must fingerprint to zero")
	}
}

func TestCompactRoundTrip(t *testing.T) {
	_, dj, group := newsTypes(t)
	obj := sampleStory(t, dj, group)
	want := marshalLegacy(t, obj)

	dict := NewSendDict(0)
	cache := NewTypeCache(0)
	reg := mop.NewRegistry()

	// First message carries the full class closure inline.
	first, err := dict.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !IsCompact(first) {
		t.Fatal("SendDict output must carry the compact header")
	}
	if !CompactCarriesDefs(first) {
		t.Fatal("first message must carry inline definitions")
	}
	v, err := UnmarshalWith(first, reg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalLegacy(t, v), want) {
		t.Fatal("first compact message decoded to a different value")
	}
	if cache.Len() == 0 {
		t.Fatal("decoding a defs-carrying message must warm the cache")
	}

	// Steady state: fingerprints only, decoded through the cache.
	steady, err := dict.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	if CompactCarriesDefs(steady) {
		t.Fatal("second message must be reference-only")
	}
	v, err = UnmarshalWith(steady, reg, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalLegacy(t, v), want) {
		t.Fatal("steady-state compact message decoded to a different value")
	}
}

// TestCompactDefReferencingCachedClass covers the mixed table: a class
// first broadcast later appears as a *reference* while a new class whose
// definition mentions it by name arrives as a *def*. The resolver must
// bind that name to the fingerprint-cached descriptor.
func TestCompactDefReferencingCachedClass(t *testing.T) {
	_, dj, group := newsTypes(t)
	dict := NewSendDict(0)
	cache := NewTypeCache(0)
	reg := mop.NewRegistry()

	g := mop.MustNew(group).MustSet("code", "AUTO").MustSet("weight", 0.5)
	first, err := dict.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalWith(first, reg, cache); err != nil {
		t.Fatal(err)
	}

	// Story/DowJonesStory defs reference IndustryGroup, which now rides as
	// a bare fingerprint.
	second, err := dict.Marshal(sampleStory(t, dj, group))
	if err != nil {
		t.Fatal(err)
	}
	if !CompactCarriesDefs(second) {
		t.Fatal("new classes must be sent as defs")
	}
	if _, err := UnmarshalWith(second, reg, cache); err != nil {
		t.Fatalf("def referencing a cached class failed to resolve: %v", err)
	}
}

func TestCompactMissingFingerprintsAndRecovery(t *testing.T) {
	_, dj, group := newsTypes(t)
	obj := sampleStory(t, dj, group)
	dict := NewSendDict(0)
	if _, err := dict.Marshal(obj); err != nil { // defs consumed by nobody
		t.Fatal(err)
	}
	steady, err := dict.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewTypeCache(0)
	reg := mop.NewRegistry()
	_, err = UnmarshalWith(steady, reg, cache)
	var missing *MissingFingerprintsError
	if !errors.As(err, &missing) {
		t.Fatalf("cold-cache decode: got %v, want MissingFingerprintsError", err)
	}
	if len(missing.FPs) == 0 {
		t.Fatal("error must list the unresolved fingerprints")
	}

	// The origin answers a NAK with MarshalDefs; harvesting the reply makes
	// the stashed message decodable.
	var held []*mop.Type
	for _, fp := range missing.FPs {
		typ, ok := dict.LookupFP(fp)
		if !ok {
			t.Fatalf("origin dictionary does not hold fp %#x", fp)
		}
		held = append(held, typ)
	}
	reply, err := MarshalDefs(held)
	if err != nil {
		t.Fatal(err)
	}
	if !CompactCarriesDefs(reply) {
		t.Fatal("MarshalDefs reply must carry definitions")
	}
	if err := HarvestDefs(reply, reg, cache); err != nil {
		t.Fatal(err)
	}
	v, err := UnmarshalWith(steady, reg, cache)
	if err != nil {
		t.Fatalf("decode after harvest: %v", err)
	}
	if !bytes.Equal(marshalLegacy(t, v), marshalLegacy(t, obj)) {
		t.Fatal("recovered decode produced a different value")
	}
}

func TestHarvestDefsIgnoresNonCompact(t *testing.T) {
	_, dj, group := newsTypes(t)
	legacy := marshalLegacy(t, sampleStory(t, dj, group))
	cache := NewTypeCache(0)
	if err := HarvestDefs(legacy, mop.NewRegistry(), cache); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatal("legacy messages must not install cache entries")
	}
}

// TestCompactRedefinitionNeverStale is the acceptance test for the TDL
// invalidation rule: after a publisher redefines a class (same name, new
// structure), no receiver may decode against the old descriptor. The new
// structure has a new fingerprint, so the redefined class arrives as an
// inline def; a host whose registry holds the old class must surface
// ErrTypeConflict rather than silently using either layout.
func TestCompactRedefinitionNeverStale(t *testing.T) {
	old := mop.MustNewClass("Reading", nil, []mop.Attr{
		{Name: "value", Type: mop.Float},
	}, nil)
	redefined := mop.MustNewClass("Reading", nil, []mop.Attr{
		{Name: "value", Type: mop.Float},
		{Name: "unit", Type: mop.String},
	}, nil)
	if Fingerprint(old) == Fingerprint(redefined) {
		t.Fatal("redefinition must change the fingerprint")
	}

	reg := mop.NewRegistry()
	cache := NewTypeCache(0)
	// The receiver learned the old class from an earlier publisher.
	oldDict := NewSendDict(0)
	firstGen, err := oldDict.Marshal(mop.MustNew(old).MustSet("value", 1.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalWith(firstGen, reg, cache); err != nil {
		t.Fatal(err)
	}

	// A publisher restart redefines the class and broadcasts under the new
	// structure.
	newDict := NewSendDict(0)
	obj := mop.MustNew(redefined).MustSet("value", 2.5).MustSet("unit", "mm")
	secondGen, err := newDict.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalWith(secondGen, reg, cache); !errors.Is(err, ErrTypeConflict) {
		t.Fatalf("redefined class against stale registry: got %v, want ErrTypeConflict", err)
	}

	// A fresh host (no stale registration) decodes the new generation
	// correctly — the fingerprint cache cannot serve the old layout because
	// the fingerprint differs.
	freshReg, freshCache := mop.NewRegistry(), NewTypeCache(0)
	v, err := UnmarshalWith(secondGen, freshReg, freshCache)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := v.(*mop.Object)
	if !ok {
		t.Fatalf("decoded %T, want *mop.Object", v)
	}
	if u, err := got.Get("unit"); err != nil || u != "mm" {
		t.Fatalf("new-generation decode lost data: unit=%v err=%v", u, err)
	}
}

func TestSendDictResendEvery(t *testing.T) {
	_, dj, group := newsTypes(t)
	obj := sampleStory(t, dj, group)
	dict := NewSendDict(3)
	carries := make([]bool, 0, 5)
	for i := 0; i < 5; i++ {
		data, err := dict.Marshal(obj)
		if err != nil {
			t.Fatal(err)
		}
		carries = append(carries, CompactCarriesDefs(data))
	}
	want := []bool{true, false, false, true, false}
	for i := range want {
		if carries[i] != want[i] {
			t.Fatalf("message %d: carriesDefs=%v, want %v (inline fallback every 3)", i+1, carries[i], want[i])
		}
	}
}

func TestTypeCacheBounds(t *testing.T) {
	var nilCache *TypeCache
	if _, ok := nilCache.Lookup(1); ok {
		t.Fatal("nil cache must miss")
	}
	nilCache.Install(1, mop.MustNewClass("X", nil, nil, nil)) // must not panic
	if nilCache.Len() != 0 {
		t.Fatal("nil cache must stay empty")
	}

	c := NewTypeCache(1)
	a := mop.MustNewClass("A", nil, nil, nil)
	b := mop.MustNewClass("B", nil, nil, nil)
	c.Install(1, a)
	c.Install(2, b) // full: skipped
	c.Install(1, b) // present: the first class installed under a fingerprint stays
	if c.Len() != 1 {
		t.Fatalf("cache size %d, want 1 (skip-on-full)", c.Len())
	}
	if got, _ := c.Lookup(1); got != a {
		t.Fatal("a cached fingerprint must keep the class it was installed with")
	}
	if _, ok := c.Lookup(2); ok {
		t.Fatal("overflowing install must be skipped")
	}
}

// TestCompactGoldenBytes pins the steady-state wire size of a small
// (≈64-byte payload) publication — the acceptance gate for the dictionary
// format (scripts/check.sh runs this test by name). The encodings are
// deterministic, so any drift in these numbers is a deliberate format
// change and must be re-pinned together with EXPERIMENTS.md table A9.
func TestCompactGoldenBytes(t *testing.T) {
	tick := mop.MustNewClass("EquityTick", nil, []mop.Attr{
		{Name: "symbol", Type: mop.String},
		{Name: "exchange", Type: mop.String},
		{Name: "price", Type: mop.Float},
		{Name: "size", Type: mop.Int},
		{Name: "at", Type: mop.Time},
	}, nil)
	obj := mop.MustNew(tick).
		MustSet("symbol", "GM").
		MustSet("exchange", "NYSE").
		MustSet("price", 42.125).
		MustSet("size", int64(1200)).
		MustSet("at", time.Unix(749571200, 0).UTC())

	legacy := marshalLegacy(t, obj)
	dict := NewSendDict(0)
	if _, err := dict.Marshal(obj); err != nil {
		t.Fatal(err)
	}
	steady, err := dict.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	const wantLegacy, wantSteady = 97, 47
	if len(legacy) != wantLegacy {
		t.Fatalf("legacy encoding is %d bytes, pinned at %d", len(legacy), wantLegacy)
	}
	if len(steady) != wantSteady {
		t.Fatalf("steady-state compact encoding is %d bytes, pinned at %d", len(steady), wantSteady)
	}
	if r := 1 - float64(len(steady))/float64(len(legacy)); r < 0.40 {
		t.Fatalf("steady-state reduction %.1f%%, acceptance floor is 40%%", 100*r)
	}
}

// TestSendDictSteadyStateAllocs holds the send-side budget: once a class
// closure has been broadcast, re-encoding into a reused buffer must not
// allocate (the scratch collector, class-index map, and fingerprint memo
// are all reused).
func TestSendDictSteadyStateAllocs(t *testing.T) {
	_, dj, group := newsTypes(t)
	obj := sampleStory(t, dj, group)
	dict := NewSendDict(1 << 30) // no inline fallback during the run
	first, err := dict.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(first))
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := dict.AppendMarshal(buf[:0], obj); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state AppendMarshal allocates %.1f times/op, want 0", allocs)
	}
}

func TestRequestedFPsRoundTrip(t *testing.T) {
	fps := []uint64{3, 0xdeadbeefcafef00d, 1 << 63}
	data, err := Marshal(FPsValue(fps))
	if err != nil {
		t.Fatal(err)
	}
	v, err := Unmarshal(data, mop.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	got := RequestedFPs(v)
	if len(got) != len(fps) {
		t.Fatalf("round-tripped %d fingerprints, want %d", len(got), len(fps))
	}
	for i := range fps {
		if got[i] != fps[i] {
			t.Fatalf("fp %d: %#x, want %#x", i, got[i], fps[i])
		}
	}
	if RequestedFPs("bogus") != nil {
		t.Fatal("non-list payload must yield no fingerprints")
	}
}
