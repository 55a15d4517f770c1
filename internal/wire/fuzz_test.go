package wire

import (
	"slices"
	"testing"

	"infobus/internal/mop"
)

// conflictedType is pre-registered in every registry the differential fuzzers
// decode into; conflictingMessage carries another class of that name, so its
// table fails to resolve — cold and memoised alike, every time.
func conflictedType() *mop.Type {
	return mop.MustNewClass("Conflicted", nil, []mop.Attr{{Name: "a", Type: mop.Int}}, nil)
}

func conflictingMessage(t testing.TB) []byte {
	t.Helper()
	other := mop.MustNewClass("Conflicted", nil, []mop.Attr{{Name: "a", Type: mop.String}}, nil)
	data, err := Marshal(mop.MustNew(other).MustSet("a", "x"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func registerConflicted(t testing.TB) func(*mop.Registry) {
	return func(reg *mop.Registry) {
		if err := reg.Register(conflictedType()); err != nil {
			t.Fatal(err)
		}
	}
}

// checkCacheOptional decodes data with no cache and with a fresh one: for a
// single message on a fresh host the cache must not matter.
func checkCacheOptional(t *testing.T, setup func(*mop.Registry), data []byte) {
	t.Helper()
	coldReg, freshReg := mop.NewRegistry(), mop.NewRegistry()
	setup(coldReg)
	setup(freshReg)
	cv, cerr := UnmarshalWith(data, coldReg, nil)
	fv, ferr := UnmarshalWith(data, freshReg, NewTypeCache(0))
	if diff := sameOutcome(cv, cerr, fv, ferr); diff != "" {
		t.Fatalf("nil cache vs fresh cache: %s", diff)
	}
	if c, f := classNames(coldReg), classNames(freshReg); !slices.Equal(c, f) {
		t.Fatalf("classes registered: nil cache %v, fresh cache %v", c, f)
	}
}

// FuzzUnmarshal: arbitrary bytes must never panic the decoder — or the
// allocation-free walk over the type table that precedes it —, anything that
// decodes must re-encode, and the table memo must be invisible: the input is
// decoded with no cache, with a fresh cache, and twice more through a cache
// that already holds the seed messages' tables (so an input sharing a seed's
// table section is decoded against an entry another message published), and
// every way must yield the same value or error and register the same classes
// as a decoder that resolves every table per message.
func FuzzUnmarshal(f *testing.F) {
	_, dj, group := newsTypes(f)
	seed, err := Marshal(sampleStory(f, dj, group))
	if err != nil {
		f.Fatal(err)
	}
	// The lazy-resolution growth case: one table, its nested class nil in the
	// first message and instantiated in the second.
	holderEmpty, holderFull := holderMessages(f)
	// A TDL-style redefinition: same class name, new structure, new bytes.
	reading := mop.MustNewClass("Reading", nil, []mop.Attr{{Name: "value", Type: mop.Float}}, nil)
	redefined := mop.MustNewClass("Reading", nil, []mop.Attr{
		{Name: "value", Type: mop.Float}, {Name: "unit", Type: mop.String}}, nil)
	oldGen, err := Marshal(mop.MustNew(reading))
	if err != nil {
		f.Fatal(err)
	}
	newGen, err := Marshal(mop.MustNew(redefined))
	if err != nil {
		f.Fatal(err)
	}
	primers := [][]byte{seed, holderEmpty, oldGen, conflictingMessage(f)}
	for _, p := range primers {
		f.Add(p)
	}
	f.Add(holderFull)
	f.Add(newGen)
	f.Add([]byte{Magic0, Magic1, Version, 0, 0})
	f.Add([]byte{})
	f.Add([]byte{Magic0, Magic1, Version, 0, tagList, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	setup := registerConflicted(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCacheOptional(t, setup, data)
		checkMemoTransparent(t, setup, append(primers[:len(primers):len(primers)], data, data)...)
		v, err := Unmarshal(data, mop.NewRegistry())
		if err != nil {
			return
		}
		if _, err := Marshal(v); err != nil {
			t.Fatalf("decoded value failed to re-encode: %v", err)
		}
	})
}

// FuzzUnmarshalCompact: the compact dictionary decoder must survive
// arbitrary bytes — including crafted def/ref counts (length caps) and
// class indices — with or without a warm TypeCache, anything that fully
// decodes must re-encode through a SendDict, and the table memo must be
// invisible (see FuzzUnmarshal; here the primed cache holds a def-carrying
// message between reference-only ones, as one in ResendEvery is).
func FuzzUnmarshalCompact(f *testing.F) {
	_, dj, group := newsTypes(f)
	story := sampleStory(f, dj, group)
	first, err := NewSendDict(0).Marshal(story) // all defs inline
	if err != nil {
		f.Fatal(err)
	}
	warm := NewSendDict(0)
	if _, err := warm.Marshal(story); err != nil {
		f.Fatal(err)
	}
	steady, err := warm.Marshal(story) // refs only
	if err != nil {
		f.Fatal(err)
	}
	defsOnly, err := MarshalDefs([]*mop.Type{dj})
	if err != nil {
		f.Fatal(err)
	}
	conflictDict := NewSendDict(0)
	other := mop.MustNewClass("Conflicted", nil, []mop.Attr{{Name: "a", Type: mop.String}}, nil)
	conflictDefs, err := conflictDict.Marshal(mop.MustNew(other))
	if err != nil {
		f.Fatal(err)
	}
	conflictRefs, err := conflictDict.Marshal(mop.MustNew(other))
	if err != nil {
		f.Fatal(err)
	}
	primers := [][]byte{steady, first, steady, first, steady, conflictDefs, conflictRefs}
	f.Add(first)
	f.Add(steady)
	f.Add(defsOnly)
	f.Add(conflictDefs)
	f.Add(conflictRefs)
	f.Add([]byte{Magic0, Magic1, VersionCompact, 0, 0, tagNil})
	// Huge def/ref counts must hit the maxDictClasses cap, not allocate.
	f.Add([]byte{Magic0, Magic1, VersionCompact, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{Magic0, Magic1, VersionCompact, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	// Out-of-range class index.
	f.Add([]byte{Magic0, Magic1, VersionCompact, 0, 0, tagObject, 0x05})
	setup := registerConflicted(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCacheOptional(t, setup, data)
		checkMemoTransparent(t, setup, append(primers[:len(primers):len(primers)], data, data, steady)...)
		reg := mop.NewRegistry()
		cache := NewTypeCache(0)
		v, err := UnmarshalWith(data, reg, cache)
		if err != nil {
			return
		}
		if _, err := NewSendDict(0).Marshal(v); err != nil {
			t.Fatalf("decoded value failed to re-encode: %v", err)
		}
	})
}
