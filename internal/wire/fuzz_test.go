package wire

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

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

// checkViews: every []byte of v, decoded from data, is a view inside data
// with no capacity beyond its length, so an append reallocates instead of
// writing into the input.
func checkViews(t *testing.T, v mop.Value, data []byte) {
	t.Helper()
	eachBytes(v, func(b []byte) {
		if len(b) == 0 {
			return
		}
		if !inside(b, data) {
			t.Fatalf("a decoded []byte of %d bytes is not a view of the input", len(b))
		}
		if cap(b) != len(b) {
			t.Fatalf("a decoded view has cap %d > len %d: an append would write into the input", cap(b), len(b))
		}
	})
}

// inside reports whether the non-empty b lies within data's memory.
func inside(b, data []byte) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	p := uintptr(unsafe.Pointer(&b[0]))
	return p >= lo && p+uintptr(len(b)) <= lo+uintptr(len(data))
}

// checkClone: a deep copy of v, decoded from data and encoded as enc, equals
// v, encodes to the same bytes, and holds no view of data. Every object in it
// is built by Object.Clone, whatever its class's slot count.
func checkClone(t *testing.T, v mop.Value, enc, data []byte, encode func(mop.Value) ([]byte, error)) {
	t.Helper()
	c := mop.CloneValue(v)
	if !mop.EqualValues(c, v) {
		t.Fatalf("clone %v differs from the decoded %v", c, v)
	}
	if got, err := encode(c); err != nil || !bytes.Equal(got, enc) {
		t.Fatalf("clone encodes to %x (%v), the decoded value to %x", got, err, enc)
	}
	eachBytes(c, func(b []byte) {
		if len(b) > 0 && inside(b, data) {
			t.Fatalf("a cloned []byte of %d bytes is a view of the input", len(b))
		}
	})
}

// checkLists: every list of v, decoded through vb, is capped, so an append
// reallocates instead of writing into a neighbour's slots, and no slot of
// vb's element chunk holds a []byte, a list or an object: an element chunk
// never points into a datagram.
func checkLists(t *testing.T, v mop.Value, vb *valueBlock) {
	t.Helper()
	var walk func(v mop.Value)
	walk = func(v mop.Value) {
		switch x := v.(type) {
		case mop.List:
			if cap(x) != len(x) {
				t.Fatalf("a decoded list has cap %d > len %d", cap(x), len(x))
			}
			for _, e := range x {
				walk(e)
			}
		case *mop.Object:
			if x != nil {
				for i := range x.Type().Attrs() {
					walk(x.GetAt(i))
				}
			}
		}
	}
	walk(v)
	for i, e := range vb.elems {
		switch e.(type) {
		case []byte, mop.List, *mop.Object:
			t.Fatalf("element chunk slot %d holds a %T", i, e)
		}
	}
}

// bytesValue is a seed for checkViews: []byte at the top of a list, empty,
// and in a nested object's slot.
func bytesValue() mop.Value {
	blob := mop.MustNewClass("Blob", nil, []mop.Attr{{Name: "data", Type: mop.Bytes}}, nil)
	return mop.List{[]byte("top"), []byte{}, mop.MustNew(blob).MustSet("data", []byte("nested"))}
}

// checkCarved: no scalar, time or string of v, decoded from data through
// vb, shares a byte with data or with anything vb hands out later. Every
// such value is recorded, data is overwritten, a second message is decoded
// through vb, and every value must still read as recorded. data must be the
// caller's own copy of the input.
func checkCarved(t *testing.T, v mop.Value, data []byte, vb *valueBlock) {
	t.Helper()
	record := eachCarved(v)
	for i := range data {
		data[i] ^= 0xFF
	}
	if _, err := unmarshal(scribble, mop.NewRegistry(), nil, vb); err != nil {
		t.Fatal(err)
	}
	for i, x := range eachCarved(v) {
		if !sameValue(x, record[i]) {
			t.Fatalf("decoded value %d reads %v after the input was overwritten and another message decoded, %v before", i, x, record[i])
		}
	}
}

// scribble is a message of enough ints, floats, times, strings and short
// lists of them to take a fresh slot of every chunk and a fresh string
// block, whatever is left in them.
var scribble = func() []byte {
	var l mop.List
	for i := 0; i < 2*max(wordChunk, timeChunk, strChunk, listChunk); i++ {
		l = append(l, int64(-1<<40-i), -float64(i)-0.25, time.Unix(int64(-i), int64(i)).UTC(),
			strings.Repeat("~", 1+i%strMaxShared), mop.List{int64(-1 << 41), "~"})
	}
	data, err := Marshal(l)
	if err != nil {
		panic(err)
	}
	return data
}()

// eachCarved returns a copy of every value in v but a []byte view, in
// encoding order; the copies share no memory with v: a string is cloned,
// and a scalar or time, asserted to its type, is boxed anew by Go.
func eachCarved(v mop.Value) []mop.Value {
	var out []mop.Value
	eachLeaf(v, func(x mop.Value) {
		switch x := x.(type) {
		case []byte:
		case string:
			out = append(out, strings.Clone(x))
		case int64:
			out = append(out, x)
		case float64:
			out = append(out, x)
		case time.Time:
			out = append(out, x)
		default:
			out = append(out, x)
		}
	})
	return out
}

// eachString returns a copy of every string in v, in encoding order.
func eachString(v mop.Value) []string {
	var out []string
	eachLeaf(v, func(x mop.Value) {
		if s, ok := x.(string); ok {
			out = append(out, strings.Clone(s))
		}
	})
	return out
}

// eachBytes calls f on every []byte in v, however deeply listed or nested.
func eachBytes(v mop.Value, f func([]byte)) {
	eachLeaf(v, func(x mop.Value) {
		if b, ok := x.([]byte); ok {
			f(b)
		}
	})
}

// eachLeaf calls f on every value in v that is neither a list nor an
// object, however deeply listed or nested, in encoding order.
func eachLeaf(v mop.Value, f func(mop.Value)) {
	switch x := v.(type) {
	case mop.List:
		for _, e := range x {
			eachLeaf(e, f)
		}
	case *mop.Object:
		if x != nil {
			for i := range x.Type().Attrs() {
				eachLeaf(x.GetAt(i), f)
			}
		}
	default:
		f(x)
	}
}

// FuzzUnmarshal: arbitrary bytes must never panic the decoder — or the
// allocation-free walk over the type table that precedes it —, anything that
// decodes must re-encode, and the table memo must be invisible: the input is
// decoded with no cache, with a fresh cache, and twice more through a cache
// that already holds the seed messages' tables (so an input sharing a seed's
// table section is decoded against an entry another message published), and
// every way must yield the same value or error and register the same classes
// as a decoder that resolves every table per message. Every decoded []byte is
// a capped view of the input (checkViews), every list is capped and no
// element chunk holds a []byte, list or object (checkLists), a clone of the
// value is equal, encodes alike and views nothing of the input
// (checkClone), and no decoded scalar, time or string shares a byte with
// the input or with a later decode through the same block (checkCarved).
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
	withBytes, err := Marshal(bytesValue())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withBytes)
	// Lists on either side of the carve: short strings and scalars (carved),
	// the same with a []byte view among them (not carved), and an object
	// whose List attribute mixes both kinds.
	mixedHolder := mop.MustNewClass("Mixed", nil, []mop.Attr{
		{Name: "tags", Type: mop.ListOf(mop.Any)}, {Name: "blob", Type: mop.Bytes}}, nil)
	for _, v := range []mop.Value{
		mop.List{"a", "bc", int64(300), true},
		mop.List{"a", []byte("view"), "bc", mop.List{"d"}},
		mop.MustNew(mixedHolder).MustSet("tags", mop.List{"s", []byte("b"), "t"}).MustSet("blob", []byte("x")),
	} {
		mixed, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mixed)
	}
	f.Add([]byte{Magic0, Magic1, Version, 0, 0})
	f.Add([]byte{})
	f.Add([]byte{Magic0, Magic1, Version, 0, tagList, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	setup := registerConflicted(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCacheOptional(t, setup, data)
		checkMemoTransparent(t, setup, append(primers[:len(primers):len(primers)], data, data)...)
		in, vb := bytes.Clone(data), new(valueBlock)
		v, err := unmarshal(in, mop.NewRegistry(), nil, vb)
		if err != nil {
			return
		}
		checkViews(t, v, in)
		checkLists(t, v, vb)
		enc, err := Marshal(v)
		if err != nil {
			t.Fatalf("decoded value failed to re-encode: %v", err)
		}
		checkClone(t, v, enc, in, Marshal)
		checkCarved(t, v, in, vb)
	})
}

// FuzzUnmarshalCompact: the compact dictionary decoder must survive
// arbitrary bytes — including crafted def/ref counts (length caps) and
// class indices — with or without a warm TypeCache, anything that fully
// decodes must re-encode through a SendDict, and the table memo must be
// invisible (see FuzzUnmarshal; here the primed cache holds a def-carrying
// message between reference-only ones, as one in ResendEvery is). Every
// decoded []byte is a capped view of the input (checkViews), every list is
// capped and no element chunk holds a []byte, list or object (checkLists),
// a clone of the value is equal, encodes alike and views nothing of the input (checkClone),
// and no decoded scalar, time or string shares a byte with the input or
// with a later decode through the same block (checkCarved).
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
	withBytes, err := NewSendDict(0).Marshal(bytesValue())
	if err != nil {
		f.Fatal(err)
	}
	// first with one byte of its first definition (the class name's first
	// letter) flipped: another table section, which must miss the memo that
	// first's section is in.
	flipped := bytes.Clone(first)
	flipped[3+1+8+1] ^= 0x20
	var miss countingCounter
	memoReg, memo := mop.NewRegistry(), NewTypeCache(0)
	memo.CountMemo(&miss, nil)
	for _, m := range [][]byte{first, first, flipped} {
		_, _ = UnmarshalWith(m, memoReg, memo)
	}
	if miss.n.Load() != 2 {
		f.Fatalf("%d memo misses for first, first again and a flipped first; want 2", miss.n.Load())
	}
	f.Add(first)
	f.Add(flipped)
	f.Add(steady)
	f.Add(withBytes)
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
		in, vb := bytes.Clone(data), new(valueBlock)
		v, err := unmarshal(in, mop.NewRegistry(), NewTypeCache(0), vb)
		if err != nil {
			return
		}
		checkViews(t, v, in)
		checkLists(t, v, vb)
		enc, err := NewSendDict(0).Marshal(v)
		if err != nil {
			t.Fatalf("decoded value failed to re-encode: %v", err)
		}
		checkClone(t, v, enc, in, func(c mop.Value) ([]byte, error) { return NewSendDict(0).Marshal(c) })
		checkCarved(t, v, in, vb)
	})
}
