package mop

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestObjectLifecycle(t *testing.T) {
	story, dj := storyType(t)
	o := MustNew(dj)
	if o.Type() != dj {
		t.Fatal("Type mismatch")
	}
	// Zero values per declared types.
	if v := o.MustGet("headline"); v != "" {
		t.Errorf("zero headline = %v", v)
	}
	if v := o.MustGet("sources"); v != nil {
		t.Errorf("zero sources = %v", v)
	}
	if err := o.Set("headline", "GM surges"); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("sources", List{"DJ", "wire"}); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("djCode", "GMC"); err != nil {
		t.Fatal(err)
	}
	if v := o.MustGet("headline"); v != "GM surges" {
		t.Errorf("headline = %v", v)
	}
	// Type errors.
	if err := o.Set("headline", int64(5)); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("Set wrong type error = %v", err)
	}
	if err := o.Set("sources", List{"ok", int64(1)}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("Set heterogeneous list error = %v", err)
	}
	if err := o.Set("nope", "x"); !errors.Is(err, ErrNoAttr) {
		t.Errorf("Set unknown attr error = %v", err)
	}
	if _, err := o.Get("nope"); !errors.Is(err, ErrNoAttr) {
		t.Errorf("Get unknown attr error = %v", err)
	}
	_ = story
}

func TestNewRejectsNonClass(t *testing.T) {
	for _, typ := range []*Type{Int, ListOf(String), nil} {
		if _, err := New(typ); !errors.Is(err, ErrNotClass) {
			t.Errorf("New(%v) error = %v, want ErrNotClass", typ, err)
		}
	}
}

// TestNewFrozen: the filling constructor builds what New followed by SetAt
// per slot builds, frozen, checks every slot, passes fill's own error
// through untouched, boxes no zero value it would only overwrite, and hands
// fill a cell of its own exactly for each slot declared Bytes or ListOf(...).
func TestNewFrozen(t *testing.T) {
	evt := MustNewClass("Evt", nil, []Attr{
		{Name: "at", Type: Time},
		{Name: "n", Type: Int},
		{Name: "tags", Type: ListOf(String)},
	}, nil)
	at := time.Unix(749571200, 0).UTC()
	vals := []Value{at, int64(7), List{"a"}}
	fill := func(i int, _ *Cell) (Value, error) { return vals[i], nil }
	o, err := NewFrozen(evt, fill)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew(evt).MustSet("at", at).MustSet("n", int64(7)).MustSet("tags", List{"a"})
	if !o.Equal(want) || !o.frozen() {
		t.Fatalf("NewFrozen built %v (frozen %v), want %v frozen", o, o.frozen(), want)
	}
	for _, typ := range []*Type{Int, ListOf(String), nil} {
		if _, err := NewFrozen(typ, fill); !errors.Is(err, ErrNotClass) {
			t.Errorf("NewFrozen(%v) error = %v, want ErrNotClass", typ, err)
		}
	}
	filled := 0
	_, err = NewFrozen(evt, func(i int, _ *Cell) (Value, error) {
		filled++
		return []Value{at, "seven", List{"a"}}[i], nil
	})
	if !errors.Is(err, ErrTypeMismatch) || !strings.Contains(err.Error(), `attribute "n"`) || filled != 2 {
		t.Errorf("mistyped slot: error %v after %d fills, want ErrTypeMismatch naming n after 2", err, filled)
	}
	boom := errors.New("boom")
	if _, err := NewFrozen(evt, func(int, *Cell) (Value, error) { return nil, boom }); err != boom {
		t.Errorf("fill error came back as %v, want it untouched", err)
	}
	// With values that need no box of their own, the object and its slots
	// are the one allocation.
	small := func(i int, _ *Cell) (Value, error) { return []Value{nil, nil, nil}[i], nil }
	loose := MustNewClass("Loose", nil, []Attr{
		{Name: "a", Type: Any}, {Name: "b", Type: Any}, {Name: "c", Type: Any}}, nil)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := NewFrozen(loose, small); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("NewFrozen allocates %.0f times, want one block for the object and its slots", got)
	}
	// Cells: one per Bytes or List slot, none for an Any slot that may
	// hold either, each distinct.
	mixed := MustNewClass("Mixed", nil, []Attr{
		{Name: "a", Type: Any}, {Name: "body", Type: Bytes}, {Name: "n", Type: Int},
		{Name: "tags", Type: ListOf(String)}, {Name: "more", Type: Bytes}}, nil)
	cells := map[*Cell]int{}
	if _, err := NewFrozen(mixed, func(i int, c *Cell) (Value, error) {
		if c != nil {
			cells[c] = i
		}
		return ZeroValue(mixed.Attrs()[i].Type), nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Errorf("fill was handed %d distinct cells for slots %v, want 3 for slots 1, 3 and 4", len(cells), cells)
	}
	for _, i := range cells {
		if !hasCell(mixed.Attrs()[i].Type) {
			t.Errorf("slot %d (%s) was handed a cell", i, mixed.Attrs()[i].Type.Name())
		}
	}
}

// TestObjectIsOneAllocation: every constructor — New, NewFrozen, Clone and
// a bound kind's Object — builds an object whose header and slots are one
// block up to 16 slots and two above, holds the values it was given, and
// owns its slots: a clone's SetAt shows in neither its original nor a
// sibling clone. Slot i is an int, string, float, bool or time by i mod 5.
// The freeze mark costs no byte: the header stays 32 B, and a frozen 7-slot
// object (a decoded Tick) is one 144-B block, a size class of its own. A
// class with Bytes and List attributes (cells below) adds a header cell per
// such attribute to a frozen object's block, and a []byte or List stored in
// its cell costs no allocation: still one block up to 16 slots, and three
// above (header, slots, cells).
func TestObjectIsOneAllocation(t *testing.T) {
	kinds := []reflect.Type{reflect.TypeFor[int64](), reflect.TypeFor[string](),
		reflect.TypeFor[float64](), reflect.TypeFor[bool](), reflect.TypeFor[time.Time]()}
	value := func(i int) Value {
		return []Value{int64(1000 + i), fmt.Sprint("v", i), float64(i) + 0.5, true, time.Unix(int64(i), 0).UTC()}[i%5]
	}
	var sizes []int
	for n := 0; n <= 20; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range append(sizes, 40) {
		fields := make([]reflect.StructField, n)
		for i := range fields {
			fields[i] = reflect.StructField{Name: fmt.Sprint("F", i), Type: kinds[i%5], Tag: reflect.StructTag(fmt.Sprintf(`mop:"f%d"`, i))}
		}
		var schema Schema
		k := schema.bind(reflect.StructOf(fields), fmt.Sprint("Slots", n))
		cls := k.Type()

		zero := MustNew(cls)
		frozen, err := NewFrozen(cls, func(i int, _ *Cell) (Value, error) { return value(i), nil })
		if err != nil {
			t.Fatal(err)
		}
		p := k.New()
		for i := 0; i < n; i++ {
			reflect.ValueOf(p).Elem().Field(i).Set(reflect.ValueOf(value(i)))
		}
		bound := k.ObjectOf(p)
		c1, c2 := frozen.Clone(), frozen.Clone()
		for i := 0; i < n; i++ {
			if v := zero.GetAt(i); !EqualValues(v, ZeroValue(cls.Attrs()[i].Type)) {
				t.Errorf("%d slots: New's slot %d = %v, want the zero value", n, i, v)
			}
			for name, o := range map[string]*Object{"NewFrozen": frozen, "Object": bound, "Clone": c1} {
				if v := o.GetAt(i); !EqualValues(v, value(i)) {
					t.Errorf("%d slots: %s's slot %d = %v, want %v", n, name, i, v, value(i))
				}
			}
			if err := c1.SetAt(i, value(i+5)); err != nil {
				t.Fatal(err)
			}
			if !EqualValues(frozen.GetAt(i), value(i)) || !EqualValues(c2.GetAt(i), value(i)) {
				t.Errorf("%d slots: a clone's SetAt(%d) shows in its original or its sibling", n, i)
			}
		}
		if back := k.New(); !k.ReadInto(bound, back) || !reflect.DeepEqual(back, p) {
			t.Errorf("%d slots: the bound object reads back as %+v, want %+v", n, back, p)
		}
		cells, fillCells := cellClass(n)
		withCells, err := NewFrozen(cells, fillCells)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if v, _ := fillCells(i, nil); !EqualValues(withCells.GetAt(i), v) {
				t.Errorf("%d slots with cells: slot %d = %v, want %v", n, i, withCells.GetAt(i), v)
			}
		}
		if c := withCells.Clone(); !c.Equal(withCells) || c.frozen() {
			t.Errorf("%d slots with cells: the clone %v is not an editable equal of %v", n, c, withCells)
		}

		if raceEnabled {
			continue // race-detector instrumentation allocates
		}
		want, cellsWant := 1.0, 1.0
		if n > 16 {
			want, cellsWant = 2, 3
		}
		zeroFill := func(i int, _ *Cell) (Value, error) { return ZeroValue(cls.Attrs()[i].Type), nil }
		// A bound kind boxes a time.Time field through reflect, one
		// allocation each on top of the block.
		times := float64(n / 5)
		zp := k.New()
		for name, c := range map[string]struct {
			want float64
			f    func()
		}{
			"New":             {want, func() { MustNew(cls) }},
			"NewFrozen":       {want, func() { _, _ = NewFrozen(cls, zeroFill) }},
			"Clone":           {want, func() { zero.Clone() }},
			"Object":          {want + times, func() { k.ObjectOf(zp) }},
			"NewFrozen cells": {cellsWant, func() { _, _ = NewFrozen(cells, fillCells) }},
		} {
			if got := testing.AllocsPerRun(100, c.f); got != c.want {
				t.Errorf("%d slots: %s allocates %.0f times, want %.0f", n, name, got, c.want)
			}
		}
		if n == 7 {
			if got := bytesPerRun(1000, func() { sink, _ = NewFrozen(cls, zeroFill) }); got != 144 {
				t.Errorf("a frozen 7-slot object allocates %.1f B, want one 144-B block", got)
			}
			// Slots 1, 2, 4 and 5 have cells: 32 + 7*16 + 4*24 = 240 B, a
			// size class of its own.
			if got := bytesPerRun(1000, func() { sink, _ = NewFrozen(cells, fillCells) }); got != 240 {
				t.Errorf("a frozen 7-slot object with 4 cells allocates %.1f B, want one 240-B block", got)
			}
		}
	}
	if size := unsafe.Sizeof(Object{}); size != 32 {
		t.Errorf("unsafe.Sizeof(Object{}) = %d, want 32: a field more moves every decoded class up a size class", size)
	}
}

// cellClass returns a class of n attributes, slot i declared Int, Bytes or
// ListOf(String) by i mod 3, and a fill for NewFrozen that stores a []byte
// and a List built once in their cells; called with a nil cell it returns
// the value Go boxes.
func cellClass(n int) (*Type, func(int, *Cell) (Value, error)) {
	types := []*Type{Int, Bytes, ListOf(String)}
	attrs := make([]Attr, n)
	for i := range attrs {
		attrs[i] = Attr{Name: fmt.Sprint("c", i), Type: types[i%3]}
	}
	blob, tags := []byte("a view of a datagram"), List{"k1", "k2"}
	return MustNewClass(fmt.Sprint("Cells", n), nil, attrs, nil), func(i int, c *Cell) (Value, error) {
		switch i % 3 {
		case 1:
			return c.Bytes(blob[i%4:]), nil
		case 2:
			return c.List(tags[:i%2+1]), nil
		}
		return int64(i), nil
	}
}

// sink keeps what bytesPerRun measures on the heap.
var sink *Object

// bytesPerRun returns the bytes f allocates per call, averaged over runs,
// in the smallest of several windows after a collection. The windows read
// process-wide TotalAlloc, so another goroutine's allocation can only add
// to one of them: the smallest is f's own.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	least := uint64(math.MaxUint64)
	for range 5 {
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return float64(least) / float64(runs)
}

// TestFrozenObject: a frozen object refuses Set and SetAt with ErrFrozen and
// keeps its values; every read, Equal, String, Print and a bound kind's Read
// see them as on an editable object; Clone is editable throughout and its
// edits do not show in the original.
func TestFrozenObject(t *testing.T) {
	part := MustNewClass("FrozenPart", nil, []Attr{{Name: "name", Type: String}}, nil)
	whole := MustNewClass("FrozenWhole", nil, []Attr{
		{Name: "n", Type: Int}, {Name: "s", Type: String}, {Name: "part", Type: part}}, nil)
	decode := func(cls *Type, vals ...Value) *Object {
		o, err := NewFrozen(cls, func(i int, _ *Cell) (Value, error) { return vals[i], nil })
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	p := decode(part, "p")
	o := decode(whole, int64(7), "s", p)
	editable := MustNew(whole).MustSet("n", int64(7)).MustSet("s", "s").
		MustSet("part", MustNew(part).MustSet("name", "p"))

	if !o.frozen() || !p.frozen() || editable.frozen() {
		t.Fatalf("Frozen = %v, %v, %v; want true, true, false", o.frozen(), p.frozen(), editable.frozen())
	}
	for what, err := range map[string]error{
		"Set":        o.Set("n", int64(8)),
		"SetAt":      o.SetAt(1, "x"),
		"part Set":   p.Set("name", "x"),
		"part SetAt": p.SetAt(0, "x"),
	} {
		if !errors.Is(err, ErrFrozen) {
			t.Errorf("%s on a frozen object = %v, want ErrFrozen", what, err)
		}
	}
	if err := o.Set("nope", int64(1)); !errors.Is(err, ErrNoAttr) {
		t.Errorf("Set of an unknown attribute = %v, want ErrNoAttr", err)
	}
	if err := o.SetAt(3, int64(1)); !errors.Is(err, ErrNoAttr) {
		t.Errorf("SetAt past the last slot = %v, want ErrNoAttr", err)
	}
	if !o.Equal(editable) || !editable.Equal(o) || o.String() != editable.String() ||
		o.MustGet("s") != "s" || o.GetAt(0) != int64(7) || o.GetAt(2) != p {
		t.Fatalf("frozen %v reads differently from editable %v", o, editable)
	}
	var fp, ep strings.Builder
	Print(&fp, o)
	Print(&ep, editable)
	if fp.String() != ep.String() {
		t.Errorf("Print: frozen %q, editable %q", fp.String(), ep.String())
	}

	c := o.Clone()
	cp := c.MustGet("part").(*Object)
	if c.frozen() || cp.frozen() || cp == p {
		t.Fatalf("Clone: frozen %v, part frozen %v, part shared %v", c.frozen(), cp.frozen(), cp == p)
	}
	c.MustSet("n", int64(8))
	cp.MustSet("name", "x")
	if o.MustGet("n") != int64(7) || p.MustGet("name") != "p" {
		t.Errorf("a clone's edits show in the frozen original: %v", o)
	}

	type frozenPart struct {
		Name string `mop:"name"`
	}
	var back frozenPart
	if !Bind[frozenPart](new(Schema), "FrozenPart").Read(p, &back) || back.Name != "p" {
		t.Errorf("Binding.Read of a frozen object = %+v", back)
	}
}

// TestShareValue: a value nothing can write into is shared as is; one with a
// []byte or List part, or an editable object, is copied with every object of
// the copy frozen and every immutable part shared, not copied.
func TestShareValue(t *testing.T) {
	part := MustNewClass("SharePart", nil, []Attr{{Name: "name", Type: String}}, nil)
	blobPart := MustNewClass("ShareBlobPart", nil, []Attr{{Name: "blob", Type: Bytes}}, nil)
	whole := MustNewClass("ShareWhole", nil, []Attr{
		{Name: "n", Type: Int}, {Name: "part", Type: part},
		{Name: "extra", Type: Any}}, nil)
	frozen := func(cls *Type, vals ...Value) *Object {
		o, err := NewFrozen(cls, func(i int, _ *Cell) (Value, error) { return vals[i], nil })
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	p := frozen(part, "p")
	for _, v := range []Value{nil, true, int64(1), 2.5, "s", time.Unix(1, 0), []byte(nil), List(nil),
		(*Object)(nil), p, frozen(whole, int64(1), p, nil), frozen(whole, int64(1), nil, frozen(part, "q"))} {
		if got := ShareValue(v); !sameValue(got, v) {
			t.Errorf("ShareValue(%v) copied a value nothing can write into", v)
		}
	}

	editable := MustNew(part).MustSet("name", "e")
	blob := frozen(blobPart, []byte("blob"))
	for _, v := range []Value{
		editable,
		frozen(whole, int64(1), p, []byte("bytes")),
		frozen(whole, int64(1), p, List{"a", p}),
		frozen(whole, int64(1), p, blob),
		frozen(whole, int64(1), p, List{blob}),
		List{p, []byte("x")},
	} {
		got := ShareValue(v)
		if sameValue(got, v) || !EqualValues(got, v) {
			t.Errorf("ShareValue(%v) = %v, want an equal copy", v, got)
			continue
		}
		checkShared(t, got, v)
	}
}

// TestShareValueCopyAllocs: the frozen copy ShareValue makes for a host's
// second and later bus stores each copied []byte or List attribute value in
// the copy's header cells, so it costs no box: a Quote-shaped object (one
// Bytes attribute) copies in 2 allocations, its block and its bytes, and a
// Story-shaped one (a Bytes and a ListOf(String) attribute and a frozen
// part, which is shared) in 3, its block, its body and its keyword array.
// With a Go box per copied value they were 3 and 5.
func TestShareValueCopyAllocs(t *testing.T) {
	quote := MustNewClass("ShareQuote", nil, []Attr{
		{Name: "pub", Type: Int}, {Name: "seq", Type: Int}, {Name: "sum", Type: Int},
		{Name: "symbol", Type: String}, {Name: "bid", Type: Float}, {Name: "ask", Type: Float},
		{Name: "size", Type: Int}, {Name: "at", Type: Time}, {Name: "venue", Type: String},
		{Name: "depth", Type: Bytes}}, nil)
	source := MustNewClass("ShareSource", nil, []Attr{
		{Name: "agency", Type: String}, {Name: "desk", Type: String}, {Name: "region", Type: String}}, nil)
	story := MustNewClass("ShareStory", nil, []Attr{
		{Name: "pub", Type: Int}, {Name: "seq", Type: Int}, {Name: "sum", Type: Int},
		{Name: "headline", Type: String}, {Name: "body", Type: Bytes},
		{Name: "keywords", Type: ListOf(String)}, {Name: "source", Type: source}}, nil)
	// decoded builds a frozen object as the wire decoder does, each []byte
	// and List in its cell.
	decoded := func(cls *Type, vals ...Value) *Object {
		o, err := NewFrozen(cls, func(i int, c *Cell) (Value, error) {
			switch v := vals[i].(type) {
			case []byte:
				return c.Bytes(v), nil
			case List:
				return c.List(v), nil
			}
			return vals[i], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	at := time.Unix(1_700_000_000, 500).UTC()
	keywords := List{"kw0", "kw1", "kw2", "kw3", "kw4", "kw5", "kw6", "kw7"}
	for _, tc := range []struct {
		name string
		v    *Object
		want float64
	}{
		{"Quote", decoded(quote, int64(1), int64(4711), int64(3735928559), "IBM", 101.25, 101.5,
			int64(300), at, "NYSE", make([]byte, 104)), 2},
		{"Story", decoded(story, int64(1), int64(4711), int64(3735928559), strings.Repeat("h", 64),
			make([]byte, 8192), keywords, decoded(source, "DOWJONES", "detroit", "USMW")), 3},
	} {
		got := ShareValue(tc.v)
		if sameValue(got, tc.v) || !EqualValues(got, tc.v) {
			t.Fatalf("%s: ShareValue = %v, want an equal copy", tc.name, got)
		}
		checkShared(t, got, tc.v)
		if raceEnabled {
			continue // race-detector instrumentation allocates
		}
		if n := testing.AllocsPerRun(100, func() { ShareValue(tc.v) }); n != tc.want {
			t.Errorf("%s: a frozen copy allocates %.0f times, want %.0f", tc.name, n, tc.want)
		}
	}
}

// checkShared walks a copy ShareValue made next to its original: every
// object of the copy is frozen, every []byte and List is new, and every part
// that nothing could write into is the original's.
func checkShared(t *testing.T, got, orig Value) {
	t.Helper()
	switch x := got.(type) {
	case []byte:
		if len(x) > 0 && &x[0] == &orig.([]byte)[0] {
			t.Errorf("%q is the original's bytes", x)
		}
	case List:
		o := orig.(List)
		if len(x) > 0 && &x[0] == &o[0] {
			t.Errorf("%v is the original's list", x)
		}
		for i := range x {
			checkShared(t, x[i], o[i])
		}
	case *Object:
		o := orig.(*Object)
		if x == nil {
			return
		}
		if immutable(o) != (x == o) {
			t.Errorf("%v: shared %v, immutable %v", o, x == o, immutable(o))
		}
		if !x.frozen() {
			t.Errorf("%v: the copy is editable", x)
		}
		if x != o {
			for i := range x.all() {
				checkShared(t, x.GetAt(i), o.GetAt(i))
			}
		}
	}
}

// sameValue reports whether a and b are one value: the same object, list or
// bytes, or equal scalars.
func sameValue(a, b Value) bool {
	switch x := a.(type) {
	case []byte:
		y, ok := b.([]byte)
		return ok && len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
	case List:
		y, ok := b.(List)
		return ok && len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
	case *Object:
		y, ok := b.(*Object)
		return ok && x == y
	}
	return EqualValues(a, b)
}

func TestSubtypeAssignment(t *testing.T) {
	story, dj := storyType(t)
	holder := MustNewClass("Holder", nil, []Attr{{Name: "story", Type: story}}, nil)
	h := MustNew(holder)
	inst := MustNew(dj)
	if err := h.Set("story", inst); err != nil {
		t.Fatalf("storing subtype instance in supertype slot: %v", err)
	}
	unrelated := MustNew(MustNewClass("Other", nil, nil, nil))
	if err := h.Set("story", unrelated); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("storing unrelated class error = %v", err)
	}
	if err := h.Set("story", nil); err != nil {
		t.Errorf("nil should be allowed in class slot: %v", err)
	}
}

func TestAnySlot(t *testing.T) {
	prop := MustNewClass("Property", nil, []Attr{
		{Name: "name", Type: String},
		{Name: "value", Type: Any},
	}, nil)
	p := MustNew(prop)
	for _, v := range []Value{int64(5), "str", true, 3.14, List{"a", int64(1)}, nil, time.Unix(10, 0)} {
		if err := p.Set("value", v); err != nil {
			t.Errorf("Any slot rejected %T: %v", v, err)
		}
	}
	if err := p.Set("value", struct{}{}); !errors.Is(err, ErrBadValue) {
		t.Errorf("Any slot accepted unsupported dynamic type: %v", err)
	}
	if err := p.Set("value", List{struct{}{}}); !errors.Is(err, ErrBadValue) {
		t.Errorf("Any slot accepted list with unsupported element: %v", err)
	}
}

func TestSetAtGetAt(t *testing.T) {
	_, dj := storyType(t)
	o := MustNew(dj)
	idx := dj.AttrIndex("djCode")
	if err := o.SetAt(idx, "X"); err != nil {
		t.Fatal(err)
	}
	if o.GetAt(idx) != "X" {
		t.Error("GetAt after SetAt mismatch")
	}
	if err := o.SetAt(99, "X"); !errors.Is(err, ErrNoAttr) {
		t.Errorf("SetAt out of range error = %v", err)
	}
	if err := o.SetAt(idx, int64(1)); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("SetAt type error = %v", err)
	}
}

func TestCloneAndEqual(t *testing.T) {
	_, dj := storyType(t)
	a := MustNew(dj).
		MustSet("headline", "h").
		MustSet("sources", List{"s1", "s2"}).
		MustSet("djCode", "GMC")
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone should equal original")
	}
	// Mutating the clone's list must not affect the original (deep copy).
	lst := b.MustGet("sources").(List)
	lst[0] = "mutated"
	if a.MustGet("sources").(List)[0] != "s1" {
		t.Error("Clone is shallow: list mutation leaked")
	}
	b.MustSet("headline", "other")
	if a.Equal(b) {
		t.Error("Equal should detect attribute difference")
	}
	var nilObj *Object
	if nilObj.Clone() != nil {
		t.Error("nil Clone should be nil")
	}
	if !EqualValues(nilObj, (*Object)(nil)) {
		t.Error("nil objects are equal")
	}
}

func TestEqualValuesMatrix(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{nil, nil, true},
		{nil, int64(0), false},
		{int64(1), int64(1), true},
		{int64(1), int64(2), false},
		{int64(1), 1.0, false},
		{"a", "a", true},
		{[]byte{1, 2}, []byte{1, 2}, true},
		{[]byte{1, 2}, []byte{1, 3}, false},
		{[]byte{1}, []byte{1, 2}, false},
		{List{int64(1)}, List{int64(1)}, true},
		{List{int64(1)}, List{int64(2)}, false},
		{List{}, List{int64(1)}, false},
		{true, true, true},
		{time.Unix(5, 0), time.Unix(5, 0).UTC(), true},
		{time.Unix(5, 0), time.Unix(6, 0), false},
	}
	for _, c := range cases {
		if got := EqualValues(c.a, c.b); got != c.want {
			t.Errorf("EqualValues(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestEqualValuesNaN: equality is reflexive on floats too, so a NaN equals
// a NaN, and an object or list holding one equals its own clone.
func TestEqualValuesNaN(t *testing.T) {
	nan := math.NaN()
	if !EqualValues(nan, nan) || !EqualValues(nan, -nan) {
		t.Error("NaN does not equal NaN")
	}
	if EqualValues(nan, 1.0) || EqualValues(1.0, nan) || EqualValues(nan, int64(0)) {
		t.Error("NaN equals a number")
	}
	cls := MustNewClass("NaNHolder", nil, []Attr{{Name: "x", Type: Float}, {Name: "l", Type: ListOf(Float)}}, nil)
	o := MustNew(cls).MustSet("x", nan).MustSet("l", List{1.0, nan})
	if !o.Equal(o.Clone()) || !EqualValues(o, o.Clone()) {
		t.Error("an object holding NaN does not equal its clone")
	}
}

func TestValueType(t *testing.T) {
	_, dj := storyType(t)
	cases := []struct {
		v    Value
		want *Type
	}{
		{true, Bool},
		{int64(1), Int},
		{1.5, Float},
		{"s", String},
		{[]byte{1}, Bytes},
		{time.Now(), Time},
		{MustNew(dj), dj},
		{nil, nil},
	}
	for _, c := range cases {
		if got := ValueType(c.v); got != c.want {
			t.Errorf("ValueType(%T) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := ValueType(List{}); got.Kind() != KindList {
		t.Errorf("ValueType(List) kind = %v", got.Kind())
	}
}

// Property: CloneValue of any generated value is EqualValues to the
// original.
func TestQuickCloneEqual(t *testing.T) {
	f := func(i int64, s string, bs []byte, fl float64, b bool) bool {
		v := List{i, s, append([]byte(nil), bs...), fl, b, List{i, s}}
		return EqualValues(v, CloneValue(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrintRecursive(t *testing.T) {
	story, dj := storyType(t)
	group := MustNewClass("IndustryGroup", nil, []Attr{
		{Name: "code", Type: String},
		{Name: "weight", Type: Float},
	}, nil)
	rich := MustNewClass("RichStory", []*Type{story}, []Attr{
		{Name: "groups", Type: ListOf(group)},
		{Name: "when", Type: Time},
	}, nil)
	g := MustNew(group).MustSet("code", "AUTO").MustSet("weight", 0.8)
	o := MustNew(rich).
		MustSet("headline", "GM surges").
		MustSet("sources", List{"DJ"}).
		MustSet("groups", List{g}).
		MustSet("when", time.Unix(749000000, 0))
	out := Sprint(o)
	for _, want := range []string{"RichStory {", `headline: "GM surges"`, "IndustryGroup {", `code: "AUTO"`, "weight: 0.8", "1993-09-25"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q:\n%s", want, out)
		}
	}
	_ = dj
	// Print handles every fundamental directly.
	if got := Sprint(int64(42)); got != "42" {
		t.Errorf("Sprint(int) = %q", got)
	}
	if got := Sprint(nil); got != "nil" {
		t.Errorf("Sprint(nil) = %q", got)
	}
	if got := Sprint([]byte{1, 2, 3}); got != "bytes[3]" {
		t.Errorf("Sprint(bytes) = %q", got)
	}
	if got := Sprint(List{int64(1), "a"}); got != `[1, "a"]` {
		t.Errorf("Sprint(list) = %q", got)
	}
	if got := Sprint(struct{}{}); !strings.Contains(got, "unprintable") {
		t.Errorf("Sprint(unsupported) = %q", got)
	}
}
