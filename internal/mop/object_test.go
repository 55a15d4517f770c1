package mop

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
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

// TestNewFrom: the filling constructor builds what New followed by SetAt per
// slot builds, checks every slot, passes fill's own error through untouched,
// and boxes no zero value it would only overwrite.
func TestNewFrom(t *testing.T) {
	evt := MustNewClass("Evt", nil, []Attr{
		{Name: "at", Type: Time},
		{Name: "n", Type: Int},
		{Name: "tags", Type: ListOf(String)},
	}, nil)
	at := time.Unix(749571200, 0).UTC()
	vals := []Value{at, int64(7), List{"a"}}
	fill := func(i int) (Value, error) { return vals[i], nil }
	o, err := NewFrom(evt, fill)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew(evt).MustSet("at", at).MustSet("n", int64(7)).MustSet("tags", List{"a"})
	if !o.Equal(want) {
		t.Fatalf("NewFrom built %v, want %v", o, want)
	}
	for _, typ := range []*Type{Int, ListOf(String), nil} {
		if _, err := NewFrom(typ, fill); !errors.Is(err, ErrNotClass) {
			t.Errorf("NewFrom(%v) error = %v, want ErrNotClass", typ, err)
		}
	}
	filled := 0
	_, err = NewFrom(evt, func(i int) (Value, error) {
		filled++
		return []Value{at, "seven", List{"a"}}[i], nil
	})
	if !errors.Is(err, ErrTypeMismatch) || !strings.Contains(err.Error(), `attribute "n"`) || filled != 2 {
		t.Errorf("mistyped slot: error %v after %d fills, want ErrTypeMismatch naming n after 2", err, filled)
	}
	boom := errors.New("boom")
	if _, err := NewFrom(evt, func(int) (Value, error) { return nil, boom }); err != boom {
		t.Errorf("fill error came back as %v, want it untouched", err)
	}
	// New boxes a zero time.Time for the at slot; NewFrom must not: with
	// values that need no box of their own, only the object and its slots
	// are allocated.
	small := func(i int) (Value, error) { return []Value{nil, nil, nil}[i], nil }
	loose := MustNewClass("Loose", nil, []Attr{
		{Name: "a", Type: Any}, {Name: "b", Type: Any}, {Name: "c", Type: Any}}, nil)
	if got := testing.AllocsPerRun(100, func() {
		if _, err := NewFrom(loose, small); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("NewFrom allocates %.0f times, want the object and its slots", got)
	}
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
