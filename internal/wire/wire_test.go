package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"infobus/internal/mop"
)

// newsTypes builds the Story hierarchy from §5 of the paper.
func newsTypes(t testing.TB) (story, dj, group *mop.Type) {
	t.Helper()
	group = mop.MustNewClass("IndustryGroup", nil, []mop.Attr{
		{Name: "code", Type: mop.String},
		{Name: "weight", Type: mop.Float},
	}, nil)
	story = mop.MustNewClass("Story", nil, []mop.Attr{
		{Name: "headline", Type: mop.String},
		{Name: "body", Type: mop.String},
		{Name: "sources", Type: mop.ListOf(mop.String)},
		{Name: "groups", Type: mop.ListOf(group)},
		{Name: "published", Type: mop.Time},
	}, []mop.Operation{
		{Name: "summary", Params: []mop.Param{{Name: "maxLen", Type: mop.Int}}, Result: mop.String},
	})
	dj = mop.MustNewClass("DowJonesStory", []*mop.Type{story}, []mop.Attr{
		{Name: "djCode", Type: mop.String},
	}, nil)
	return story, dj, group
}

func sampleStory(t testing.TB, dj, group *mop.Type) *mop.Object {
	t.Helper()
	g := mop.MustNew(group).MustSet("code", "AUTO").MustSet("weight", 0.75)
	return mop.MustNew(dj).
		MustSet("headline", "GM announces record earnings").
		MustSet("body", "Detroit — General Motors today ...").
		MustSet("sources", mop.List{"DJ", "wire-7"}).
		MustSet("groups", mop.List{g}).
		MustSet("published", time.Unix(749571200, 123).UTC()).
		MustSet("djCode", "GMC")
}

func TestRoundTripScalars(t *testing.T) {
	reg := mop.NewRegistry()
	values := []mop.Value{
		nil,
		true,
		false,
		int64(0),
		int64(-1),
		int64(1<<62 - 1),
		float64(3.14159),
		float64(-0.0),
		"",
		"hello, 世界",
		[]byte{},
		[]byte{0, 1, 2, 255},
		time.Unix(1, 999).UTC(),
		mop.List{},
		mop.List{int64(1), "two", 3.0, mop.List{true}},
	}
	for _, v := range values {
		data, err := Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", v, err)
		}
		got, err := Unmarshal(data, reg)
		if err != nil {
			t.Fatalf("Unmarshal(%v): %v", v, err)
		}
		if !mop.EqualValues(v, got) {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

func TestRoundTripObjectIntoEmptyRegistry(t *testing.T) {
	_, dj, group := newsTypes(t)
	o := sampleStory(t, dj, group)
	data, err := Marshal(o)
	if err != nil {
		t.Fatal(err)
	}

	// The receiver has never seen any of these types.
	reg := mop.NewRegistry()
	got, err := Unmarshal(data, reg)
	if err != nil {
		t.Fatal(err)
	}
	obj := got.(*mop.Object)
	if obj.Type().Name() != "DowJonesStory" {
		t.Fatalf("decoded type = %q", obj.Type().Name())
	}
	// The full hierarchy was reconstructed and registered.
	for _, name := range []string{"Story", "DowJonesStory", "IndustryGroup"} {
		if !reg.Has(name) {
			t.Errorf("registry missing reconstructed class %q", name)
		}
	}
	st, _ := reg.Lookup("Story")
	if !obj.Type().IsSubtypeOf(st) {
		t.Error("reconstructed subtype relation missing")
	}
	// Operations travelled too (P2: signatures are introspectable remotely).
	if op, ok := obj.Type().Operation("summary"); !ok || op.Signature() != "summary(maxLen int) -> string" {
		t.Errorf("reconstructed operation = %+v", op)
	}
	if obj.MustGet("headline") != "GM announces record earnings" {
		t.Errorf("headline = %v", obj.MustGet("headline"))
	}
	groups := obj.MustGet("groups").(mop.List)
	if len(groups) != 1 || groups[0].(*mop.Object).MustGet("code") != "AUTO" {
		t.Errorf("groups = %v", groups)
	}
	if tm := obj.MustGet("published").(time.Time); !tm.Equal(time.Unix(749571200, 123)) {
		t.Errorf("published = %v", tm)
	}
}

func TestRoundTripPrefersLocalTypes(t *testing.T) {
	story, dj, group := newsTypes(t)
	o := sampleStory(t, dj, group)
	data, err := Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	reg := mop.NewRegistry()
	for _, c := range []*mop.Type{group, story, dj} {
		if err := reg.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Unmarshal(data, reg)
	if err != nil {
		t.Fatal(err)
	}
	obj := got.(*mop.Object)
	if obj.Type() != dj {
		t.Error("decoder should reuse the locally registered class descriptor")
	}
	if !obj.Equal(o) {
		t.Errorf("decoded object differs:\n%s\n%s", mop.Sprint(o), mop.Sprint(obj))
	}
}

func TestConflictingLocalType(t *testing.T) {
	_, dj, group := newsTypes(t)
	o := sampleStory(t, dj, group)
	data, err := Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	reg := mop.NewRegistry()
	// Local "Story" with an incompatible layout.
	imposter := mop.MustNewClass("Story", nil, []mop.Attr{{Name: "totally", Type: mop.Int}}, nil)
	if err := reg.Register(imposter); err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data, reg); !errors.Is(err, ErrTypeConflict) {
		t.Errorf("Unmarshal with conflicting local type error = %v", err)
	}
}

func TestNilAndNestedNilObject(t *testing.T) {
	story, dj, group := newsTypes(t)
	holder := mop.MustNewClass("Holder", nil, []mop.Attr{
		{Name: "s", Type: story},
		{Name: "anything", Type: mop.Any},
	}, nil)
	h := mop.MustNew(holder) // s stays nil
	data, err := Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	reg := mop.NewRegistry()
	got, err := Unmarshal(data, reg)
	if err != nil {
		t.Fatal(err)
	}
	obj := got.(*mop.Object)
	if obj.MustGet("s") != nil {
		t.Errorf("nil class attr round trip = %v", obj.MustGet("s"))
	}
	// The declared attribute type Story must have been described even though
	// no instance travelled, so a later Set of a decoded Story works.
	if !reg.Has("Story") {
		t.Error("declared-but-nil class type was not described on the wire")
	}
	_ = dj
	_ = group
}

func TestAnySlotCarriesObject(t *testing.T) {
	_, dj, group := newsTypes(t)
	prop := mop.MustNewClass("Property", nil, []mop.Attr{
		{Name: "name", Type: mop.String},
		{Name: "value", Type: mop.Any},
	}, nil)
	p := mop.MustNew(prop).
		MustSet("name", "keywords").
		MustSet("value", mop.List{"gm", "earnings", sampleStory(t, dj, group)})
	data, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data, mop.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	val := got.(*mop.Object).MustGet("value").(mop.List)
	if len(val) != 3 {
		t.Fatalf("value = %v", val)
	}
	if val[2].(*mop.Object).MustGet("djCode") != "GMC" {
		t.Error("object inside Any slot did not round trip")
	}
}

func TestCorruptInputs(t *testing.T) {
	_, dj, group := newsTypes(t)
	data, err := Marshal(sampleStory(t, dj, group))
	if err != nil {
		t.Fatal(err)
	}
	reg := mop.NewRegistry()

	if _, err := Unmarshal(nil, reg); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty input error = %v", err)
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Unmarshal(bad, reg); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic error = %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[2] = 99
	if _, err := Unmarshal(bad, reg); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version error = %v", err)
	}
	// Truncation at every prefix must error, never panic or succeed.
	for i := 0; i < len(data)-1; i++ {
		if _, err := Unmarshal(data[:i], mop.NewRegistry()); err == nil {
			t.Fatalf("truncated prefix of %d bytes decoded successfully", i)
		}
	}
	// Trailing garbage detected.
	if _, err := Unmarshal(append(append([]byte(nil), data...), 0xFF), mop.NewRegistry()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes error = %v", err)
	}
}

func TestUnmarshalableValue(t *testing.T) {
	if _, err := Marshal(mop.List{struct{}{}}); !errors.Is(err, ErrUnmarshalable) {
		t.Errorf("Marshal unsupported error = %v", err)
	}
}

func TestMarshalDeterministic(t *testing.T) {
	_, dj, group := newsTypes(t)
	o := sampleStory(t, dj, group)
	a, err := Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("Marshal is not deterministic")
	}
}

// Property: scalar lists of arbitrary content round trip.
func TestQuickListRoundTrip(t *testing.T) {
	reg := mop.NewRegistry()
	f := func(is []int64, ss []string, fs []float64, bs []byte, b bool) bool {
		l := mop.List{b}
		for _, i := range is {
			l = append(l, i)
		}
		for _, s := range ss {
			l = append(l, s)
		}
		for _, fl := range fs {
			l = append(l, fl)
		}
		l = append(l, append([]byte(nil), bs...))
		data, err := Marshal(l)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data, reg)
		if err != nil {
			return false
		}
		return mop.EqualValues(l, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: random byte strings never panic the decoder.
func TestQuickDecoderRobust(t *testing.T) {
	reg := mop.NewRegistry()
	f := func(data []byte) bool {
		_, _ = Unmarshal(data, reg) // must not panic
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshalStory(b *testing.B) {
	_, dj, group := newsTypes(b)
	o := sampleStory(b, dj, group)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalStory(b *testing.B) {
	_, dj, group := newsTypes(b)
	data, err := Marshal(sampleStory(b, dj, group))
	if err != nil {
		b.Fatal(err)
	}
	reg := mop.NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data, reg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDeepNestingRejected(t *testing.T) {
	// A crafted message of nested list tags must be rejected, not blow the
	// stack. Build header + N x (tagList, count=1) + a final nil.
	var b []byte
	b = append(b, Magic0, Magic1, Version, 0) // no type table
	for i := 0; i < 100_000; i++ {
		b = append(b, tagList, 1)
	}
	b = append(b, tagNil)
	if _, err := Unmarshal(b, mop.NewRegistry()); !errors.Is(err, ErrTooDeep) {
		t.Errorf("deep value error = %v, want ErrTooDeep", err)
	}
	// Legitimate nesting well under the limit still decodes.
	v := mop.Value(int64(1))
	for i := 0; i < 50; i++ {
		v = mop.List{v}
	}
	data, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data, mop.NewRegistry()); err != nil {
		t.Errorf("50-deep list rejected: %v", err)
	}
}
