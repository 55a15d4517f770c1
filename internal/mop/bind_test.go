package mop

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// A small family for the tests: a row kind listed by a report kind, with one
// field of every bindable type and one bound of each sort.
type bindRow struct {
	Name  string `mop:"name,max=8"`
	Count uint64 `mop:"count"`
	local int    // untagged: not part of the kind
}

type bindLevel string

type bindReport struct {
	Node   string        `mop:"node"`
	Level  bindLevel     `mop:"level"`
	OK     bool          `mop:"ok"`
	Ratio  float64       `mop:"ratio"`
	N      int           `mop:"n"`
	Big    int64         `mop:"big"`
	Took   time.Duration `mop:"took_ns"`
	At     time.Time     `mop:"at"`
	Tags   []string      `mop:"tags,max=3"`
	Levels []bindLevel   `mop:"levels"`
	Rows   []bindRow     `mop:"rows,max=2"`
}

func bindFamily() (*Schema, Binding[bindRow], Binding[bindReport]) {
	s := new(Schema)
	return s, Bind[bindRow](s, "Row"), Bind[bindReport](s, "Report")
}

func sampleReport() bindReport {
	return bindReport{
		Node: "n1", Level: "warm", OK: true, Ratio: 0.5, N: -3, Big: 1 << 40,
		Took: 5 * time.Second, At: time.Unix(100, 7).UTC(),
		Tags: []string{"a", "b"}, Levels: []bindLevel{"x"},
		Rows: []bindRow{{Name: "r1", Count: 1<<63 + 5}, {Name: "r2"}},
	}
}

// TestBindDerivesClass: attributes in field order under the tag names, each
// of the type its field declares; untagged fields are not attributes.
func TestBindDerivesClass(t *testing.T) {
	s, row, _ := bindFamily()
	kinds := s.Kinds()
	if len(kinds) != 2 || kinds[0].Type().Name() != "Row" || kinds[1].Type().Name() != "Report" {
		t.Fatalf("kinds = %v", kinds)
	}
	var got []string
	for _, a := range kinds[1].Type().Attrs() {
		got = append(got, a.Name+":"+a.Type.Name())
	}
	want := "node:string level:string ok:bool ratio:float n:int big:int took_ns:int at:time " +
		"tags:list<string> levels:list<string> rows:list<Row>"
	if strings.Join(got, " ") != want {
		t.Errorf("Report attrs = %v\nwant %s", got, want)
	}
	if n := kinds[0].Type().NumAttrs(); n != 2 {
		t.Errorf("Row has %d attributes, want 2 (the untagged field is not one)", n)
	}
	o := row.Object(&bindRow{Name: "r", Count: 7, local: 9})
	if o.Type() != kinds[0].Type() || o.MustGet("name") != "r" || o.MustGet("count") != int64(7) {
		t.Errorf("Row object = %v", o)
	}
}

// TestBindRoundTrip: Object then Read is the identity, through the typed and
// the untyped form alike, and the object passes the checks a hand-built one
// would (every slot conforms to its attribute's type).
func TestBindRoundTrip(t *testing.T) {
	s, _, report := bindFamily()
	in := sampleReport()
	o := report.Object(&in)
	for i, a := range o.Type().Attrs() {
		if err := CheckValue(a.Type, o.GetAt(i)); err != nil {
			t.Errorf("slot %s: %v", a.Name, err)
		}
	}
	var out bindReport
	if !report.Read(o, &out) || !reflect.DeepEqual(out, in) {
		t.Errorf("typed read = %+v\nwant %+v", out, in)
	}
	k := s.Kinds()[1]
	p := k.New()
	if !k.ReadInto(k.ObjectOf(&in), p) || !reflect.DeepEqual(*p.(*bindReport), in) {
		t.Errorf("untyped read = %+v\nwant %+v", p, in)
	}
	// An object of another class, and no object, read nothing.
	other := MustNew(MustNewClass("Other", nil, []Attr{{Name: "node", Type: String}}, nil))
	untouched := bindReport{Node: "keep"}
	if report.Read(other, &untouched) || report.Read(nil, &untouched) || untouched.Node != "keep" {
		t.Errorf("read of a foreign object touched the struct: %+v", untouched)
	}
}

// TestReadVersionTolerance is the forward and backward compatibility a monitor
// relies on: the publisher's class lacks an attribute, has one more, holds one
// under another type, or lists an element of the wrong class — Read fills
// everything both sides know and leaves the rest as it was.
func TestReadVersionTolerance(t *testing.T) {
	_, _, report := bindFamily()

	// A newer publisher: its Report has one more attribute, and its Row one
	// more too. Adding a field to a kind is this one line in one struct.
	type rowV2 struct {
		Name  string `mop:"name"`
		Count uint64 `mop:"count"`
		Owner string `mop:"owner"` // the added field
	}
	type reportV2 struct {
		Node  string  `mop:"node"`
		Zone  string  `mop:"zone"` // the added field
		Ratio float64 `mop:"ratio"`
		Rows  []rowV2 `mop:"rows"`
	}
	s2 := new(Schema)
	Bind[rowV2](s2, "Row")
	newer := Bind[reportV2](s2, "Report")
	var got bindReport
	got.N = 42 // an attribute the newer class lacks: left as it was
	o := newer.Object(&reportV2{Node: "n2", Zone: "z", Ratio: 0.25, Rows: []rowV2{{Name: "r", Count: 3, Owner: "me"}}})
	if !report.Read(o, &got) {
		t.Fatal("a newer Report did not read")
	}
	if got.Node != "n2" || got.Ratio != 0.25 || got.N != 42 || len(got.Rows) != 1 || got.Rows[0] != (bindRow{Name: "r", Count: 3}) {
		t.Errorf("newer -> older: %+v", got)
	}
	// And the other way: the newer monitor reads the older publisher.
	older := sampleReport()
	var got2 reportV2
	if !newer.Read(report.Object(&older), &got2) || got2.Node != "n1" || got2.Zone != "" || len(got2.Rows) != 2 || got2.Rows[0].Owner != "" {
		t.Errorf("older -> newer: %+v", got2)
	}

	// Same names, other types; a list with strangers in it; lists and
	// strings over their declared bounds.
	stranger := MustNewClass("Stranger", nil, []Attr{{Name: "name", Type: String}}, nil)
	rowClass := MustNewClass("Row", nil, []Attr{{Name: "name", Type: String}, {Name: "count", Type: Float}}, nil)
	odd := MustNewClass("Report", nil, []Attr{
		{Name: "node", Type: Int}, {Name: "ok", Type: String}, {Name: "ratio", Type: Float},
		{Name: "at", Type: Int}, {Name: "n", Type: Time}, {Name: "tags", Type: ListOf(Any)},
		{Name: "levels", Type: String}, {Name: "rows", Type: ListOf(Any)}, {Name: "big", Type: ListOf(Int)},
	}, nil)
	o = MustNew(odd).
		MustSet("node", int64(9)).MustSet("ok", "yes").MustSet("ratio", 0.75).
		MustSet("at", int64(5)).MustSet("n", time.Unix(1, 0)).
		MustSet("tags", List{"a", int64(1), "b", nil, "c", "d", "e"}).
		MustSet("levels", "not a list").MustSet("big", List{int64(1)}).
		MustSet("rows", List{
			MustNew(stranger).MustSet("name", "s"),
			MustNew(rowClass).MustSet("name", "far-too-long-a-name").MustSet("count", 1.5),
			MustNew(rowClass).MustSet("name", "beyond the list's bound"),
			"not an object", (*Object)(nil),
		})
	got = bindReport{Node: "keep", OK: true, N: 7, Big: 8, Levels: []bindLevel{"keep"}}
	if !report.Read(o, &got) {
		t.Fatal("an oddly typed Report did not read")
	}
	want := bindReport{Node: "keep", OK: true, N: 7, Big: 8, Levels: []bindLevel{"keep"}, Ratio: 0.75,
		Tags: []string{"a", "b"},    // cut to the first 3 elements, then the non-string dropped
		Rows: []bindRow{{Name: ""}}, // first 2 elements: the stranger dropped; the Row's long name and float count skipped
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("odd types:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSchemaDefine: a registry gains the classes it lacks, keeps a same-named
// class that carries every declared attribute (building the rest over it, so
// what decodes through the registry stays one closure), and refuses a
// stranger under a kind's name.
func TestSchemaDefine(t *testing.T) {
	s, _, _ := bindFamily()
	reg := NewRegistry()
	if err := s.Define(reg); err != nil {
		t.Fatal(err)
	}
	rep, _ := reg.Lookup("Report")
	row, _ := reg.Lookup("Row")
	if a, _ := rep.Attr("rows"); a.Type.Elem() != row {
		t.Error("Report does not list the registry's Row")
	}
	if err := s.Define(reg); err != nil || reg.Len() != 2 {
		t.Errorf("second Define: %v, %d classes", err, reg.Len())
	}

	// A peer's Row arrived first, with one more attribute and another order.
	reg = NewRegistry()
	peers := MustNewClass("Row", nil, []Attr{{Name: "owner", Type: String}, {Name: "count", Type: Int}, {Name: "name", Type: String}}, nil)
	if err := reg.Register(peers); err != nil {
		t.Fatal(err)
	}
	if err := s.Define(reg); err != nil {
		t.Fatalf("a compatible class under a kind's name: %v", err)
	}
	rep, _ = reg.Lookup("Report")
	if a, _ := rep.Attr("rows"); a.Type.Elem() != peers {
		t.Error("Report was not built over the class the registry already held")
	}

	// A stranger: the name, not the shape.
	for _, attrs := range [][]Attr{
		{{Name: "name", Type: String}},                               // lacks count
		{{Name: "name", Type: String}, {Name: "count", Type: Float}}, // count under another type
	} {
		reg = NewRegistry()
		if err := reg.Register(MustNewClass("Row", nil, attrs, nil)); err != nil {
			t.Fatal(err)
		}
		if err := s.Define(reg); !errors.Is(err, ErrTypeExists) {
			t.Errorf("stranger %v under a kind's name: %v, want ErrTypeExists", attrs, err)
		}
	}
}

// TestBindRejectsBadDeclarations: a declaration Bind cannot honour is a panic
// at the declaring package's initialisation, not a surprise at publish time.
func TestBindRejectsBadDeclarations(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	panics("unsupported type", func() {
		Bind[struct {
			X int32 `mop:"x"`
		}](new(Schema), "A")
	})
	panics("unexported field", func() {
		Bind[struct {
			x string `mop:"x"`
		}](new(Schema), "A")
	})
	panics("unbound element", func() {
		Bind[struct {
			X []bindRow `mop:"x"`
		}](new(Schema), "A")
	})
	panics("foreign struct", func() {
		Bind[struct {
			X bindRow `mop:"x"`
		}](new(Schema), "A")
	})
	panics("bad bound", func() {
		Bind[struct {
			X string `mop:"x,min=3"`
		}](new(Schema), "A")
	})
	panics("zero bound", func() {
		Bind[struct {
			X string `mop:"x,max=0"`
		}](new(Schema), "A")
	})
	panics("bad class name", func() {
		Bind[struct {
			X string `mop:"x"`
		}](new(Schema), "list<A>")
	})
	s, _, _ := bindFamily()
	panics("wrong pointer", func() { s.Kinds()[0].ObjectOf(&bindReport{}) })
	panics("not a pointer", func() { s.Kinds()[0].ReadInto(nil, bindRow{}) })
}
