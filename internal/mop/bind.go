package mop

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// This file binds Go structs to classes, for code that publishes objects of
// a fixed shape (the bus's own "_sys" telemetry, the router mesh's ads). The
// struct is the one statement of the kind:
//
//	type Pong struct {
//		Node  string    `mop:"node"`
//		At    time.Time `mop:"at"`
//		Nonce int64     `mop:"nonce"`
//	}
//	var SysPong = mop.Bind[Pong](schema, "SysPong")
//
// From it Bind derives the class (one attribute per tagged field, in field
// order), Object (struct -> instance) and Read (instance -> struct). Adding
// an attribute is adding a tagged field.
//
// Field types and the attribute types they declare:
//
//	string kinds                  string
//	bool                          bool
//	float64                       float
//	int, int64 kinds, uint64      int   (uint64 bit-cast, time.Duration as ns)
//	time.Time                     time
//	[]string kinds                list<string>
//	[]S, S bound in the schema    list<S's class>
//
// Read matches by attribute name, not slot: the object may be of a class
// rebuilt from the wire by a peer of another version. An attribute the class
// lacks, holds under another type, or holds beyond the field's bound leaves
// the field as it was; attributes the struct does not declare are ignored;
// list elements of the wrong type or class are dropped. Nothing in an object
// makes Read panic. A tag may bound what Read accepts from the network,
// `mop:"name,max=N"`: a string longer than N is skipped, a list is cut to its
// first N elements before any element is copied out.

// Schema is a family of bound kinds, in the order they were bound. A kind
// that lists another ([]S) is bound after it. The zero value is ready.
type Schema struct {
	kinds []*Bound
	byGo  map[reflect.Type]*Bound
}

// Bound is one bound kind: the untyped form of a Binding, for code that
// handles every kind of a schema alike.
type Bound struct {
	typ    *Type
	goType reflect.Type
	fields []boundField // fields[i] fills attribute i of typ
}

type boundField struct {
	index int    // struct field index
	max   int    // Read's bound on a string's or list's length; 0 = none
	elem  *Bound // element kind of a []S field
}

// Binding is a Bound with its struct type attached.
type Binding[T any] struct{ kind *Bound }

var timeType = reflect.TypeFor[time.Time]()

// Bind derives class from T's tagged fields and adds it to the schema. It
// panics on a declaration it cannot bind (a bug in the declaring package,
// found at its initialisation): an unsupported field type, an unexported
// tagged field, a malformed tag, a []S whose S is not yet bound.
func Bind[T any](s *Schema, class string) Binding[T] {
	gt := reflect.TypeFor[T]()
	k := &Bound{goType: gt}
	var attrs []Attr
	for i := 0; i < gt.NumField(); i++ {
		sf := gt.Field(i)
		tag, ok := sf.Tag.Lookup("mop")
		if !ok {
			continue
		}
		name, bound, _ := strings.Cut(tag, ",")
		f := boundField{index: i}
		if bound != "" {
			num, ok := strings.CutPrefix(bound, "max=")
			if f.max, _ = strconv.Atoi(num); !ok || f.max <= 0 {
				panic(fmt.Sprintf("mop: %s.%s: bad tag %q", gt, sf.Name, tag))
			}
		}
		var at *Type
		switch ft := sf.Type; ft.Kind() {
		case reflect.String:
			at = String
		case reflect.Bool:
			at = Bool
		case reflect.Float64:
			at = Float
		case reflect.Int, reflect.Int64, reflect.Uint64:
			at = Int
		case reflect.Struct:
			if ft == timeType {
				at = Time
			}
		case reflect.Slice:
			if ft.Elem().Kind() == reflect.String {
				at = ListOf(String)
			} else if f.elem = s.byGo[ft.Elem()]; f.elem != nil {
				at = ListOf(f.elem.typ)
			}
		}
		if at == nil || !sf.IsExported() {
			panic(fmt.Sprintf("mop: %s.%s: cannot bind this field of type %s (unexported, or not a bindable type)", gt, sf.Name, sf.Type))
		}
		attrs = append(attrs, Attr{Name: name, Type: at})
		k.fields = append(k.fields, f)
	}
	k.typ = MustNewClass(class, nil, attrs, nil)
	if s.byGo == nil {
		s.byGo = make(map[reflect.Type]*Bound)
	}
	s.kinds = append(s.kinds, k)
	s.byGo[gt] = k
	return Binding[T]{k}
}

// Kinds returns the schema's kinds in binding order, not to be modified.
func (s *Schema) Kinds() []*Bound { return s.kinds }

// Define makes reg hold a class for every kind of the schema. A kind the
// registry lacks is registered, built over the registry's own descriptors of
// the kinds it lists. A class already there under a kind's name (harvested
// from a peer's self-describing publication, say) is kept if it carries
// every declared attribute under the declared type name, so that whatever
// decodes through reg reads; a stranger is an error wrapping ErrTypeExists.
func (s *Schema) Define(reg *Registry) error {
	for _, k := range s.kinds {
		if have, err := reg.Lookup(k.typ.name); err == nil {
			for _, a := range k.typ.all {
				if got, ok := have.Attr(a.Name); !ok || got.Type.name != a.Type.name {
					return fmt.Errorf("class %q has no attribute %q of type %s: %w",
						k.typ.name, a.Name, a.Type.name, ErrTypeExists)
				}
			}
			continue
		}
		attrs := make([]Attr, len(k.typ.all))
		for i, a := range k.typ.all {
			t, err := reg.Lookup(a.Type.name)
			if err != nil {
				return err
			}
			attrs[i] = Attr{Name: a.Name, Type: t}
		}
		if err := reg.Register(MustNewClass(k.typ.name, nil, attrs, nil)); err != nil {
			return err
		}
	}
	return nil
}

// Type returns the kind's class as declared: what Object instantiates.
func (k *Bound) Type() *Type { return k.typ }

// New returns a pointer to a zero struct of the kind's Go type.
func (k *Bound) New() any { return reflect.New(k.goType).Interface() }

// ObjectOf is Binding.Object for a pointer New returned.
func (k *Bound) ObjectOf(p any) *Object { return k.object(k.elem(p)) }

// ReadInto is Binding.Read for a pointer New returned.
func (k *Bound) ReadInto(o *Object, p any) bool { return k.read(o, k.elem(p)) }

func (k *Bound) elem(p any) reflect.Value {
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Pointer || v.Type().Elem() != k.goType {
		panic(fmt.Sprintf("mop: kind %s takes a *%s, not a %T", k.typ.name, k.goType, p))
	}
	return v.Elem()
}

// Object renders v as an instance of the kind's class.
func (b Binding[T]) Object(v *T) *Object { return b.kind.object(reflect.ValueOf(v).Elem()) }

// Read fills v from o by attribute name (see the rules at the head of this
// file) and reports whether o is an object of a class with the kind's name;
// if it is not, v is untouched.
func (b Binding[T]) Read(o *Object, v *T) bool { return b.kind.read(o, reflect.ValueOf(v).Elem()) }

// object boxes each field through its typed getter, so a small integer or
// an empty string costs no allocation, exactly as a hand-written Set would.
func (k *Bound) object(v reflect.Value) *Object {
	slots := make([]Value, len(k.fields))
	for i, f := range k.fields {
		switch fv := v.Field(f.index); fv.Kind() {
		case reflect.String:
			slots[i] = fv.String()
		case reflect.Bool:
			slots[i] = fv.Bool()
		case reflect.Float64:
			slots[i] = fv.Float()
		case reflect.Int, reflect.Int64:
			slots[i] = fv.Int()
		case reflect.Uint64:
			slots[i] = int64(fv.Uint())
		case reflect.Struct:
			slots[i] = fv.Interface() // a time.Time: Bind admits no other struct
		case reflect.Slice:
			list := make(List, fv.Len())
			for j := range list {
				if f.elem != nil {
					list[j] = f.elem.object(fv.Index(j))
				} else {
					list[j] = fv.Index(j).String()
				}
			}
			slots[i] = list
		}
	}
	return &Object{typ: k.typ, slots: slots}
}

func (k *Bound) read(o *Object, v reflect.Value) bool {
	if o == nil || o.typ.name != k.typ.name {
		return false
	}
	for i, f := range k.fields {
		slot := o.typ.AttrIndex(k.typ.all[i].Name)
		if slot < 0 {
			continue
		}
		fv := v.Field(f.index)
		switch x := o.slots[slot].(type) {
		case string:
			if fv.Kind() == reflect.String && (f.max == 0 || len(x) <= f.max) {
				fv.SetString(x)
			}
		case bool:
			if fv.Kind() == reflect.Bool {
				fv.SetBool(x)
			}
		case float64:
			if fv.Kind() == reflect.Float64 {
				fv.SetFloat(x)
			}
		case int64:
			if fv.CanInt() {
				fv.SetInt(x)
			} else if fv.CanUint() {
				fv.SetUint(uint64(x))
			}
		case time.Time:
			if fv.Type() == timeType {
				fv.Set(reflect.ValueOf(x))
			}
		case List:
			if fv.Kind() != reflect.Slice {
				continue
			}
			if f.max > 0 && len(x) > f.max {
				x = x[:f.max]
			}
			out, n := reflect.MakeSlice(fv.Type(), len(x), len(x)), 0
			for _, e := range x {
				if s, ok := e.(string); ok && f.elem == nil {
					out.Index(n).SetString(s)
					n++
				} else if eo, ok := e.(*Object); ok && f.elem != nil && f.elem.read(eo, out.Index(n)) {
					n++
				}
			}
			fv.Set(out.Slice(0, n))
		}
	}
	return true
}
