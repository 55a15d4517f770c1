// Package mop implements the meta-object protocol of the Information Bus
// (SOSP '93, principle P2: self-describing objects).
//
// Every object on the bus is an instance of a Type. A Type is an abstraction
// whose behaviour is defined by an interface: a set of named, typed
// attributes and a set of operations with signatures. Types are organised in
// a supertype/subtype hierarchy. Applications query objects for their type,
// attribute names, attribute types, and operation signatures at run time,
// which is what lets generic tools (the print utility, the Object
// Repository, the News Monitor) handle types they have never seen before.
//
// Types are immutable once constructed, so they are safe to share between
// goroutines without locking. New types can be defined at any time (P3,
// dynamic classing) and registered in a Registry.
package mop

import (
	"errors"
	"fmt"
	"strings"
)

// Kind enumerates the fundamental categories of types. Generic tools such
// as the print utility only need to understand kinds; they recurse through
// class and list structure to reach fundamentals.
type Kind uint8

const (
	KindInvalid Kind = iota
	KindBool
	KindInt    // 64-bit signed integer
	KindFloat  // 64-bit IEEE float
	KindString // UTF-8 string
	KindBytes  // opaque byte sequence
	KindTime   // nanoseconds since the Unix epoch (int64 on the wire)
	KindList   // homogeneous sequence of an element type
	KindClass  // named attributes + operations, with supertypes
	KindAny    // attribute slot that may hold a value of any type
)

var kindNames = [...]string{
	KindInvalid: "invalid",
	KindBool:    "bool",
	KindInt:     "int",
	KindFloat:   "float",
	KindString:  "string",
	KindBytes:   "bytes",
	KindTime:    "time",
	KindList:    "list",
	KindClass:   "class",
	KindAny:     "any",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Attr describes one named, typed attribute (the paper also calls these
// "instance variables" or "fields") of a class.
type Attr struct {
	Name string
	Type *Type
}

// Param describes one parameter of an operation.
type Param struct {
	Name string
	Type *Type
}

// Operation describes one operation in a type's interface: its name, its
// parameter signature, and its result type (nil for no result). The
// meta-object protocol exposes signatures so that tools like the Graphical
// Application Builder can construct dialogues for a service they have never
// seen (§5.2).
type Operation struct {
	Name   string
	Params []Param
	Result *Type
}

// Signature renders the operation as a human-readable signature string.
func (op Operation) Signature() string {
	var b strings.Builder
	b.WriteString(op.Name)
	b.WriteByte('(')
	for i, p := range op.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", p.Name, p.Type.Name())
	}
	b.WriteByte(')')
	if op.Result != nil {
		b.WriteString(" -> ")
		b.WriteString(op.Result.Name())
	}
	return b.String()
}

// Type is an immutable type descriptor. Fundamental types are package
// singletons (Bool, Int, ...); list types are interned via ListOf; class
// types are created with NewClass.
type Type struct {
	name   string
	kind   Kind
	elem   *Type // list element type
	supers []*Type
	own    []Attr // attributes declared by this class
	all    []Attr // flattened: inherited first, then own; slot order
	cells  int    // attributes in all declared Bytes or ListOf(...) (see Cell)
	ops    []Operation
	index  map[string]int // attribute name -> slot index in all
	opIdx  map[string]int
}

// Fundamental type singletons. Their names are reserved in every Registry.
var (
	Bool   = &Type{name: "bool", kind: KindBool}
	Int    = &Type{name: "int", kind: KindInt}
	Float  = &Type{name: "float", kind: KindFloat}
	String = &Type{name: "string", kind: KindString}
	Bytes  = &Type{name: "bytes", kind: KindBytes}
	Time   = &Type{name: "time", kind: KindTime}
	Any    = &Type{name: "any", kind: KindAny}
)

// Fundamentals returns the fundamental type singletons in a stable order.
func Fundamentals() []*Type {
	return []*Type{Bool, Int, Float, String, Bytes, Time, Any}
}

// ListOf returns the list type with the given element type. List types are
// structural: two calls with the same element type return equal descriptors
// (same pointer for fundamentals and interned classes is not guaranteed, so
// compare with Same).
func ListOf(elem *Type) *Type {
	if elem == nil {
		panic("mop: ListOf(nil)")
	}
	return &Type{name: "list<" + elem.name + ">", kind: KindList, elem: elem}
}

// Errors reported by NewClass.
var (
	ErrBadTypeName   = errors.New("mop: invalid type name")
	ErrDupAttr       = errors.New("mop: duplicate attribute name")
	ErrDupOperation  = errors.New("mop: duplicate operation name")
	ErrBadSupertype  = errors.New("mop: supertype is not a class")
	ErrNilAttrType   = errors.New("mop: attribute has nil type")
	ErrAttrConflict  = errors.New("mop: attribute conflicts with inherited attribute of different type")
	ErrEmptyAttrName = errors.New("mop: empty attribute name")
)

// NewClass creates a new class type implementing the named type. A class
// may have any number of supertype classes (CLOS-style multiple
// inheritance); inherited attributes are flattened in supertype order,
// duplicates collapsing to the first occurrence. Redeclaring an inherited
// attribute with the identical type is permitted (and is a no-op);
// redeclaring it with a different type is an error.
func NewClass(name string, supers []*Type, attrs []Attr, ops []Operation) (*Type, error) {
	if !validTypeName(name) {
		return nil, fmt.Errorf("%q: %w", name, ErrBadTypeName)
	}
	t := &Type{
		name:   name,
		kind:   KindClass,
		supers: append([]*Type(nil), supers...),
		own:    append([]Attr(nil), attrs...),
		ops:    append([]Operation(nil), ops...),
		index:  make(map[string]int),
		opIdx:  make(map[string]int),
	}
	for _, s := range supers {
		if s == nil || s.kind != KindClass {
			return nil, fmt.Errorf("class %q: %w", name, ErrBadSupertype)
		}
		for _, a := range s.all {
			if j, ok := t.index[a.Name]; ok {
				if !Same(t.all[j].Type, a.Type) {
					return nil, fmt.Errorf("class %q attribute %q: %w", name, a.Name, ErrAttrConflict)
				}
				continue
			}
			t.index[a.Name] = len(t.all)
			t.all = append(t.all, a)
		}
		for _, op := range s.ops {
			if _, ok := t.opIdx[op.Name]; ok {
				continue // first (leftmost) supertype wins, CLOS-style
			}
			t.opIdx[op.Name] = len(t.ops)
			// Inherited operations come after own ones only if not shadowed.
		}
	}
	// Rebuild the operation table: own operations shadow inherited ones.
	t.ops, t.opIdx = flattenOps(name, supers, ops)

	seenOwn := make(map[string]struct{})
	for _, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("class %q: %w", name, ErrEmptyAttrName)
		}
		if a.Type == nil {
			return nil, fmt.Errorf("class %q attribute %q: %w", name, a.Name, ErrNilAttrType)
		}
		if _, dup := seenOwn[a.Name]; dup {
			return nil, fmt.Errorf("class %q attribute %q: %w", name, a.Name, ErrDupAttr)
		}
		seenOwn[a.Name] = struct{}{}
		if j, ok := t.index[a.Name]; ok {
			if !Same(t.all[j].Type, a.Type) {
				return nil, fmt.Errorf("class %q attribute %q: %w", name, a.Name, ErrAttrConflict)
			}
			continue
		}
		t.index[a.Name] = len(t.all)
		t.all = append(t.all, a)
	}
	for _, a := range t.all {
		if hasCell(a.Type) {
			t.cells++
		}
	}
	return t, nil
}

func flattenOps(name string, supers []*Type, own []Operation) ([]Operation, map[string]int) {
	var out []Operation
	idx := make(map[string]int)
	add := func(op Operation) {
		if j, ok := idx[op.Name]; ok {
			out[j] = op // later (more specific) definition shadows
			return
		}
		idx[op.Name] = len(out)
		out = append(out, op)
	}
	for i := len(supers) - 1; i >= 0; i-- { // rightmost first, leftmost shadows
		for _, op := range supers[i].ops {
			add(op)
		}
	}
	for _, op := range own {
		add(op)
	}
	return out, idx
}

// MustNewClass is NewClass that panics on error; for statically known types.
func MustNewClass(name string, supers []*Type, attrs []Attr, ops []Operation) *Type {
	t, err := NewClass(name, supers, attrs, ops)
	if err != nil {
		panic(err)
	}
	return t
}

func validTypeName(name string) bool {
	if name == "" || len(name) > 200 {
		return false
	}
	for _, r := range name {
		if r < 0x21 || r == 0x7f || r == '<' || r == '>' {
			return false
		}
	}
	return true
}

// Name returns the type's name ("bool", "list<Story>", "DowJonesStory"...).
func (t *Type) Name() string { return t.name }

// Kind returns the type's fundamental category.
func (t *Type) Kind() Kind { return t.kind }

// Elem returns the element type of a list type and nil otherwise.
func (t *Type) Elem() *Type { return t.elem }

// Supertypes returns the direct supertypes of a class (nil otherwise). The
// slice must not be modified.
func (t *Type) Supertypes() []*Type { return t.supers }

// Attrs returns the full flattened attribute list (inherited first). The
// slice must not be modified.
func (t *Type) Attrs() []Attr {
	return t.all
}

// OwnAttrs returns only the attributes declared directly by this class.
func (t *Type) OwnAttrs() []Attr { return t.own }

// NumAttrs returns the number of flattened attributes.
func (t *Type) NumAttrs() int { return len(t.all) }

// AttrIndex returns the slot index for the named attribute, or -1.
func (t *Type) AttrIndex(name string) int {
	if t.index == nil {
		return -1
	}
	if i, ok := t.index[name]; ok {
		return i
	}
	return -1
}

// Attr returns the descriptor for the named attribute.
func (t *Type) Attr(name string) (Attr, bool) {
	i := t.AttrIndex(name)
	if i < 0 {
		return Attr{}, false
	}
	return t.all[i], true
}

// Operations returns the type's operation table, most-specific definitions
// shadowing inherited ones. The slice must not be modified.
func (t *Type) Operations() []Operation { return t.ops }

// Operation returns the named operation.
func (t *Type) Operation(name string) (Operation, bool) {
	if t.opIdx == nil {
		return Operation{}, false
	}
	if i, ok := t.opIdx[name]; ok {
		return t.ops[i], true
	}
	return Operation{}, false
}

// Same reports structural identity of two types: fundamentals by kind,
// lists by element identity, classes by pointer (a class descriptor is the
// identity of the class).
func Same(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindList:
		return Same(a.elem, b.elem)
	case KindClass:
		return false // distinct class descriptors are distinct classes
	default:
		return true
	}
}

// IsSubtypeOf reports whether t is b or a (transitive) subtype of b.
func (t *Type) IsSubtypeOf(b *Type) bool {
	if Same(t, b) {
		return true
	}
	if t == nil || b == nil || t.kind != KindClass {
		return false
	}
	for _, s := range t.supers {
		if s.IsSubtypeOf(b) {
			return true
		}
	}
	return false
}

// AssignableTo reports whether a value of type t may be stored in a slot
// declared with type dst: anything is assignable to Any; classes are
// assignable to their supertypes; everything else requires structural
// identity.
func (t *Type) AssignableTo(dst *Type) bool {
	if dst == nil {
		return false
	}
	if dst.kind == KindAny {
		return true
	}
	if t == nil {
		return false
	}
	if t.kind == KindClass && dst.kind == KindClass {
		return t.IsSubtypeOf(dst)
	}
	return Same(t, dst)
}
