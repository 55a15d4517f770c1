package mop

import (
	"errors"
	"fmt"
)

// Object is a dynamic instance of a class type: the data objects the bus
// disseminates. Attribute values live in slots aligned with the flattened
// attribute order of the class, so Get/Set by name cost one map lookup and
// introspective iteration costs a slice walk.
//
// An Object is not internally synchronised; like the paper's data objects it
// is a value that is copied, marshalled, and transmitted. A frozen object
// (NewFrozen: what the wire decoder returns) refuses Set and SetAt and may
// be read by any number of goroutines; Clone returns an editable copy. Share
// an editable object between goroutines only after Clone or by convention of
// ownership transfer.
//
// The freeze mark costs no field: a frozen object's slots have length 0 and
// their full capacity, so every read goes through all and every write checks
// writable first.
type Object struct {
	typ   *Type
	slots []Value
}

// Errors reported by object attribute access.
var (
	ErrNotClass = errors.New("mop: type is not a class")
	ErrNoAttr   = errors.New("mop: no such attribute")
	ErrFrozen   = errors.New("mop: object is frozen")
)

// instantiable reports why t cannot have instances: only classes do.
func instantiable(t *Type) error {
	if t == nil {
		return fmt.Errorf("<nil>: %w", ErrNotClass)
	}
	if t.kind != KindClass {
		return fmt.Errorf("%s: %w", t.Name(), ErrNotClass)
	}
	return nil
}

// New creates an instance of a class with every attribute set to its
// declared zero value.
func New(t *Type) (*Object, error) {
	if err := instantiable(t); err != nil {
		return nil, err
	}
	o := alloc(t, len(t.all))
	for i, a := range t.all {
		o.slots[i] = ZeroValue(a.Type)
	}
	return o, nil
}

// NewFrom creates an instance of a class whose slot i holds fill(i), the
// slots being filled in the order of Type().Attrs(). Every value is checked
// against its attribute's declared type exactly as SetAt would check it, and
// the first error — fill's own, returned as is, or a failed check — abandons
// the object. Decoders use it instead of New followed by SetAt per slot: New
// fills every slot with a zero value only for the decoder to overwrite it.
func NewFrom(t *Type, fill func(slot int) (Value, error)) (*Object, error) {
	if err := instantiable(t); err != nil {
		return nil, err
	}
	o := alloc(t, len(t.all))
	for i, a := range t.all {
		v, err := fill(i)
		if err != nil {
			return nil, err
		}
		if err := CheckValue(a.Type, v); err != nil {
			return nil, fmt.Errorf("class %q attribute %q: %w", t.Name(), a.Name, err)
		}
		o.slots[i] = v
	}
	return o, nil
}

// NewFrozen is NewFrom whose object is frozen: Set and SetAt on it fail
// with ErrFrozen. Objects fill stores in it keep their own mark.
func NewFrozen(t *Type, fill func(slot int) (Value, error)) (*Object, error) {
	o, err := NewFrom(t, fill)
	if err != nil {
		return nil, err
	}
	o.slots = o.slots[:0]
	return o, nil
}

// alloc returns an object of class t with n nil slots. Up to 16 slots, the
// object and its slots are one allocation, a block sized for exactly n; a
// larger class pays a second one for its slots.
func alloc(t *Type, n int) *Object {
	switch n {
	case 1:
		return carve(t, func(a *[1]Value) []Value { return a[:] })
	case 2:
		return carve(t, func(a *[2]Value) []Value { return a[:] })
	case 3:
		return carve(t, func(a *[3]Value) []Value { return a[:] })
	case 4:
		return carve(t, func(a *[4]Value) []Value { return a[:] })
	case 5:
		return carve(t, func(a *[5]Value) []Value { return a[:] })
	case 6:
		return carve(t, func(a *[6]Value) []Value { return a[:] })
	case 7:
		return carve(t, func(a *[7]Value) []Value { return a[:] })
	case 8:
		return carve(t, func(a *[8]Value) []Value { return a[:] })
	case 9:
		return carve(t, func(a *[9]Value) []Value { return a[:] })
	case 10:
		return carve(t, func(a *[10]Value) []Value { return a[:] })
	case 11:
		return carve(t, func(a *[11]Value) []Value { return a[:] })
	case 12:
		return carve(t, func(a *[12]Value) []Value { return a[:] })
	case 13:
		return carve(t, func(a *[13]Value) []Value { return a[:] })
	case 14:
		return carve(t, func(a *[14]Value) []Value { return a[:] })
	case 15:
		return carve(t, func(a *[15]Value) []Value { return a[:] })
	case 16:
		return carve(t, func(a *[16]Value) []Value { return a[:] })
	}
	return &Object{typ: t, slots: make([]Value, n)}
}

// carve allocates an object and its slot array A together and points the
// object's slots at the array.
func carve[A any](t *Type, slots func(*A) []Value) *Object {
	b := new(struct {
		o Object
		a A
	})
	b.o = Object{typ: t, slots: slots(&b.a)}
	return &b.o
}

// MustNew is New that panics on error.
func MustNew(t *Type) *Object {
	o, err := New(t)
	if err != nil {
		panic(err)
	}
	return o
}

// Type returns the object's class descriptor (the entry point of the
// meta-object protocol for this instance).
func (o *Object) Type() *Type { return o.typ }

// frozen reports whether the object refuses Set and SetAt. An object of a
// class without attributes has nothing to set and is never marked.
func (o *Object) frozen() bool { return len(o.slots) < cap(o.slots) }

// all returns every slot, frozen or not.
func (o *Object) all() []Value { return o.slots[:cap(o.slots)] }

// writable reports ErrFrozen for a frozen object.
func (o *Object) writable() error {
	if o.frozen() {
		return fmt.Errorf("class %q: %w", o.typ.Name(), ErrFrozen)
	}
	return nil
}

// Get returns the value of the named attribute.
func (o *Object) Get(name string) (Value, error) {
	i := o.typ.AttrIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("class %q attribute %q: %w", o.typ.Name(), name, ErrNoAttr)
	}
	return o.all()[i], nil
}

// MustGet is Get that panics on unknown attribute; for attributes the
// caller just obtained from the type descriptor.
func (o *Object) MustGet(name string) Value {
	v, err := o.Get(name)
	if err != nil {
		panic(err)
	}
	return v
}

// Set stores a value into the named attribute after checking it against the
// attribute's declared type. A frozen object refuses with ErrFrozen.
func (o *Object) Set(name string, v Value) error {
	i := o.typ.AttrIndex(name)
	if i < 0 {
		return fmt.Errorf("class %q attribute %q: %w", o.typ.Name(), name, ErrNoAttr)
	}
	if err := o.writable(); err != nil {
		return err
	}
	if err := CheckValue(o.typ.all[i].Type, v); err != nil {
		return fmt.Errorf("class %q attribute %q: %w", o.typ.Name(), name, err)
	}
	o.slots[i] = v
	return nil
}

// MustSet is Set that panics on error; for statically known assignments.
func (o *Object) MustSet(name string, v Value) *Object {
	if err := o.Set(name, v); err != nil {
		panic(err)
	}
	return o
}

// GetAt returns the value in slot i (the order of Type().Attrs()).
func (o *Object) GetAt(i int) Value { return o.all()[i] }

// SetAt stores into slot i with type checking. A frozen object refuses with
// ErrFrozen.
func (o *Object) SetAt(i int, v Value) error {
	if i < 0 || i >= cap(o.slots) {
		return fmt.Errorf("class %q slot %d: %w", o.typ.Name(), i, ErrNoAttr)
	}
	if err := o.writable(); err != nil {
		return err
	}
	if err := CheckValue(o.typ.all[i].Type, v); err != nil {
		return fmt.Errorf("class %q attribute %q: %w", o.typ.Name(), o.typ.all[i].Name, err)
	}
	o.slots[i] = v
	return nil
}

// Clone returns a deep copy of the object, editable throughout even when o
// or a part of it is frozen.
func (o *Object) Clone() *Object {
	if o == nil {
		return nil
	}
	c := alloc(o.typ, cap(o.slots))
	for i, v := range o.all() {
		c.slots[i] = CloneValue(v)
	}
	return c
}

// Equal reports whether two objects have the identical class and equal
// attribute values.
func (o *Object) Equal(p *Object) bool {
	if o == nil || p == nil {
		return o == p
	}
	if o.typ != p.typ {
		return false
	}
	ps := p.all()
	for i, v := range o.all() {
		if !EqualValues(v, ps[i]) {
			return false
		}
	}
	return true
}

// String renders a compact single-line description, mainly for logs and
// test failure messages. Use Print for the full recursive rendering.
func (o *Object) String() string {
	if o == nil {
		return "<nil>"
	}
	s := o.typ.Name() + "{"
	for i, a := range o.typ.all {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%v", a.Name, o.all()[i])
	}
	return s + "}"
}
