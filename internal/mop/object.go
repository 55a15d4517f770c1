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
// is a value that is copied, marshalled, and transmitted. Share between
// goroutines only after Clone or by convention of ownership transfer.
type Object struct {
	typ   *Type
	slots []Value
}

// Errors reported by object attribute access.
var (
	ErrNotClass = errors.New("mop: type is not a class")
	ErrNoAttr   = errors.New("mop: no such attribute")
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
	slots := make([]Value, len(t.all))
	for i, a := range t.all {
		slots[i] = ZeroValue(a.Type)
	}
	return &Object{typ: t, slots: slots}, nil
}

// NewFrom creates an instance of a class whose slot i holds fill(i), the
// slots being filled in the order of Type().Attrs(). Every value is checked
// against its attribute's declared type exactly as SetAt would check it, and
// the first error — fill's own, returned as is, or a failed check — abandons
// the object. Decoders use it instead of New followed by SetAt per slot: New
// fills every slot with a zero value (boxing a time.Time per time attribute)
// only for the decoder to overwrite it.
func NewFrom(t *Type, fill func(slot int) (Value, error)) (*Object, error) {
	if err := instantiable(t); err != nil {
		return nil, err
	}
	slots := make([]Value, len(t.all))
	for i, a := range t.all {
		v, err := fill(i)
		if err != nil {
			return nil, err
		}
		if err := CheckValue(a.Type, v); err != nil {
			return nil, fmt.Errorf("class %q attribute %q: %w", t.Name(), a.Name, err)
		}
		slots[i] = v
	}
	return &Object{typ: t, slots: slots}, nil
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

// Get returns the value of the named attribute.
func (o *Object) Get(name string) (Value, error) {
	i := o.typ.AttrIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("class %q attribute %q: %w", o.typ.Name(), name, ErrNoAttr)
	}
	return o.slots[i], nil
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
// attribute's declared type.
func (o *Object) Set(name string, v Value) error {
	i := o.typ.AttrIndex(name)
	if i < 0 {
		return fmt.Errorf("class %q attribute %q: %w", o.typ.Name(), name, ErrNoAttr)
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
func (o *Object) GetAt(i int) Value { return o.slots[i] }

// SetAt stores into slot i with type checking.
func (o *Object) SetAt(i int, v Value) error {
	if i < 0 || i >= len(o.slots) {
		return fmt.Errorf("class %q slot %d: %w", o.typ.Name(), i, ErrNoAttr)
	}
	if err := CheckValue(o.typ.all[i].Type, v); err != nil {
		return fmt.Errorf("class %q attribute %q: %w", o.typ.Name(), o.typ.all[i].Name, err)
	}
	o.slots[i] = v
	return nil
}

// Clone returns a deep copy of the object.
func (o *Object) Clone() *Object {
	if o == nil {
		return nil
	}
	slots := make([]Value, len(o.slots))
	for i, v := range o.slots {
		slots[i] = CloneValue(v)
	}
	return &Object{typ: o.typ, slots: slots}
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
	for i := range o.slots {
		if !EqualValues(o.slots[i], p.slots[i]) {
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
		s += fmt.Sprintf("%s:%v", a.Name, o.slots[i])
	}
	return s + "}"
}
