package mop

import (
	"errors"
	"fmt"
	"unsafe"
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
	o, _ := alloc(t, 0)
	for i, a := range t.all {
		o.slots[i] = ZeroValue(a.Type)
	}
	return o, nil
}

// NewFrozen creates a frozen instance of a class — Set and SetAt on it fail
// with ErrFrozen — whose slot i holds fill(i, cell), the slots being filled
// in the order of Type().Attrs(). Every value is checked against its
// attribute's declared type exactly as SetAt would check it, and the first
// error — fill's own, returned as is, or a failed check — abandons the
// object. Decoders use it instead of New followed by SetAt per slot: New
// fills every slot with a zero value only for the decoder to overwrite it.
//
// cell is the slot's header cell for an attribute declared Bytes or
// ListOf(...), nil for any other: fill may return cell.Bytes or cell.List
// of its value, which then costs no box of its own. Objects fill stores in
// the object keep their own mark.
func NewFrozen(t *Type, fill func(slot int, cell *Cell) (Value, error)) (*Object, error) {
	if err := instantiable(t); err != nil {
		return nil, err
	}
	o, cells := alloc(t, t.cells)
	for i, a := range t.all {
		var c *Cell
		if hasCell(a.Type) {
			c, cells = &cells[0], cells[1:]
		}
		v, err := fill(i, c)
		if err != nil {
			return nil, err
		}
		if err := CheckValue(a.Type, v); err != nil {
			return nil, fmt.Errorf("class %q attribute %q: %w", t.Name(), a.Name, err)
		}
		o.slots[i] = v
	}
	o.slots = o.slots[:0]
	return o, nil
}

// Cell is the header of the []byte or List value of one attribute, carved
// with a frozen object: NewFrozen hands one to fill, and ShareValue's copy
// uses them, for each attribute declared Bytes or ListOf(...). A cell has
// the {ptr, len, cap} layout of both, so the slot's interface can point at
// it (BoxAt) instead of at a box of its own. A cell is written once, by the
// fill it was handed to, before the value is stored; an interface copies a
// header out of its cell on every read and never hands out the cell's
// address, so nothing writes it again.
type Cell struct {
	ptr      unsafe.Pointer
	len, cap int
}

// The dynamic types a cell's value takes, each read from a sample value.
var (
	bytesType Value = []byte(nil)
	listType  Value = List(nil)
)

// Bytes stores b in the cell and returns it as a Value whose data word is
// the cell. A nil cell returns b boxed by Go.
func (c *Cell) Bytes(b []byte) Value {
	if c == nil {
		return b
	}
	*c = Cell{unsafe.Pointer(unsafe.SliceData(b)), len(b), cap(b)}
	return BoxAt(bytesType, c)
}

// List stores l in the cell and returns it as a Value whose data word is
// the cell. A nil cell returns l boxed by Go.
func (c *Cell) List(l List) Value {
	if c == nil {
		return l
	}
	*c = Cell{unsafe.Pointer(unsafe.SliceData(l)), len(l), cap(l)}
	return BoxAt(listType, c)
}

// hasCell reports whether a slot of declared type t gets a header cell.
func hasCell(t *Type) bool { return t.kind == KindBytes || t.kind == KindList }

// BoxAt returns an interface with sample's dynamic type whose data word is
// slot: a box that Go did not allocate. It is the module's one unsafe
// interface construction, and it is sound because every caller keeps two
// invariants:
//
//   - T has the pointer layout of sample's dynamic type (T is that type,
//     uint64 for int64 and float64, or Cell for []byte and List), so the GC
//     scans the memory that holds the slot as it would scan the box;
//   - nothing writes through a box: the slot was written before BoxAt
//     hands out its address and is never written again (a wire decoder's
//     chunks, a frozen object's cells).
func BoxAt[T any](sample Value, slot *T) Value {
	words := (*[2]unsafe.Pointer)(unsafe.Pointer(&sample))
	words[1] = unsafe.Pointer(slot)
	return sample
}

// alloc returns an object of class t with nil slots and the given number of
// header cells. Up to 16 slots, the object, its slots and its cells are one
// allocation, a block sized for exactly them; a larger class pays a second
// one for its slots and a third for its cells. Only a frozen object asks
// for cells: an editable one is handed values Go has boxed already.
func alloc(t *Type, cells int) (*Object, []Cell) {
	switch n := len(t.all); n {
	case 1:
		return carve(t, cells, func(a *[1]Value) []Value { return a[:] })
	case 2:
		return carve(t, cells, func(a *[2]Value) []Value { return a[:] })
	case 3:
		return carve(t, cells, func(a *[3]Value) []Value { return a[:] })
	case 4:
		return carve(t, cells, func(a *[4]Value) []Value { return a[:] })
	case 5:
		return carve(t, cells, func(a *[5]Value) []Value { return a[:] })
	case 6:
		return carve(t, cells, func(a *[6]Value) []Value { return a[:] })
	case 7:
		return carve(t, cells, func(a *[7]Value) []Value { return a[:] })
	case 8:
		return carve(t, cells, func(a *[8]Value) []Value { return a[:] })
	case 9:
		return carve(t, cells, func(a *[9]Value) []Value { return a[:] })
	case 10:
		return carve(t, cells, func(a *[10]Value) []Value { return a[:] })
	case 11:
		return carve(t, cells, func(a *[11]Value) []Value { return a[:] })
	case 12:
		return carve(t, cells, func(a *[12]Value) []Value { return a[:] })
	case 13:
		return carve(t, cells, func(a *[13]Value) []Value { return a[:] })
	case 14:
		return carve(t, cells, func(a *[14]Value) []Value { return a[:] })
	case 15:
		return carve(t, cells, func(a *[15]Value) []Value { return a[:] })
	case 16:
		return carve(t, cells, func(a *[16]Value) []Value { return a[:] })
	default:
		return &Object{typ: t, slots: make([]Value, n)}, make([]Cell, cells)
	}
}

// carve allocates an object with its slot array A and k cells together.
// k <= len(A), since a class has at most one cell per slot; the switch
// still instantiates block for every k up to 16 with every A, about half of
// them pairs that never run, so extend neither bound without reason.
func carve[A any](t *Type, k int, slots func(*A) []Value) (*Object, []Cell) {
	switch k {
	case 0:
		// Not a block with a [0]Cell: a zero-size last field pads a struct.
		b := new(struct {
			o Object
			a A
		})
		b.o = Object{typ: t, slots: slots(&b.a)}
		return &b.o, nil
	case 1:
		return block(t, slots, func(c *[1]Cell) []Cell { return c[:] })
	case 2:
		return block(t, slots, func(c *[2]Cell) []Cell { return c[:] })
	case 3:
		return block(t, slots, func(c *[3]Cell) []Cell { return c[:] })
	case 4:
		return block(t, slots, func(c *[4]Cell) []Cell { return c[:] })
	case 5:
		return block(t, slots, func(c *[5]Cell) []Cell { return c[:] })
	case 6:
		return block(t, slots, func(c *[6]Cell) []Cell { return c[:] })
	case 7:
		return block(t, slots, func(c *[7]Cell) []Cell { return c[:] })
	case 8:
		return block(t, slots, func(c *[8]Cell) []Cell { return c[:] })
	case 9:
		return block(t, slots, func(c *[9]Cell) []Cell { return c[:] })
	case 10:
		return block(t, slots, func(c *[10]Cell) []Cell { return c[:] })
	case 11:
		return block(t, slots, func(c *[11]Cell) []Cell { return c[:] })
	case 12:
		return block(t, slots, func(c *[12]Cell) []Cell { return c[:] })
	case 13:
		return block(t, slots, func(c *[13]Cell) []Cell { return c[:] })
	case 14:
		return block(t, slots, func(c *[14]Cell) []Cell { return c[:] })
	case 15:
		return block(t, slots, func(c *[15]Cell) []Cell { return c[:] })
	default:
		return block(t, slots, func(c *[16]Cell) []Cell { return c[:] })
	}
}

// block allocates an object, its slot array A and its cell array C as one
// struct and points the object's slots at the array.
func block[A, C any](t *Type, slots func(*A) []Value, cells func(*C) []Cell) (*Object, []Cell) {
	b := new(struct {
		o Object
		a A
		c C
	})
	b.o = Object{typ: t, slots: slots(&b.a)}
	return &b.o, cells(&b.c)
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
	c, _ := alloc(o.typ, 0)
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
