package mop

import (
	"errors"
	"fmt"
	"time"
)

// Value is the dynamic representation of a data value on the bus. The
// permitted dynamic types are:
//
//	bool                    KindBool
//	int64                   KindInt
//	float64                 KindFloat
//	string                  KindString
//	[]byte                  KindBytes
//	time.Time               KindTime
//	List                    KindList (and values of KindAny slots)
//	*Object                 KindClass
//	nil                     absent class/list/bytes/any value
//
// Values are checked against declared types on every Set, so an Object can
// never hold an attribute value inconsistent with its type descriptor.
type Value = any

// List is the dynamic representation of a list value.
type List []Value

// Errors reported by value checking.
var (
	ErrTypeMismatch = errors.New("mop: value does not conform to type")
	ErrBadValue     = errors.New("mop: unsupported dynamic value")
)

// ValueType returns the most specific Type of a dynamic value. Lists yield
// list<any> unless empty (the declared type carries element information;
// a dynamic list alone cannot). Nil has no type and returns nil.
func ValueType(v Value) *Type {
	switch x := v.(type) {
	case nil:
		return nil
	case bool:
		return Bool
	case int64:
		return Int
	case float64:
		return Float
	case string:
		return String
	case []byte:
		return Bytes
	case time.Time:
		return Time
	case List:
		return ListOf(Any)
	case *Object:
		if x == nil {
			return nil
		}
		return x.Type()
	default:
		return nil
	}
}

// CheckValue verifies that the dynamic value v conforms to the declared
// type t. Class- and list-typed slots (and Any) accept nil.
func CheckValue(t *Type, v Value) error {
	if t == nil {
		return fmt.Errorf("nil type: %w", ErrTypeMismatch)
	}
	switch t.kind {
	case KindAny:
		return checkAny(v)
	case KindBool:
		if _, ok := v.(bool); !ok {
			return mismatch(t, v)
		}
	case KindInt:
		if _, ok := v.(int64); !ok {
			return mismatch(t, v)
		}
	case KindFloat:
		if _, ok := v.(float64); !ok {
			return mismatch(t, v)
		}
	case KindString:
		if _, ok := v.(string); !ok {
			return mismatch(t, v)
		}
	case KindBytes:
		if v == nil {
			return nil
		}
		if _, ok := v.([]byte); !ok {
			return mismatch(t, v)
		}
	case KindTime:
		if _, ok := v.(time.Time); !ok {
			return mismatch(t, v)
		}
	case KindList:
		if v == nil {
			return nil
		}
		l, ok := v.(List)
		if !ok {
			return mismatch(t, v)
		}
		for i, e := range l {
			if err := CheckValue(t.elem, e); err != nil {
				return fmt.Errorf("list element %d: %w", i, err)
			}
		}
	case KindClass:
		if v == nil {
			return nil
		}
		o, ok := v.(*Object)
		if !ok {
			return mismatch(t, v)
		}
		if o == nil {
			return nil
		}
		if !o.Type().IsSubtypeOf(t) {
			return fmt.Errorf("object of class %q is not a subtype of %q: %w",
				o.Type().Name(), t.Name(), ErrTypeMismatch)
		}
	default:
		return fmt.Errorf("type %q has invalid kind: %w", t.Name(), ErrTypeMismatch)
	}
	return nil
}

// checkAny verifies that v is one of the permitted dynamic representations,
// recursively for lists.
func checkAny(v Value) error {
	switch x := v.(type) {
	case nil, bool, int64, float64, string, []byte, time.Time, *Object:
		return nil
	case List:
		for i, e := range x {
			if err := checkAny(e); err != nil {
				return fmt.Errorf("list element %d: %w", i, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("dynamic type %T: %w", v, ErrBadValue)
	}
}

func mismatch(t *Type, v Value) error {
	return fmt.Errorf("value of dynamic type %T does not conform to %q: %w", v, t.Name(), ErrTypeMismatch)
}

// zeroTime is the zero time.Time boxed once: a Value is immutable, so every
// caller of ZeroValue shares it.
var zeroTime Value = time.Time{}

// ZeroValue returns the zero value for a declared type: false, 0, 0.0, "",
// the zero time, and nil for bytes, lists, classes, and any. No result costs
// an allocation.
func ZeroValue(t *Type) Value {
	switch t.kind {
	case KindBool:
		return false
	case KindInt:
		return int64(0)
	case KindFloat:
		return float64(0)
	case KindString:
		return ""
	case KindTime:
		return zeroTime
	default:
		return nil
	}
}

// EqualValues reports deep equality of two dynamic values. Objects compare
// by type identity and attribute-wise equality; times by time.Time.Equal.
// Equality is reflexive: a float NaN equals any NaN, so a value holding one
// equals its own clone, and TDL's eq? on two NaNs returns true.
func EqualValues(a, b Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case int64:
		y, ok := b.(int64)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && (x == y || x != x && y != y)
	case string:
		y, ok := b.(string)
		return ok && x == y
	case time.Time:
		y, ok := b.(time.Time)
		return ok && x.Equal(y)
	case []byte:
		y, ok := b.([]byte)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case List:
		y, ok := b.(List)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !EqualValues(x[i], y[i]) {
				return false
			}
		}
		return true
	case *Object:
		y, ok := b.(*Object)
		if !ok {
			return false
		}
		return x.Equal(y)
	default:
		return false
	}
}

// CloneValue returns a deep copy of a dynamic value. Objects and lists are
// copied recursively; scalars are returned as-is.
func CloneValue(v Value) Value {
	switch x := v.(type) {
	case []byte:
		return append([]byte(nil), x...)
	case List:
		out := make(List, len(x))
		for i, e := range x {
			out[i] = CloneValue(e)
		}
		return out
	case *Object:
		if x == nil {
			return (*Object)(nil)
		}
		return x.Clone()
	default:
		return v
	}
}

// ShareValue returns a value that any number of readers may hold at once
// together with v. It is v itself when no part of v can be written: scalars,
// strings, times, and frozen objects whose parts are such too. Otherwise it
// is a copy in which every []byte and List is new, since Go cannot freeze
// them, and every object is frozen; a part that could be returned itself is
// shared, not copied. A copied object's []byte and List attributes sit in
// its header cells, as a decoded object's do.
func ShareValue(v Value) Value { return share(v, nil) }

// share is ShareValue storing a copied []byte or List in cell.
func share(v Value, cell *Cell) Value {
	if immutable(v) {
		return v
	}
	switch x := v.(type) {
	case []byte:
		return cell.Bytes(append([]byte(nil), x...))
	case List:
		out := make(List, len(x))
		for i, e := range x {
			out[i] = share(e, nil)
		}
		return cell.List(out)
	case *Object:
		c, cells := alloc(x.typ, x.typ.cells)
		for i, e := range x.all() {
			var cell *Cell
			if hasCell(x.typ.all[i].Type) {
				cell, cells = &cells[0], cells[1:]
			}
			c.slots[i] = share(e, cell)
		}
		c.slots = c.slots[:0]
		return c
	}
	return v
}

// immutable reports whether no part of v can be written. A []byte or List
// that has room for an element can; an object that is neither frozen nor
// empty can.
func immutable(v Value) bool {
	switch x := v.(type) {
	case []byte:
		return cap(x) == 0
	case List:
		return cap(x) == 0
	case *Object:
		if x == nil {
			return true
		}
		if len(x.slots) > 0 {
			return false
		}
		for _, e := range x.all() {
			if !immutable(e) {
				return false
			}
		}
		return true
	}
	return true
}
