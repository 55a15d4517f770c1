// Package wire implements the self-describing wire format of the
// Information Bus. A marshalled message carries, ahead of the value itself,
// the structural description of every class the value references, so that a
// receiving node that has never seen the type can still decode, introspect,
// print, and store the object (principles P2 and P3: receivers adapt to new
// types at run time without re-programming or re-linking).
//
// Two written formats are provided, both one datagram per message:
//
//   - Marshal/Unmarshal: self-contained, every class description inline;
//     used by the bus's connectionless broadcast publications and by RMI.
//   - SendDict/UnmarshalWith (dict.go): the compact format, where a class
//     the sender has already described travels as its fingerprint.
//
// Unmarshal resolves incoming class descriptions against a mop.Registry:
// already-known classes are reused (preserving local subtype relations);
// unknown classes are reconstructed and registered on the fly.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"infobus/internal/mop"
)

// Version is the wire-format version carried in every message header.
const Version = 1

// The two magic bytes that open every wire message ("IB").
const (
	Magic0 = 'I'
	Magic1 = 'B'
)

// Value tags.
const (
	tagNil    = 0
	tagBool   = 1
	tagInt    = 2
	tagFloat  = 3
	tagString = 4
	tagBytes  = 5
	tagTime   = 6
	tagList   = 7
	tagObject = 8
)

// Type-reference tags (used inside class descriptions).
const (
	refBool   = 1
	refInt    = 2
	refFloat  = 3
	refString = 4
	refBytes  = 5
	refTime   = 6
	refAny    = 7
	refList   = 8
	refClass  = 9
)

// Wire format errors.
var (
	ErrBadMagic      = errors.New("wire: bad magic")
	ErrBadVersion    = errors.New("wire: unsupported version")
	ErrTruncated     = errors.New("wire: truncated message")
	ErrCorrupt       = errors.New("wire: corrupt message")
	ErrTypeConflict  = errors.New("wire: incoming type conflicts with registered type")
	ErrUnknownTag    = errors.New("wire: unknown value tag")
	ErrUnmarshalable = errors.New("wire: value cannot be marshalled")
	ErrTooLarge      = errors.New("wire: length field exceeds limit")
)

// maxLen bounds any single length field (string, bytes, list, table counts)
// to keep a corrupt or malicious message from provoking huge allocations.
const maxLen = 64 << 20

// maxValueDepth bounds value nesting on decode, so a crafted message of
// nested list tags cannot overflow the goroutine stack.
const maxValueDepth = 1000

// maxRefDepth bounds type-reference nesting (list<list<...>>).
const maxRefDepth = 100

// ErrTooDeep reports a message nested beyond the decoder's limits.
var ErrTooDeep = errors.New("wire: value or type nested too deeply")

// Marshal encodes a value as a self-contained, self-describing message.
func Marshal(v mop.Value) ([]byte, error) {
	return AppendMarshal(nil, v)
}

// AppendMarshal appends the marshalled encoding of v to dst and returns the
// extended slice. It lets hot-path callers reuse a scratch buffer; the bytes
// appended are identical to Marshal's output.
func AppendMarshal(dst []byte, v mop.Value) ([]byte, error) {
	b := buffer{bytes: dst}
	b.writeByte(Magic0)
	b.writeByte(Magic1)
	b.writeByte(Version)

	c := collectors.Get().(*collector)
	c.value(v)
	b.writeUvarint(uint64(len(c.out)))
	for _, t := range c.out {
		writeTypeDef(&b, t)
	}
	c.reset()
	collectors.Put(c)
	if err := writeValue(&b, v, nil); err != nil {
		return nil, err
	}
	return b.bytes, nil
}

// Unmarshal decodes a self-describing message, resolving or registering
// class descriptions in reg. It accepts both the self-contained format and
// the compact dictionary format (dict.go), but without a TypeCache a
// compact message can only decode if it carries all of its definitions
// inline; use UnmarshalWith on paths that receive steady-state compact
// traffic.
func Unmarshal(data []byte, reg *mop.Registry) (mop.Value, error) {
	return UnmarshalWith(data, reg, nil)
}

// unmarshalLegacy decodes the body of a Version-1 message (r is positioned
// just past the header). The type table's extent is found without parsing
// it and the section looked up in cache's table memo; on a hit the value is
// decoded with the classes the entry has bound, on a miss (and with a nil
// cache) the table is parsed and resolved as the value instantiates it, and
// what resolved is remembered.
func unmarshalLegacy(r *reader, reg *mop.Registry, cache *TypeCache) (mop.Value, error) {
	var section []byte
	var hit *tableEntry
	end, walked := skipTypeTable(r.data, r.pos)
	if walked {
		section = r.data[r.pos-1 : end]
		hit = cache.lookupTable(section, reg)
	}
	res := resolver{reg: reg}
	if hit != nil {
		res.defs, res.built, res.shared = hit.defs, hit.names, true
		r.pos = end
	} else {
		cache.countMiss()
		defs, err := readTypeTable(r)
		if err != nil {
			return nil, err
		}
		res.defs = defs
		walked = walked && r.pos == end
	}
	v, err := readValue(r, &res, nil, 0)
	if err != nil {
		return nil, err
	}
	if cache != nil && walked && !res.shared {
		cache.storeTable(section, hit, &tableEntry{reg: reg, defs: res.defs, names: res.built})
	}
	return v, nil
}

// skipTypeTable returns the offset just past the Version-1 type table that
// starts at pos, walking varints and string lengths only — no string is
// materialised, nothing is allocated — under the same length and depth
// guards as readTypeTable. It reports false for a table readTypeTable would
// not accept; the caller then parses it to find out why.
func skipTypeTable(data []byte, pos int) (end int, ok bool) {
	s := reader{data: data, pos: pos}
	n, err := s.readUvarint()
	if err != nil || n > maxLen {
		return 0, false
	}
	for i := uint64(0); i < n; i++ {
		if !s.skipTypeDef() {
			return 0, false
		}
	}
	return s.pos, true
}

// skipTypeDef steps over what readTypeDef parses.
func (r *reader) skipTypeDef() bool {
	if !r.skipString() {
		return false
	}
	ns, err := r.readUvarint()
	if err != nil {
		return false
	}
	for i := uint64(0); i < ns; i++ {
		if !r.skipString() {
			return false
		}
	}
	na, err := r.readUvarint()
	if err != nil {
		return false
	}
	for i := uint64(0); i < na; i++ {
		if !r.skipString() || !r.skipTypeRef(0) {
			return false
		}
	}
	no, err := r.readUvarint()
	if err != nil {
		return false
	}
	for i := uint64(0); i < no; i++ {
		if !r.skipString() {
			return false
		}
		np, err := r.readUvarint()
		if err != nil {
			return false
		}
		for j := uint64(0); j < np; j++ {
			if !r.skipString() || !r.skipTypeRef(0) {
				return false
			}
		}
		has, err := r.readByte()
		if err != nil || has != 0 && !r.skipTypeRef(0) {
			return false
		}
	}
	return true
}

// skipTypeRef steps over what readTypeRefDepth parses.
func (r *reader) skipTypeRef(depth int) bool {
	for ; depth <= maxRefDepth; depth++ {
		tag, err := r.readByte()
		if err != nil {
			return false
		}
		switch tag {
		case refBool, refInt, refFloat, refString, refBytes, refTime, refAny:
			return true
		case refList:
			// the element's reference follows
		case refClass:
			return r.skipString()
		default:
			return false
		}
	}
	return false
}

// readHeaderVer validates the magic bytes and returns the version byte,
// which the caller dispatches on.
func readHeaderVer(r *reader) (byte, error) {
	m0, err0 := r.readByte()
	m1, err1 := r.readByte()
	ver, err2 := r.readByte()
	if err0 != nil || err1 != nil || err2 != nil {
		return 0, ErrTruncated
	}
	if m0 != Magic0 || m1 != Magic1 {
		return 0, ErrBadMagic
	}
	return ver, nil
}

// ---------------------------------------------------------------------------
// Type collection (encoder side)

// collector gathers every class type reachable from a value — through
// dynamic object values, their declared attribute types, and supertypes —
// in an order where every class precedes the classes that reference it, so
// the decoder can build them in one pass.
type collector struct {
	seen map[*mop.Type]bool
	out  []*mop.Type
}

// collectors holds reset collectors for AppendMarshal, which otherwise
// allocates one, its map and its output per message.
var collectors = sync.Pool{New: func() any {
	return &collector{seen: make(map[*mop.Type]bool)}
}}

// reset empties the collector for its next value.
func (c *collector) reset() {
	clear(c.seen)
	c.out = c.out[:0]
}

func (c *collector) value(v mop.Value) {
	switch x := v.(type) {
	case mop.List:
		for _, e := range x {
			c.value(e)
		}
	case *mop.Object:
		if x != nil {
			c.class(x.Type())
			for i := range x.Type().Attrs() {
				c.value(x.GetAt(i))
			}
		}
	}
}

func (c *collector) typ(t *mop.Type) {
	switch t.Kind() {
	case mop.KindList:
		c.typ(t.Elem())
	case mop.KindClass:
		c.class(t)
	}
}

func (c *collector) class(t *mop.Type) {
	if c.seen[t] {
		return
	}
	c.seen[t] = true
	for _, s := range t.Supertypes() {
		c.class(s)
	}
	for _, a := range t.OwnAttrs() {
		c.typ(a.Type)
	}
	for _, op := range t.Operations() {
		for _, p := range op.Params {
			c.typ(p.Type)
		}
		if op.Result != nil {
			c.typ(op.Result)
		}
	}
	c.out = append(c.out, t)
}

// ---------------------------------------------------------------------------
// Type descriptions

func writeTypeDef(b *buffer, t *mop.Type) {
	b.writeString(t.Name())
	supers := t.Supertypes()
	b.writeUvarint(uint64(len(supers)))
	for _, s := range supers {
		b.writeString(s.Name())
	}
	own := t.OwnAttrs()
	b.writeUvarint(uint64(len(own)))
	for _, a := range own {
		b.writeString(a.Name)
		writeTypeRef(b, a.Type)
	}
	ops := t.Operations()
	b.writeUvarint(uint64(len(ops)))
	for _, op := range ops {
		b.writeString(op.Name)
		b.writeUvarint(uint64(len(op.Params)))
		for _, p := range op.Params {
			b.writeString(p.Name)
			writeTypeRef(b, p.Type)
		}
		if op.Result != nil {
			b.writeByte(1)
			writeTypeRef(b, op.Result)
		} else {
			b.writeByte(0)
		}
	}
}

func writeTypeRef(b *buffer, t *mop.Type) {
	switch t.Kind() {
	case mop.KindBool:
		b.writeByte(refBool)
	case mop.KindInt:
		b.writeByte(refInt)
	case mop.KindFloat:
		b.writeByte(refFloat)
	case mop.KindString:
		b.writeByte(refString)
	case mop.KindBytes:
		b.writeByte(refBytes)
	case mop.KindTime:
		b.writeByte(refTime)
	case mop.KindAny:
		b.writeByte(refAny)
	case mop.KindList:
		b.writeByte(refList)
		writeTypeRef(b, t.Elem())
	case mop.KindClass:
		b.writeByte(refClass)
		b.writeString(t.Name())
	default:
		panic(fmt.Sprintf("wire: type %q has invalid kind", t.Name()))
	}
}

// typeDef is the decoded structural description of one class.
type typeDef struct {
	name   string
	supers []string
	attrs  []attrDef
	ops    []opDef
}

type attrDef struct {
	name string
	ref  typeRef
}

type opDef struct {
	name      string
	params    []attrDef
	hasResult bool
	result    typeRef
}

// typeRef is a decoded type reference.
type typeRef struct {
	tag  byte
	elem *typeRef // refList
	name string   // refClass
}

func readTypeTable(r *reader) (map[string]*typeDef, error) {
	n, err := r.readUvarint()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, fmt.Errorf("type table of %d: %w", n, ErrTooLarge)
	}
	table := make(map[string]*typeDef, min(int(n), 1024))
	for i := uint64(0); i < n; i++ {
		def, err := readTypeDef(r)
		if err != nil {
			return nil, err
		}
		table[def.name] = def
	}
	return table, nil
}

func readTypeDef(r *reader) (*typeDef, error) {
	name, err := r.readString()
	if err != nil {
		return nil, err
	}
	def := &typeDef{name: name}
	ns, err := r.readUvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < ns; i++ {
		s, err := r.readString()
		if err != nil {
			return nil, err
		}
		def.supers = append(def.supers, s)
	}
	na, err := r.readUvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < na; i++ {
		a, err := readAttrDef(r)
		if err != nil {
			return nil, err
		}
		def.attrs = append(def.attrs, a)
	}
	no, err := r.readUvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < no; i++ {
		var op opDef
		if op.name, err = r.readString(); err != nil {
			return nil, err
		}
		np, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < np; j++ {
			p, err := readAttrDef(r)
			if err != nil {
				return nil, err
			}
			op.params = append(op.params, p)
		}
		has, err := r.readByte()
		if err != nil {
			return nil, err
		}
		if has != 0 {
			op.hasResult = true
			if op.result, err = readTypeRef(r); err != nil {
				return nil, err
			}
		}
		def.ops = append(def.ops, op)
	}
	return def, nil
}

func readAttrDef(r *reader) (attrDef, error) {
	name, err := r.readString()
	if err != nil {
		return attrDef{}, err
	}
	ref, err := readTypeRef(r)
	if err != nil {
		return attrDef{}, err
	}
	return attrDef{name: name, ref: ref}, nil
}

func readTypeRef(r *reader) (typeRef, error) {
	return readTypeRefDepth(r, 0)
}

func readTypeRefDepth(r *reader, depth int) (typeRef, error) {
	if depth > maxRefDepth {
		return typeRef{}, ErrTooDeep
	}
	tag, err := r.readByte()
	if err != nil {
		return typeRef{}, err
	}
	ref := typeRef{tag: tag}
	switch tag {
	case refBool, refInt, refFloat, refString, refBytes, refTime, refAny:
	case refList:
		elem, err := readTypeRefDepth(r, depth+1)
		if err != nil {
			return typeRef{}, err
		}
		ref.elem = &elem
	case refClass:
		if ref.name, err = r.readString(); err != nil {
			return typeRef{}, err
		}
	default:
		return typeRef{}, fmt.Errorf("type ref tag %d: %w", tag, ErrCorrupt)
	}
	return ref, nil
}

// ---------------------------------------------------------------------------
// Type resolution (decoder side)

// resolver turns typeDefs into *mop.Type, preferring classes already in the
// registry and registering newly built ones. built is allocated lazily so a
// message that carries no classes (the common broadcast payload) resolves
// nothing and allocates nothing.
type resolver struct {
	reg   *mop.Registry
	defs  map[string]*typeDef
	built map[string]*mop.Type
	depth int
	// strict refuses to bind a class name to a registry entry unless the
	// message carries a def for it (so the binding is compatibility-checked)
	// or the name was pre-seeded into built (fingerprint-matched). Compact
	// dictionary messages (dict.go) always carry their whole class closure
	// as defs+fingerprints, so under strict mode an unmatched name is a
	// missing-fingerprint condition — never a silent bind to a local class
	// that may predate a TDL redefinition.
	strict bool
	// shared marks built as the names of a published table-memo entry, which
	// is immutable: the first class resolved beyond it moves built to a
	// private copy (and clears shared, which is how the decode knows it has
	// a grown entry to publish).
	shared bool
}

// remember records a resolved class, allocating the memo on first use.
func (res *resolver) remember(name string, t *mop.Type) {
	if res.shared {
		grown := make(map[string]*mop.Type, len(res.built)+4)
		for n, bt := range res.built {
			grown[n] = bt
		}
		res.built, res.shared = grown, false
	}
	if res.built == nil {
		res.built = make(map[string]*mop.Type, 4)
	}
	res.built[name] = t
}

// maxClassDepth bounds supertype-chain recursion while rebuilding classes
// from a (possibly crafted) message.
const maxClassDepth = 200

func (res *resolver) class(name string) (*mop.Type, error) {
	if t, ok := res.built[name]; ok {
		return t, nil
	}
	res.depth++
	defer func() { res.depth-- }()
	if res.depth > maxClassDepth {
		return nil, fmt.Errorf("class %q: %w", name, ErrTooDeep)
	}
	if res.reg != nil {
		if t, err := res.reg.Lookup(name); err == nil {
			if t.Kind() != mop.KindClass {
				return nil, fmt.Errorf("%q is not a class: %w", name, ErrTypeConflict)
			}
			if def, ok := res.defs[name]; ok {
				if err := res.checkCompatible(t, def); err != nil {
					return nil, err
				}
			} else if res.strict {
				return nil, fmt.Errorf("class %q not carried by compact message: %w", name, ErrCorrupt)
			}
			res.remember(name, t)
			return t, nil
		}
	}
	def, ok := res.defs[name]
	if !ok {
		return nil, fmt.Errorf("class %q not described in message: %w", name, ErrCorrupt)
	}
	// Placeholder to break cycles: a class that (transitively) references
	// itself through an attribute type is legal; the paper's Story objects
	// contain lists of structured objects. Build supers first, then attrs.
	supers := make([]*mop.Type, 0, len(def.supers))
	for _, s := range def.supers {
		st, err := res.class(s)
		if err != nil {
			return nil, err
		}
		supers = append(supers, st)
	}
	attrs := make([]mop.Attr, 0, len(def.attrs))
	for _, a := range def.attrs {
		at, err := res.typeOf(a.ref)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, mop.Attr{Name: a.name, Type: at})
	}
	ops := make([]mop.Operation, 0, len(def.ops))
	for _, od := range def.ops {
		op := mop.Operation{Name: od.name}
		for _, p := range od.params {
			pt, err := res.typeOf(p.ref)
			if err != nil {
				return nil, err
			}
			op.Params = append(op.Params, mop.Param{Name: p.name, Type: pt})
		}
		if od.hasResult {
			rt, err := res.typeOf(od.result)
			if err != nil {
				return nil, err
			}
			op.Result = rt
		}
		ops = append(ops, op)
	}
	t, err := mop.NewClass(name, supers, attrs, ops)
	if err != nil {
		return nil, fmt.Errorf("rebuilding class %q: %w", name, err)
	}
	res.remember(name, t)
	if res.reg != nil {
		if err := res.reg.Register(t); err != nil {
			// A concurrent decode may have registered the same name first;
			// fall back to the registered descriptor.
			if regd, lerr := res.reg.Lookup(name); lerr == nil {
				if cerr := res.checkCompatible(regd, def); cerr != nil {
					return nil, cerr
				}
				res.remember(name, regd)
				return regd, nil
			}
			return nil, err
		}
	}
	return t, nil
}

func (res *resolver) typeOf(ref typeRef) (*mop.Type, error) {
	switch ref.tag {
	case refBool:
		return mop.Bool, nil
	case refInt:
		return mop.Int, nil
	case refFloat:
		return mop.Float, nil
	case refString:
		return mop.String, nil
	case refBytes:
		return mop.Bytes, nil
	case refTime:
		return mop.Time, nil
	case refAny:
		return mop.Any, nil
	case refList:
		elem, err := res.typeOf(*ref.elem)
		if err != nil {
			return nil, err
		}
		return mop.ListOf(elem), nil
	case refClass:
		return res.class(ref.name)
	default:
		return nil, fmt.Errorf("type ref tag %d: %w", ref.tag, ErrCorrupt)
	}
}

// checkCompatible verifies that a locally registered class matches an
// incoming description closely enough to decode instances: identical
// flattened attribute names in the same slot order with identical type
// references. (Operations do not affect data layout and are not compared.)
func (res *resolver) checkCompatible(local *mop.Type, def *typeDef) error {
	flat, err := res.flatten(def, make(map[string]bool))
	if err != nil {
		return err
	}
	attrs := local.Attrs()
	if len(attrs) != len(flat) {
		return fmt.Errorf("class %q: local has %d attributes, message describes %d: %w",
			def.name, len(attrs), len(flat), ErrTypeConflict)
	}
	for i, a := range attrs {
		if a.Name != flat[i].name {
			return fmt.Errorf("class %q slot %d: local %q vs message %q: %w",
				def.name, i, a.Name, flat[i].name, ErrTypeConflict)
		}
		if !refMatches(a.Type, flat[i].ref) {
			return fmt.Errorf("class %q attribute %q: type mismatch: %w",
				def.name, a.Name, ErrTypeConflict)
		}
	}
	return nil
}

// flatten reproduces mop's attribute flattening over raw typeDefs so that a
// local class can be compared slot-by-slot with an incoming description.
// Classes referenced as supertypes may be known locally rather than carried
// in the message.
func (res *resolver) flatten(def *typeDef, inProgress map[string]bool) ([]attrDef, error) {
	if inProgress[def.name] {
		return nil, fmt.Errorf("class %q: cyclic supertypes: %w", def.name, ErrCorrupt)
	}
	inProgress[def.name] = true
	defer delete(inProgress, def.name)

	var out []attrDef
	seen := make(map[string]bool)
	add := func(a attrDef) {
		if !seen[a.name] {
			seen[a.name] = true
			out = append(out, a)
		}
	}
	for _, s := range def.supers {
		if sdef, ok := res.defs[s]; ok {
			flat, err := res.flatten(sdef, inProgress)
			if err != nil {
				return nil, err
			}
			for _, a := range flat {
				add(a)
			}
			continue
		}
		// Supertype known only locally: trust the registry's layout.
		st, err := res.class(s)
		if err != nil {
			return nil, err
		}
		for _, a := range st.Attrs() {
			add(attrDef{name: a.Name, ref: refOf(a.Type)})
		}
	}
	for _, a := range def.attrs {
		add(a)
	}
	return out, nil
}

func refOf(t *mop.Type) typeRef {
	switch t.Kind() {
	case mop.KindBool:
		return typeRef{tag: refBool}
	case mop.KindInt:
		return typeRef{tag: refInt}
	case mop.KindFloat:
		return typeRef{tag: refFloat}
	case mop.KindString:
		return typeRef{tag: refString}
	case mop.KindBytes:
		return typeRef{tag: refBytes}
	case mop.KindTime:
		return typeRef{tag: refTime}
	case mop.KindAny:
		return typeRef{tag: refAny}
	case mop.KindList:
		e := refOf(t.Elem())
		return typeRef{tag: refList, elem: &e}
	case mop.KindClass:
		return typeRef{tag: refClass, name: t.Name()}
	default:
		return typeRef{}
	}
}

func refMatches(t *mop.Type, ref typeRef) bool {
	got := refOf(t)
	return refEqual(got, ref)
}

func refEqual(a, b typeRef) bool {
	if a.tag != b.tag || a.name != b.name {
		return false
	}
	if a.elem == nil || b.elem == nil {
		return a.elem == b.elem
	}
	return refEqual(*a.elem, *b.elem)
}

// ---------------------------------------------------------------------------
// Values

// writeValue encodes a tagged value. When cidx is non-nil (compact
// dictionary mode, dict.go) objects reference their class by index into the
// message's class table instead of by name string, which is where most of
// the per-object overhead of the self-describing format goes.
func writeValue(b *buffer, v mop.Value, cidx map[*mop.Type]int) error {
	switch x := v.(type) {
	case nil:
		b.writeByte(tagNil)
	case bool:
		b.writeByte(tagBool)
		if x {
			b.writeByte(1)
		} else {
			b.writeByte(0)
		}
	case int64:
		b.writeByte(tagInt)
		b.writeVarint(x)
	case float64:
		b.writeByte(tagFloat)
		b.writeUint64(math.Float64bits(x))
	case string:
		b.writeByte(tagString)
		b.writeString(x)
	case []byte:
		b.writeByte(tagBytes)
		b.writeUvarint(uint64(len(x)))
		b.bytes = append(b.bytes, x...)
	case time.Time:
		b.writeByte(tagTime)
		b.writeVarint(x.UnixNano())
	case mop.List:
		b.writeByte(tagList)
		b.writeUvarint(uint64(len(x)))
		for _, e := range x {
			if err := writeValue(b, e, cidx); err != nil {
				return err
			}
		}
	case *mop.Object:
		if x == nil {
			b.writeByte(tagNil)
			return nil
		}
		b.writeByte(tagObject)
		if cidx != nil {
			i, ok := cidx[x.Type()]
			if !ok {
				return fmt.Errorf("class %q not in message class table: %w",
					x.Type().Name(), ErrUnmarshalable)
			}
			b.writeUvarint(uint64(i))
		} else {
			b.writeString(x.Type().Name())
		}
		for i := range x.Type().Attrs() {
			if err := writeValue(b, x.GetAt(i), cidx); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("dynamic type %T: %w", v, ErrUnmarshalable)
	}
	return nil
}

// readValue decodes a tagged value. When table is non-nil (compact
// dictionary mode) objects name their class by index into table; otherwise
// by name, resolved through res.
func readValue(r *reader, res *resolver, table []*mop.Type, depth int) (mop.Value, error) {
	if depth > maxValueDepth {
		return nil, ErrTooDeep
	}
	tag, err := r.readByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagBool:
		bb, err := r.readByte()
		if err != nil {
			return nil, err
		}
		return bb != 0, nil
	case tagInt:
		return r.readVarint()
	case tagFloat:
		u, err := r.readUint64()
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(u), nil
	case tagString:
		return r.readString()
	case tagBytes:
		n, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		return r.readBytes(int(n))
	case tagTime:
		ns, err := r.readVarint()
		if err != nil {
			return nil, err
		}
		return time.Unix(0, ns).UTC(), nil
	case tagList:
		n, err := r.readUvarint()
		if err != nil {
			return nil, err
		}
		if n > maxLen {
			return nil, fmt.Errorf("list of %d: %w", n, ErrTooLarge)
		}
		out := make(mop.List, 0, min(int(n), 4096))
		for i := uint64(0); i < n; i++ {
			e, err := readValue(r, res, table, depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		return out, nil
	case tagObject:
		var t *mop.Type
		if table != nil {
			idx, err := r.readUvarint()
			if err != nil {
				return nil, err
			}
			if idx >= uint64(len(table)) {
				return nil, fmt.Errorf("class index %d of %d: %w", idx, len(table), ErrCorrupt)
			}
			t = table[idx]
		} else {
			name, err := r.viewString()
			if err != nil {
				return nil, err
			}
			// A class already resolved is found without copying its name.
			var ok bool
			if t, ok = res.built[string(name)]; !ok {
				if t, err = res.class(string(name)); err != nil {
					return nil, err
				}
			}
		}
		// NewFrom checks every slot against its declared type as SetAt
		// would, without first filling the object with zero values.
		return mop.NewFrom(t, func(int) (mop.Value, error) {
			return readValue(r, res, table, depth+1)
		})
	default:
		return nil, fmt.Errorf("value tag %d: %w", tag, ErrUnknownTag)
	}
}

// ---------------------------------------------------------------------------
// Low-level buffer and reader

type buffer struct {
	bytes   []byte
	scratch [binary.MaxVarintLen64]byte
}

func (b *buffer) writeByte(c byte) { b.bytes = append(b.bytes, c) }

func (b *buffer) writeUvarint(u uint64) {
	n := binary.PutUvarint(b.scratch[:], u)
	b.bytes = append(b.bytes, b.scratch[:n]...)
}

func (b *buffer) writeVarint(i int64) {
	n := binary.PutVarint(b.scratch[:], i)
	b.bytes = append(b.bytes, b.scratch[:n]...)
}

func (b *buffer) writeUint64(u uint64) {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], u)
	b.bytes = append(b.bytes, tmp[:]...)
}

func (b *buffer) writeString(s string) {
	b.writeUvarint(uint64(len(s)))
	b.bytes = append(b.bytes, s...)
}

type reader struct {
	data []byte
	pos  int
}

func (r *reader) readByte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, ErrTruncated
	}
	c := r.data[r.pos]
	r.pos++
	return c, nil
}

func (r *reader) readUvarint() (uint64, error) {
	u, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return u, nil
}

func (r *reader) readVarint() (int64, error) {
	i, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return i, nil
}

func (r *reader) readUint64() (uint64, error) {
	if r.pos+8 > len(r.data) {
		return 0, ErrTruncated
	}
	u := binary.BigEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return u, nil
}

func (r *reader) readBytes(n int) ([]byte, error) {
	if n < 0 || n > maxLen {
		return nil, ErrTooLarge
	}
	if r.pos+n > len(r.data) {
		return nil, ErrTruncated
	}
	out := append([]byte(nil), r.data[r.pos:r.pos+n]...)
	r.pos += n
	return out, nil
}

func (r *reader) readString() (string, error) {
	b, err := r.viewString()
	return string(b), err
}

// viewString reads a length-prefixed string as a view aliasing the message.
func (r *reader) viewString() ([]byte, error) {
	n, err := r.readUvarint()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, ErrTooLarge
	}
	if r.pos+int(n) > len(r.data) {
		return nil, ErrTruncated
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// skipString steps over a length-prefixed string.
func (r *reader) skipString() bool {
	_, err := r.viewString()
	return err == nil
}
