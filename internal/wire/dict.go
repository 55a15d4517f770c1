package wire

import (
	"fmt"
	"sync"

	"infobus/internal/mop"
)

// This file implements type-dictionary compression for the anonymous
// broadcast path. A broadcast medium has no connection to hang a
// per-stream dictionary on, so the compact format makes the dictionary
// content-addressed instead:
//
//   - a SendDict on the publishing side tracks which class definitions it
//     has already put on the medium and thereafter sends only their
//     fingerprints (fingerprint.go);
//   - a TypeCache on every receiving side maps fingerprints back to
//     resolved *mop.Type and remembers, per class table section, the class
//     table it resolves to (the table memo below), so a message whose
//     section the host has seen goes from its header straight to
//     readValue: no resolver, no per-message table, nothing allocated
//     before the value. That holds for a section carrying inline
//     definitions (the first message, and one in ResendEvery) as for a
//     reference-only one: resolving a section again would install nothing
//     new, since a fingerprint keeps the class it was first installed with;
//   - a receiver missing a fingerprint (late joiner, dropped datagram,
//     router segment boundary) reports MissingFingerprintsError and the bus
//     layer NAKs via the reserved _sys.class.req subject; any holder
//     answers with a MarshalDefs blob. The SendDict additionally re-sends
//     full definitions every ResendEvery messages, so progress never
//     depends on the NAK path.
//
// Compact message layout (VersionCompact):
//
//	'I' 'B' 0x02
//	uvarint ndefs, then ndefs × (8-byte fingerprint, typeDef)
//	uvarint nrefs, then nrefs × 8-byte fingerprint
//	value
//
// The defs followed by the refs form the message's class table; object
// values reference their class by uvarint index into that table rather than
// by name string, which is where most of the per-object overhead of the
// self-describing format lives.

// VersionCompact is the wire version byte of the compact dictionary format.
const VersionCompact = 2

// maxDictClasses bounds the def and ref counts of a compact message. A real
// publication references at most a handful of classes; the cap keeps a
// crafted count from provoking a huge allocation.
const maxDictClasses = 1 << 16

// DefaultResendEvery is the inline-fallback period: a class that has been
// sent as a fingerprint reference for this many consecutive messages gets
// its full definition re-sent.
const DefaultResendEvery = 64

// MissingFingerprintsError reports a compact message that references class
// fingerprints the receiver has not resolved yet. Definitions the message
// did carry inline have already been installed into the TypeCache; the
// caller should request the missing ones (the bus NAKs on _sys.class.req)
// and retry the decode once they arrive.
type MissingFingerprintsError struct {
	FPs []uint64
}

func (e *MissingFingerprintsError) Error() string {
	return fmt.Sprintf("wire: %d unresolved class fingerprints", len(e.FPs))
}

// IsCompact reports whether data begins with a compact-format header.
func IsCompact(data []byte) bool {
	return len(data) >= 3 && data[0] == Magic0 && data[1] == Magic1 && data[2] == VersionCompact
}

// CompactCarriesDefs reports whether a compact message carries at least one
// inline class definition (false for pure-reference steady-state messages,
// and for anything that is not compact).
func CompactCarriesDefs(data []byte) bool {
	if !IsCompact(data) {
		return false
	}
	r := &reader{data: data, pos: 3}
	n, err := r.readUvarint()
	return err == nil && n > 0
}

// ---------------------------------------------------------------------------
// Receive side: fingerprint → resolved type

// TypeCache maps class fingerprints to resolved class descriptors. It is
// content-addressed — a fingerprint names a structural definition, not a
// sender — so one cache serves every publisher on the bus, and a TDL
// redefinition (new structure ⇒ new fingerprint) can never hit a stale
// entry. Safe for concurrent use. A nil *TypeCache behaves as an always-miss,
// never-install cache.
//
// The cache also holds the table memo: the resolved class table of a
// message's table section, keyed by that section's bytes, for both wire
// versions (see tableEntry). Everything the cache hands out is immutable
// once published — a fingerprint keeps the class it was first installed
// with, a memo entry is never written again — so nothing in it is ever
// invalidated: whatever would change an entry publishes a copy instead.
type TypeCache struct {
	mu  sync.RWMutex
	m   map[uint64]*mop.Type
	max int
	// Table memo. tableBytes is the sum of the key lengths, bounded by
	// max*memoBytesPerEntry.
	tables     map[string]*tableEntry
	tableBytes int
	// Set once by CountMemo before the cache is shared; nil counts nothing.
	memoMiss, memoFull Counter
}

// tableEntry is the resolved class table of one table section — the bytes
// from a message's version byte to the end of its class table, so the two
// versions cannot collide. Decoding needs nothing else from the section: a
// message carrying the same bytes skips them and goes straight to its value.
//
// What makes remembering it sound:
//
//   - mop.Registry bindings are add-only and immutable (Register refuses a
//     different class under a taken name), and a fingerprint keeps the class
//     it was first installed with, so the same section resolves to the same
//     classes against the same registry for ever. No invalidation exists.
//   - reg is the registry the entry was resolved against (nil for routers);
//     a decode against any other registry misses.
//   - An entry is immutable once published. Version-1 resolution is lazy — a
//     class the table carries but no value has instantiated yet is neither
//     checked nor registered — so a decode that has to resolve a further
//     name works on a copy of names and publishes a grown entry.
//   - Only what resolved is remembered: a table that conflicts with the
//     registry, misses a fingerprint or does not parse is resolved again —
//     and fails again — on every message.
//   - An entry is stored only if the allocation-free skip over the section
//     and the parser agree on where the section ends.
type tableEntry struct {
	reg *mop.Registry
	// Compact (version 2) section: the class table, definitions then
	// references, indexed by the value's class references. Never nil.
	table []*mop.Type
	// Self-describing (version 1) section: the parsed descriptions and the
	// classes resolved from them so far.
	defs  map[string]*typeDef
	names map[string]*mop.Type
}

// defaultTypeCacheSize bounds a TypeCache constructed with size <= 0.
const defaultTypeCacheSize = 4096

// memoBytesPerEntry scales the table memo's byte budget with the cache
// size: the keys of a cache of n entries total at most n*memoBytesPerEntry
// bytes (1 MB at the default size). A Quote-sized version-1 table section
// is about 100 bytes, a compact one 10 + 8 per class.
const memoBytesPerEntry = 256

// NewTypeCache returns a cache holding at most size fingerprints and as
// many memoised class tables (size <= 0 selects defaultTypeCacheSize). When
// full, new installs are skipped — the inline-fallback resend keeps
// overflowing classes decodable, and a table that is not memoised is
// resolved per message — matching the skip-on-full policy of the bus's
// other bounded caches.
func NewTypeCache(size int) *TypeCache {
	if size <= 0 {
		size = defaultTypeCacheSize
	}
	return &TypeCache{
		m:      make(map[uint64]*mop.Type),
		tables: make(map[string]*tableEntry),
		max:    size,
	}
}

// Counter is the one method of a telemetry counter the cache uses.
type Counter interface{ Inc() }

// CountMemo makes the cache count table-memo misses (decodes and harvests
// that parsed and resolved their class table) and tables it could not
// remember because the memo was full. Call it before the cache is shared.
func (c *TypeCache) CountMemo(miss, full Counter) {
	c.memoMiss, c.memoFull = miss, full
}

// Lookup returns the resolved class for fp, if cached.
func (c *TypeCache) Lookup(fp uint64) (*mop.Type, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.RLock()
	t, ok := c.m[fp]
	c.mu.RUnlock()
	return t, ok
}

// Install records a resolved class under fp. Skipped when the cache is
// full, and when fp is already present: the first class installed under a
// fingerprint stays, so a memoised table and a fresh lookup always agree.
func (c *TypeCache) Install(fp uint64, t *mop.Type) {
	if c == nil || t == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.m[fp]; !ok && len(c.m) < c.max {
		c.m[fp] = t
	}
	c.mu.Unlock()
}

// Len returns the number of cached classes.
func (c *TypeCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// lookupTable returns the memo entry of a table section resolved against
// reg, or nil. The probe copies nothing.
func (c *TypeCache) lookupTable(section []byte, reg *mop.Registry) *tableEntry {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	e := c.tables[string(section)]
	c.mu.RUnlock()
	if e == nil || e.reg != reg {
		return nil
	}
	return e
}

// countMiss counts a decode or harvest that has to parse and resolve its
// class table.
func (c *TypeCache) countMiss() {
	if c != nil && c.memoMiss != nil {
		c.memoMiss.Inc()
	}
}

// storeTable publishes e as the memo entry of section. old is the entry the
// decode started from (nil after a miss): a grown copy replaces exactly that
// entry, so two decodes growing the same entry at once cannot interleave
// their bindings, and a first entry is added only while the memo has room
// (skip-on-full).
func (c *TypeCache) storeTable(section []byte, old, e *tableEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, present := c.tables[string(section)]
	switch {
	case present && cur == old:
		c.tables[string(section)] = e
	case present:
		// Resolved meanwhile by another decode, or held for another registry.
	case len(c.tables) < c.max && c.tableBytes+len(section) <= c.max*memoBytesPerEntry:
		c.tables[string(section)] = e
		c.tableBytes += len(section)
	case c.memoFull != nil:
		c.memoFull.Inc()
	}
}

// ---------------------------------------------------------------------------
// Send side: per-sender dictionary state

type sentEntry struct {
	fp       uint64
	lastFull uint64 // seq of the last message that carried the full def
}

// SendDict tracks which class definitions a publisher has already put on
// the medium, so AppendMarshal can emit fingerprints instead. Safe for
// concurrent use.
type SendDict struct {
	mu          sync.Mutex
	resendEvery uint64
	seq         uint64
	sent        map[*mop.Type]sentEntry
	byFP        map[uint64]*mop.Type
	// per-call scratch, reused under mu
	col  collector
	defs []*mop.Type
	refs []*mop.Type
	cidx map[*mop.Type]int
}

// NewSendDict returns a dictionary that re-sends a class's full definition
// after resendEvery consecutive reference-only messages (<= 0 selects
// DefaultResendEvery).
func NewSendDict(resendEvery int) *SendDict {
	if resendEvery <= 0 {
		resendEvery = DefaultResendEvery
	}
	return &SendDict{
		resendEvery: uint64(resendEvery),
		sent:        make(map[*mop.Type]sentEntry),
		byFP:        make(map[uint64]*mop.Type),
		col:         collector{seen: make(map[*mop.Type]bool)},
		cidx:        make(map[*mop.Type]int),
	}
}

// Marshal encodes v in the compact dictionary format, carrying full
// definitions only for classes this dictionary has not yet broadcast (or
// whose inline-fallback period has elapsed) and fingerprints for the rest.
func (s *SendDict) Marshal(v mop.Value) ([]byte, error) {
	return s.AppendMarshal(nil, v)
}

// AppendMarshal appends the compact encoding of v to dst.
func (s *SendDict) AppendMarshal(dst []byte, v mop.Value) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++

	// Collect the class closure in dependency order (reusing the scratch
	// collector) and split it into fresh defs vs already-broadcast refs.
	s.col.reset()
	s.col.value(v)
	s.defs, s.refs = s.defs[:0], s.refs[:0]
	clear(s.cidx)
	for _, t := range s.col.out {
		if e, ok := s.sent[t]; ok && s.seq-e.lastFull < s.resendEvery {
			s.refs = append(s.refs, t)
		} else {
			s.defs = append(s.defs, t)
		}
	}
	for i, t := range s.defs {
		s.cidx[t] = i
	}
	for i, t := range s.refs {
		s.cidx[t] = len(s.defs) + i
	}

	b := buffer{bytes: dst}
	b.writeByte(Magic0)
	b.writeByte(Magic1)
	b.writeByte(VersionCompact)
	b.writeUvarint(uint64(len(s.defs)))
	for _, t := range s.defs {
		b.writeUint64(Fingerprint(t))
		writeTypeDef(&b, t)
	}
	b.writeUvarint(uint64(len(s.refs)))
	for _, t := range s.refs {
		b.writeUint64(Fingerprint(t))
	}
	if err := writeValue(&b, v, s.cidx); err != nil {
		return nil, err
	}
	// Commit dictionary state only once the message is fully assembled, so
	// an encoding error does not leave classes marked as broadcast.
	for _, t := range s.defs {
		fp := Fingerprint(t)
		s.sent[t] = sentEntry{fp: fp, lastFull: s.seq}
		s.byFP[fp] = t
	}
	return b.bytes, nil
}

// LookupFP returns the class this dictionary has broadcast under fp, if
// any. The bus uses it to answer _sys.class.req NAKs at the origin.
func (s *SendDict) LookupFP(fp uint64) (*mop.Type, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byFP[fp]
	return t, ok
}

// ---------------------------------------------------------------------------
// Compact decode

// UnmarshalWith decodes a self-describing message in either wire version,
// resolving class descriptions against reg and, for compact messages,
// against cache. Inline definitions are installed into cache as they
// resolve — even when the message cannot fully decode — so every
// def-carrying message a node sees warms its dictionary. A compact message
// referencing fingerprints absent from cache returns
// *MissingFingerprintsError.
//
// With a cache, the class table of either version is resolved once per
// table section and remembered (see tableEntry); a nil cache resolves it per
// message, which is also what a memo miss does. The two are
// indistinguishable to the caller: same value, same error, same classes
// registered in reg.
//
// Every []byte in the value is a view of data, capped at its own end so that
// an append reallocates. The caller hands data over to the value: the value
// keeps all of data alive, and a write through a view is a write to data.
func UnmarshalWith(data []byte, reg *mop.Registry, cache *TypeCache) (mop.Value, error) {
	vals := valueBlocks.Get().(*valueBlock)
	defer valueBlocks.Put(vals)
	return unmarshal(data, reg, cache, vals)
}

// unmarshal is UnmarshalWith carving values from vals.
func unmarshal(data []byte, reg *mop.Registry, cache *TypeCache, vals *valueBlock) (mop.Value, error) {
	r := &reader{data: data, vals: vals}
	ver, err := readHeaderVer(r)
	if err != nil {
		return nil, err
	}
	var v mop.Value
	switch ver {
	case Version:
		v, err = unmarshalLegacy(r, reg, cache)
	case VersionCompact:
		v, err = unmarshalCompact(r, reg, cache)
	default:
		return nil, fmt.Errorf("version %d: %w", ver, ErrBadVersion)
	}
	if err != nil {
		return nil, err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("%d trailing bytes: %w", len(r.data)-r.pos, ErrCorrupt)
	}
	return v, nil
}

// unmarshalCompact decodes the body of a VersionCompact message (r is
// positioned just past the header).
func unmarshalCompact(r *reader, reg *mop.Registry, cache *TypeCache) (mop.Value, error) {
	table, missing, err := compactTable(r, reg, cache)
	if err != nil {
		return nil, err
	}
	if len(missing) > 0 {
		return nil, &MissingFingerprintsError{FPs: missing}
	}
	return readValue(r, nil, table, 0, nil)
}

// compactTable returns the class table of the compact message r is
// positioned in (just past the header), leaving r at the value. The table
// section is looked up in the table memo by its bytes, definitions or not; a
// hit allocates nothing and has nothing left to install. A miss is parsed
// and resolved by readCompactTable, and remembered when it resolved in full.
func compactTable(r *reader, reg *mop.Registry, cache *TypeCache) (table []*mop.Type, missing []uint64, err error) {
	var section []byte
	end, walked := skipCompactTable(r.data, r.pos)
	if walked {
		section = r.data[r.pos-1 : end]
		if e := cache.lookupTable(section, reg); e != nil {
			r.pos = end
			return e.table, nil, nil
		}
	}
	cache.countMiss()
	table, missing, err = readCompactTable(r, reg, cache)
	if err == nil && len(missing) == 0 && cache != nil && walked && r.pos == end {
		cache.storeTable(section, nil, &tableEntry{reg: reg, table: table})
	}
	return table, missing, err
}

// skipCompactTable returns the offset just past the compact class table
// that starts at pos — a count and that many (fingerprint, definition)
// pairs, then a count and that many fingerprints — walking varints and
// string lengths only, or false when the table is cut short or over a
// count cap.
func skipCompactTable(data []byte, pos int) (end int, ok bool) {
	s := reader{data: data, pos: pos}
	ndefs, err := s.readUvarint()
	if err != nil || ndefs > maxDictClasses {
		return 0, false
	}
	for i := uint64(0); i < ndefs; i++ {
		if _, err := s.readUint64(); err != nil || !s.skipTypeDef() {
			return 0, false
		}
	}
	nrefs, err := s.readUvarint()
	if err != nil || nrefs > maxDictClasses {
		return 0, false
	}
	end = s.pos + 8*int(nrefs)
	return end, end <= len(data)
}

// readCompactTable parses and resolves the def and ref tables of a compact
// message, leaving r positioned at the value. The returned table is the
// message's class table (defs then refs) for index-based object decoding;
// missing lists referenced fingerprints the cache could not resolve. Defs
// that resolve are installed into cache regardless of missing refs; defs
// whose resolution depends on a missing ref are skipped (and their table
// slots left nil) — harmless because the caller does not decode the value
// when missing is non-empty.
func readCompactTable(r *reader, reg *mop.Registry, cache *TypeCache) ([]*mop.Type, []uint64, error) {
	ndefs, err := r.readUvarint()
	if err != nil {
		return nil, nil, err
	}
	if ndefs > maxDictClasses {
		return nil, nil, fmt.Errorf("def table of %d: %w", ndefs, ErrTooLarge)
	}
	type fpDef struct {
		fp  uint64
		def *typeDef
	}
	defs := make([]fpDef, 0, r.prealloc(ndefs))
	res := &resolver{reg: reg, strict: true}
	for i := uint64(0); i < ndefs; i++ {
		fp, err := r.readUint64()
		if err != nil {
			return nil, nil, err
		}
		def, err := readTypeDef(r)
		if err != nil {
			return nil, nil, err
		}
		defs = append(defs, fpDef{fp: fp, def: def})
		if res.defs == nil {
			res.defs = make(map[string]*typeDef, cap(defs))
		}
		res.defs[def.name] = def
	}
	nrefs, err := r.readUvarint()
	if err != nil {
		return nil, nil, err
	}
	if nrefs > maxDictClasses {
		return nil, nil, fmt.Errorf("ref table of %d: %w", nrefs, ErrTooLarge)
	}
	refs := make([]*mop.Type, 0, r.prealloc(nrefs))
	var missing []uint64
	for i := uint64(0); i < nrefs; i++ {
		fp, err := r.readUint64()
		if err != nil {
			return nil, nil, err
		}
		if t, ok := cache.Lookup(fp); ok {
			refs = append(refs, t)
			// Seed the resolver so defs referencing this class by name bind
			// to the sender-fingerprinted descriptor, never to a same-named
			// (possibly older) local registration.
			res.remember(t.Name(), t)
		} else {
			refs = append(refs, nil)
			missing = append(missing, fp)
		}
	}
	table := make([]*mop.Type, 0, len(defs)+len(refs))
	for _, d := range defs {
		t, err := res.class(d.def.name)
		if err != nil {
			// With refs missing, a dependent def legitimately cannot
			// resolve; install what we can and let the NAK path fill the
			// rest. With the full closure present, failure is a real error.
			if len(missing) == 0 {
				return nil, nil, err
			}
			table = append(table, nil)
			continue
		}
		cache.Install(d.fp, t)
		table = append(table, t)
	}
	table = append(table, refs...)
	return table, missing, nil
}

// MarshalDefs encodes the full definitions (closures included) of the given
// classes as a compact message with a nil value — the payload of a
// _sys.class.def reply. Decoding it with UnmarshalWith (or HarvestDefs)
// installs every definition into the receiver's TypeCache.
func MarshalDefs(types []*mop.Type) ([]byte, error) {
	var b buffer
	b.writeByte(Magic0)
	b.writeByte(Magic1)
	b.writeByte(VersionCompact)
	c := &collector{seen: make(map[*mop.Type]bool)}
	for _, t := range types {
		if t != nil && t.Kind() == mop.KindClass {
			c.class(t)
		}
	}
	b.writeUvarint(uint64(len(c.out)))
	for _, t := range c.out {
		b.writeUint64(Fingerprint(t))
		writeTypeDef(&b, t)
	}
	b.writeUvarint(0) // no refs
	if err := writeValue(&b, nil, nil); err != nil {
		return nil, err
	}
	return b.bytes, nil
}

// HarvestDefs installs whatever inline class definitions a compact message
// carries into reg and cache without decoding its value. Routers use it to
// become _sys.class.req answerers for definitions that crossed their
// segment; daemons use it on _sys.class.def replies. Messages that carry no
// definitions (or are not compact) are ignored. Unresolvable references are
// not an error — harvesting is best-effort by design. A table section the
// cache has memoised was harvested before, so harvesting it again costs a
// lookup and allocates nothing.
func HarvestDefs(data []byte, reg *mop.Registry, cache *TypeCache) error {
	if !IsCompact(data) {
		return nil
	}
	_, _, err := compactTable(&reader{data: data, pos: 3}, reg, cache)
	return err
}

// RequestedFPs extracts the fingerprint list from a _sys.class.req payload
// (a marshalled mop.List of int64 fingerprints).
func RequestedFPs(v mop.Value) []uint64 {
	list, ok := v.(mop.List)
	if !ok {
		return nil
	}
	fps := make([]uint64, 0, len(list))
	for _, e := range list {
		if n, ok := e.(int64); ok {
			fps = append(fps, uint64(n))
		}
	}
	return fps
}

// AnswerClassReq is the holder side of the class-definition NAK protocol,
// the same for every node that holds definitions: it decodes a
// _sys.class.req payload (reg and cache as for UnmarshalWith), collects
// each requested definition the node holds — as origin, in dict (optional),
// or because it passed through cache — and returns the MarshalDefs blob to
// publish on _sys.class.def. ok is false when the request does not decode
// or none of its fingerprints is held; where to publish is the caller's.
func AnswerClassReq(req []byte, reg *mop.Registry, cache *TypeCache, dict *SendDict) (defs []byte, ok bool) {
	v, err := UnmarshalWith(req, reg, cache)
	if err != nil {
		return nil, false
	}
	var held []*mop.Type
	for _, fp := range RequestedFPs(v) {
		if dict != nil {
			if t, found := dict.LookupFP(fp); found {
				held = append(held, t)
				continue
			}
		}
		if t, found := cache.Lookup(fp); found {
			held = append(held, t)
		}
	}
	if len(held) == 0 {
		return nil, false
	}
	defs, err = MarshalDefs(held)
	return defs, err == nil
}

// FPsValue builds the _sys.class.req payload for a set of fingerprints.
func FPsValue(fps []uint64) mop.Value {
	list := make(mop.List, 0, len(fps))
	for _, fp := range fps {
		list = append(list, int64(fp))
	}
	return list
}
