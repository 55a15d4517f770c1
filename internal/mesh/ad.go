// Package mesh makes a set of information routers self-organizing: routers
// bridging overlapping segments hear each other's hellos on
// "_sys.mesh.hello", elect a loop-free spanning tree over the segment graph, and propagate
// aggregated interest advertisements hop by hop, so a publication traverses
// only subscriber-bearing segments plus the connecting tree path.
//
// The package holds the protocol state machine and the advertisement
// codec; internal/router drives it (sending and receiving the ads on its
// attachments) and consults it on the forwarding path.
//
// Interest has no format of its own: a router asks a segment for what lies
// behind it with the busproto.KindInterest envelope a host daemon sends, and
// keeps what it hears from either kind of node in one table per link
// (Mesh.HandleInterest). Two advertisement kinds travel as self-describing
// objects (P2), so ibmon can render the mesh without linking against this
// package:
//
//   - MeshHello on "_sys.mesh.hello": the spanning-tree config vector
//     (root, cost, sender), sent per segment. Link-local: routers never
//     forward it, since hearing one defines adjacency.
//   - MeshStatus on "_sys.mesh.status.<node>": a periodic introspection
//     snapshot (links, port states, tree parent, interest tables). This
//     one is an ordinary publication and crosses routers like any other
//     subject a monitor subscribes to.
package mesh

import (
	"errors"

	"infobus/internal/mop"
	"infobus/internal/subject"
	"infobus/internal/wire"
)

// Subject conventions. The hello conversation is link-local: routers
// process that subject and never forward it. Status snapshots are ordinary
// publications.
const (
	// HelloSubject carries MeshHello config vectors (link-local).
	HelloSubject = "_sys.mesh.hello"
	// StatusSubjectPrefix prefixes the per-router introspection snapshots:
	// "_sys.mesh.status.<node>". Subscribe "_sys.mesh.status.>" to watch
	// every router's view of the tree.
	StatusSubjectPrefix = "_sys.mesh.status"
)

// StatusSubject returns the status subject for a (sanitised) router node
// name.
func StatusSubject(node string) string { return StatusSubjectPrefix + "." + node }

// Codec caps: everything arriving on these subjects is network input and
// must survive arbitrary bytes. wire.Unmarshal already guards value and
// class depth; these bound what this package then accepts from the decoded
// object. Oversized lists are truncated (never grown), oversized strings
// rejected.
const (
	// MaxAdPatterns bounds the patterns a link's interest table keeps per
	// sender (and the pattern list of one status row). It is far above what
	// daemons and routers send (subject.MaxAdvertisedPatterns, 64): a router
	// that receives more than the cap truncates, which only narrows what it
	// forwards, never loops.
	MaxAdPatterns = 256
	// MaxAdLinks bounds the links enumerated by one hello or status ad.
	MaxAdLinks = 64
	// maxTokenLen bounds every identifier string in an ad (router ids,
	// link names, root ids).
	maxTokenLen = 256
	// maxAdBytes bounds the wire payload a router will even try to decode.
	maxAdBytes = 64 << 10
)

// ErrBadAd reports an advertisement payload that failed the codec's
// structural checks.
var ErrBadAd = errors.New("mesh: bad advertisement")

// LinkInfo describes one router attachment in a hello or status ad.
type LinkInfo struct {
	// Name is the attachment (segment) name.
	Name string
	// State is the port state string, PortForwarding.String() or
	// PortBlocked.String().
	State string
	// Peers counts the live neighbor routers heard on the link (status
	// ads; hellos leave it zero).
	Peers int64
	// Patterns is the aggregated interest heard on the link, from hosts
	// and neighbor routers alike (status ads only).
	Patterns []string
}

// HelloAd is the spanning-tree configuration vector one router broadcasts
// on one segment: "I believe the root is Root, my cost to it is Cost, and
// I am Router." Receivers elect with it exactly as 802.1D bridges do.
type HelloAd struct {
	Router string // sender's router id (unique; lowest id wins root)
	Root   string // sender's current root candidate
	Cost   int64  // sender's hop cost to that root
	Parent string // sender's tree parent ("" when sender is root)
	Seq    int64  // sender's monotone ad sequence, for introspection
	Links  []LinkInfo
}

// StatusAd is the periodic introspection snapshot.
type StatusAd struct {
	Node   string // sanitised router node name ("router-a")
	Router string // mesh router id
	Root   string
	Cost   int64
	Parent string
	Seq    int64
	Links  []LinkInfo
}

// Types is the registered mesh advertisement class family.
type Types struct {
	Link   *mop.Type // MeshLink: one attachment row
	Hello  *mop.Type // MeshHello: spanning-tree config vector
	Status *mop.Type // MeshStatus: introspection snapshot
}

// DefineTypes builds and registers the mesh classes in a registry,
// tolerating (and reusing) any already-registered subset, like
// telemetry.DefineSysTypes.
func DefineTypes(reg *mop.Registry) (Types, error) {
	var firstErr error
	ensure := func(name string, build func() *mop.Type) *mop.Type {
		if firstErr != nil {
			return nil
		}
		if reg.Has(name) {
			t, err := reg.Lookup(name)
			if err != nil {
				firstErr = err
				return nil
			}
			return t
		}
		t := build()
		if err := reg.Register(t); err != nil {
			firstErr = err
			return nil
		}
		return t
	}
	var mt Types
	mt.Link = ensure("MeshLink", func() *mop.Type {
		return mop.MustNewClass("MeshLink", nil, []mop.Attr{
			{Name: "name", Type: mop.String},
			{Name: "state", Type: mop.String},
			{Name: "peers", Type: mop.Int},
			{Name: "patterns", Type: mop.ListOf(mop.String)},
		}, nil)
	})
	mt.Hello = ensure("MeshHello", func() *mop.Type {
		return mop.MustNewClass("MeshHello", nil, []mop.Attr{
			{Name: "router", Type: mop.String},
			{Name: "root", Type: mop.String},
			{Name: "cost", Type: mop.Int},
			{Name: "parent", Type: mop.String},
			{Name: "seq", Type: mop.Int},
			{Name: "links", Type: mop.ListOf(mt.Link)},
		}, nil)
	})
	mt.Status = ensure("MeshStatus", func() *mop.Type {
		return mop.MustNewClass("MeshStatus", nil, []mop.Attr{
			{Name: "node", Type: mop.String},
			{Name: "router", Type: mop.String},
			{Name: "root", Type: mop.String},
			{Name: "cost", Type: mop.Int},
			{Name: "parent", Type: mop.String},
			{Name: "seq", Type: mop.Int},
			{Name: "links", Type: mop.ListOf(mt.Link)},
		}, nil)
	})
	if firstErr != nil {
		return Types{}, firstErr
	}
	return mt, nil
}

// MustTypes is DefineTypes on a fresh registry; it cannot fail.
func MustTypes() Types {
	mt, err := DefineTypes(mop.NewRegistry())
	if err != nil {
		panic(err)
	}
	return mt
}

func linkList(mt Types, links []LinkInfo) mop.List {
	list := make(mop.List, 0, len(links))
	for _, l := range links {
		pats := make(mop.List, 0, len(l.Patterns))
		for _, p := range l.Patterns {
			pats = append(pats, p)
		}
		list = append(list, mop.MustNew(mt.Link).
			MustSet("name", l.Name).
			MustSet("state", l.State).
			MustSet("peers", l.Peers).
			MustSet("patterns", pats))
	}
	return list
}

// MarshalHello renders a HelloAd as a self-describing wire payload.
func MarshalHello(mt Types, ad HelloAd) ([]byte, error) {
	obj := mop.MustNew(mt.Hello).
		MustSet("router", ad.Router).
		MustSet("root", ad.Root).
		MustSet("cost", ad.Cost).
		MustSet("parent", ad.Parent).
		MustSet("seq", ad.Seq).
		MustSet("links", linkList(mt, ad.Links))
	return wire.Marshal(obj)
}

// MarshalStatus renders a StatusAd as a self-describing wire payload.
func MarshalStatus(mt Types, ad StatusAd) ([]byte, error) {
	obj := mop.MustNew(mt.Status).
		MustSet("node", ad.Node).
		MustSet("router", ad.Router).
		MustSet("root", ad.Root).
		MustSet("cost", ad.Cost).
		MustSet("parent", ad.Parent).
		MustSet("seq", ad.Seq).
		MustSet("links", linkList(mt, ad.Links))
	return wire.Marshal(obj)
}

// token pulls a string attribute, enforcing the identifier length cap.
func token(o *mop.Object, name string) (string, bool) {
	v, err := o.Get(name)
	if err != nil {
		return "", false
	}
	s, ok := v.(string)
	if !ok || len(s) > maxTokenLen {
		return "", false
	}
	return s, true
}

func intAttr(o *mop.Object, name string) (int64, bool) {
	v, err := o.Get(name)
	if err != nil {
		return 0, false
	}
	n, ok := v.(int64)
	return n, ok
}

// parsePatterns extracts a validated pattern list: entries that are not
// strings, exceed the subject length cap, or fail subject.ParsePattern are
// dropped (a bad entry must not poison its well-formed siblings), and the
// list is truncated at MaxAdPatterns. Truncation only narrows interest.
func parsePatterns(v mop.Value) []string {
	list, ok := v.(mop.List)
	if !ok || len(list) == 0 {
		return nil
	}
	if len(list) > MaxAdPatterns {
		list = list[:MaxAdPatterns]
	}
	out := make([]string, 0, len(list))
	for _, pv := range list {
		p, ok := pv.(string)
		if !ok || len(p) > subject.MaxLength {
			continue
		}
		if _, err := subject.ParsePattern(p); err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

func parseLinks(v mop.Value) []LinkInfo {
	list, ok := v.(mop.List)
	if !ok || len(list) == 0 {
		return nil
	}
	if len(list) > MaxAdLinks {
		list = list[:MaxAdLinks]
	}
	out := make([]LinkInfo, 0, len(list))
	for _, lv := range list {
		lo, ok := lv.(*mop.Object)
		if !ok || lo.Type().Name() != "MeshLink" {
			continue
		}
		name, ok := token(lo, "name")
		if !ok || name == "" {
			continue
		}
		state, _ := token(lo, "state")
		peers, _ := intAttr(lo, "peers")
		var li LinkInfo
		li.Name, li.State, li.Peers = name, state, peers
		if pv, err := lo.Get("patterns"); err == nil {
			li.Patterns = parsePatterns(pv)
		}
		out = append(out, li)
	}
	return out
}

// parseHelloObject decodes a MeshHello object. Router and Root must be
// present, non-empty, and within the identifier cap; Cost must be
// non-negative (a negative cost would win every election forever).
func parseHelloObject(o *mop.Object) (HelloAd, bool) {
	var ad HelloAd
	var ok bool
	if ad.Router, ok = token(o, "router"); !ok || ad.Router == "" {
		return HelloAd{}, false
	}
	if ad.Root, ok = token(o, "root"); !ok || ad.Root == "" {
		return HelloAd{}, false
	}
	if ad.Cost, ok = intAttr(o, "cost"); !ok || ad.Cost < 0 {
		return HelloAd{}, false
	}
	ad.Parent, _ = token(o, "parent")
	ad.Seq, _ = intAttr(o, "seq")
	if lv, err := o.Get("links"); err == nil {
		ad.Links = parseLinks(lv)
	}
	return ad, true
}

// ParseStatusObject decodes a MeshStatus object (ibmon's decoder).
func ParseStatusObject(o *mop.Object) (StatusAd, bool) {
	if o == nil || o.Type().Name() != "MeshStatus" {
		return StatusAd{}, false
	}
	var ad StatusAd
	var ok bool
	if ad.Router, ok = token(o, "router"); !ok || ad.Router == "" {
		return StatusAd{}, false
	}
	ad.Node, _ = token(o, "node")
	ad.Root, _ = token(o, "root")
	ad.Cost, _ = intAttr(o, "cost")
	ad.Parent, _ = token(o, "parent")
	ad.Seq, _ = intAttr(o, "seq")
	if lv, err := o.Get("links"); err == nil {
		ad.Links = parseLinks(lv)
	}
	return ad, true
}

// ParseAd decodes one mesh advertisement payload from the wire: a
// self-describing wire message holding a MeshHello or a MeshStatus. It
// never panics on arbitrary input (FuzzMeshAd) and returns ErrBadAd for
// anything that does not pass the caps above.
func ParseAd(payload []byte) (any, error) {
	if len(payload) > maxAdBytes {
		return nil, ErrBadAd
	}
	v, err := wire.Unmarshal(payload, mop.NewRegistry())
	if err != nil {
		return nil, ErrBadAd
	}
	o, ok := v.(*mop.Object)
	if !ok {
		return nil, ErrBadAd
	}
	switch o.Type().Name() {
	case "MeshHello":
		if ad, ok := parseHelloObject(o); ok {
			return ad, nil
		}
	case "MeshStatus":
		if ad, ok := ParseStatusObject(o); ok {
			return ad, nil
		}
	}
	return nil, ErrBadAd
}
