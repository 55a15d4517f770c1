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
// objects (P2), so a monitor of another build still renders what it knows of
// them:
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
// object. The list and identifier caps are declared on the fields they
// bound (`max=` in the struct tags below, which mop's Read applies before it
// copies anything out): oversized lists are truncated (never grown),
// oversized strings read as absent.
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

// LinkInfo describes one router attachment in a hello or status ad (the
// MeshLink kind).
type LinkInfo struct {
	// Name is the attachment (segment) name.
	Name string `mop:"name,max=256"`
	// State is the port state string, PortForwarding.String() or
	// PortBlocked.String().
	State string `mop:"state,max=256"`
	// Peers counts the live neighbor routers heard on the link (status
	// ads; hellos leave it zero).
	Peers int64 `mop:"peers"`
	// Patterns is the aggregated interest heard on the link, from hosts
	// and neighbor routers alike (status ads only).
	Patterns []string `mop:"patterns,max=256"`
}

// HelloAd is the spanning-tree configuration vector one router broadcasts
// on one segment: "I believe the root is Root, my cost to it is Cost, and
// I am Router." Receivers elect with it exactly as 802.1D bridges do. (The
// MeshHello kind.)
type HelloAd struct {
	Router string     `mop:"router,max=256"` // sender's router id (unique; lowest id wins root)
	Root   string     `mop:"root,max=256"`   // sender's current root candidate
	Cost   int64      `mop:"cost"`           // sender's hop cost to that root
	Parent string     `mop:"parent,max=256"` // sender's tree parent ("" when sender is root)
	Seq    int64      `mop:"seq"`            // sender's monotone ad sequence, for introspection
	Links  []LinkInfo `mop:"links,max=64"`
}

// StatusAd is the periodic introspection snapshot (the MeshStatus kind).
type StatusAd struct {
	Node   string     `mop:"node,max=256"`   // sanitised router node name ("router-a")
	Router string     `mop:"router,max=256"` // mesh router id
	Root   string     `mop:"root,max=256"`
	Cost   int64      `mop:"cost"`
	Parent string     `mop:"parent,max=256"`
	Seq    int64      `mop:"seq"`
	Links  []LinkInfo `mop:"links,max=64"`
}

// Schema is the mesh advertisement class family: each kind is the tagged
// struct above and nothing else (mop.Bind).
var Schema = new(mop.Schema)

var (
	_          = mop.Bind[LinkInfo](Schema, "MeshLink")
	MeshHello  = mop.Bind[HelloAd](Schema, "MeshHello")
	MeshStatus = mop.Bind[StatusAd](Schema, "MeshStatus")
)

// MarshalHello renders a HelloAd as a self-describing wire payload.
func MarshalHello(ad *HelloAd) ([]byte, error) { return wire.Marshal(MeshHello.Object(ad)) }

// MarshalStatus renders a StatusAd as a self-describing wire payload.
func MarshalStatus(ad *StatusAd) ([]byte, error) { return wire.Marshal(MeshStatus.Object(ad)) }

// validLinks is the step after Read for a link list: a link without a name
// is dropped, and a pattern that fails subject.ParsePattern (which bounds
// its length too) is dropped without poisoning its well-formed siblings.
func validLinks(links []LinkInfo) []LinkInfo {
	out := links[:0]
	for _, l := range links {
		if l.Name == "" {
			continue
		}
		pats := l.Patterns[:0]
		for _, p := range l.Patterns {
			if _, err := subject.ParsePattern(p); err == nil {
				pats = append(pats, p)
			}
		}
		l.Patterns = pats
		out = append(out, l)
	}
	return out
}

// ReadStatus reads a MeshStatus object (a monitor's decoder). Router must be
// present, non-empty and within the identifier cap.
func ReadStatus(o *mop.Object) (StatusAd, bool) {
	var ad StatusAd
	if !MeshStatus.Read(o, &ad) || ad.Router == "" {
		return StatusAd{}, false
	}
	ad.Links = validLinks(ad.Links)
	return ad, true
}

// ParseAd decodes one mesh advertisement payload from the wire: a
// self-describing wire message holding a MeshHello or a MeshStatus. It
// never panics on arbitrary input (FuzzMeshAd) and returns ErrBadAd for
// anything that does not pass the caps above. A hello's Router and Root must
// be present, non-empty and within the identifier cap, and its Cost
// non-negative (a negative cost would win every election forever).
func ParseAd(payload []byte) (any, error) {
	if len(payload) > maxAdBytes {
		return nil, ErrBadAd
	}
	v, err := wire.Unmarshal(payload, mop.NewRegistry())
	if err != nil {
		return nil, ErrBadAd
	}
	o, _ := v.(*mop.Object)
	var hello HelloAd
	if MeshHello.Read(o, &hello) && hello.Router != "" && hello.Root != "" && hello.Cost >= 0 {
		hello.Links = validLinks(hello.Links)
		return hello, nil
	}
	if status, ok := ReadStatus(o); ok {
		return status, nil
	}
	return nil, ErrBadAd
}
