package core

import (
	"sync"
	"time"

	"infobus/internal/mop"
	"infobus/internal/telemetry"
	"infobus/internal/wire"
)

// classSync is the host's class-definition synchronization part for the
// compact dictionary format (wire/dict.go). It plays both sides of the
// NAK protocol:
//
//   - requester: when a bus on this host stashes a compact delivery it
//     cannot decode (unknown fingerprints), the part publishes the
//     fingerprint list on "_sys.class.req" at the host loop's next tick, and
//     again every interval until the definitions arrive — the request or the
//     reply may be lost, or cross a router that has not yet learned our
//     interest;
//   - holder: requests from other hosts are answered on "_sys.class.def"
//     with a wire.MarshalDefs blob when this host holds any requested
//     definition, either as the origin (send dictionary) or because the
//     definition passed through its fingerprint cache.
//
// Replies are broadcast: fingerprints are content-addressed, so every
// host harvests every reply it sees, whoever asked.
//
// The part joins the host loop, hearing the two subjects, from the start on
// compact publishers (they must answer NAKs) and from the first fingerprint
// miss everywhere else (requestClasses), so hosts on legacy topologies
// advertise no extra interest patterns.
type classSync struct {
	reg      *mop.Registry
	cache    *wire.TypeCache
	dict     *wire.SendDict // nil unless the host publishes compact
	ctr      *busCounters
	interval time.Duration
	publish  func(subj string, payload []byte) // Host.publishSys
	resolved func()                            // Host.retryPendingDecodes

	mu   sync.Mutex
	want map[uint64]bool // outstanding fingerprints
	asap bool            // a miss since the last request
	due  time.Time       // the next re-request, while anything is wanted
}

// maxWantedFPs bounds the outstanding-request set; beyond it new misses
// rely on the publisher's inline fallback alone.
const maxWantedFPs = 1024

// classNakInterval is how often outstanding class-definition requests are
// re-published while undecoded compact deliveries are pending.
const classNakInterval = 50 * time.Millisecond

// requestClasses records missing fingerprints and has the host loop NAK
// them, putting the part on the loop at the first miss. Called from bus
// dispatch on a fingerprint miss.
func (h *Host) requestClasses(fps []uint64) {
	added, cached := h.csync.request(fps)
	if cached {
		// The cache learned a class after the miss, from another bus's
		// inline definitions or reply, and no harvest will retry this
		// stash: retry it now.
		h.retryPendingDecodes()
	}
	if !added {
		return
	}
	h.mu.Lock()
	on := h.classesOn
	h.classesOn = true
	h.mu.Unlock()
	if !on {
		_ = h.addClassSync()
	}
	kick(h.loop.wake)
}

// addClassSync puts the class-NAK part on the host loop.
func (h *Host) addClassSync() error {
	_, err := h.AddPart(&h.csync, telemetry.ClassReqSubject, telemetry.ClassDefSubject)
	return err
}

// retryPendingDecodes has every bus re-dispatch its stashed deliveries, on
// its own dispatcher, after new definitions were installed into the host's
// fingerprint cache.
func (h *Host) retryPendingDecodes() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, b := range h.buses {
		kick(b.redo)
	}
}

// request queues fingerprints for NAKing at the next tick and reports
// whether any was new, and whether any is already cached: one the cache
// learned since the miss is not asked for again.
func (cs *classSync) request(fps []uint64) (added, cached bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, fp := range fps {
		if _, ok := cs.cache.Lookup(fp); ok {
			cached = true
			continue
		}
		if len(cs.want) >= maxWantedFPs {
			break
		}
		if !cs.want[fp] {
			cs.want[fp] = true
			added = true
		}
	}
	cs.asap = cs.asap || added
	return added, cached
}

// Tick publishes the outstanding fingerprint list when a miss has been
// queued since the last request, or the interval has passed with anything
// still unresolved, and returns when it next wants to: zero with nothing
// wanted.
func (cs *classSync) Tick(now time.Time) time.Time {
	cs.mu.Lock()
	if len(cs.want) == 0 {
		cs.mu.Unlock()
		return time.Time{}
	}
	if !cs.asap && now.Before(cs.due) {
		defer cs.mu.Unlock()
		return cs.due
	}
	cs.asap, cs.due = false, now.Add(cs.interval)
	fps := make([]uint64, 0, len(cs.want))
	for fp := range cs.want {
		fps = append(fps, fp)
	}
	cs.mu.Unlock()
	if payload, err := wire.Marshal(wire.FPsValue(fps)); err == nil {
		cs.ctr.classNakSent.Inc()
		cs.publish(telemetry.ClassReqSubject, payload)
	}
	return now.Add(cs.interval)
}

// Hear serves a request from another host, or harvests a reply and, when it
// resolves something, has the buses retry their stashes.
func (cs *classSync) Hear(subj, payload []byte) {
	switch string(subj) {
	case telemetry.ClassReqSubject:
		cs.serveRequest(payload)
	case telemetry.ClassDefSubject:
		if cs.harvestReply(payload) {
			cs.resolved()
		}
	}
}

// serveRequest answers a fingerprint request with every definition this
// host holds — as origin (send dictionary) or receiver (fingerprint
// cache).
func (cs *classSync) serveRequest(req []byte) {
	if payload, ok := wire.AnswerClassReq(req, cs.reg, cs.cache, cs.dict); ok {
		cs.ctr.classNakServed.Inc()
		cs.publish(telemetry.ClassDefSubject, payload)
	}
}

// harvestReply installs the definitions a reply carries and reports whether
// any outstanding fingerprint resolved: the buses' stashed deliveries are
// then worth retrying.
func (cs *classSync) harvestReply(defs []byte) (resolved bool) {
	if err := wire.HarvestDefs(defs, cs.reg, cs.cache); err != nil {
		return false
	}
	cs.ctr.classDefsHarvested.Inc()
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for fp := range cs.want {
		if _, ok := cs.cache.Lookup(fp); ok {
			delete(cs.want, fp)
			resolved = true
		}
	}
	return resolved
}
