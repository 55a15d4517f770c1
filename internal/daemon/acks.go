package daemon

import (
	"slices"

	"infobus/internal/busproto"
)

// Guaranteed-delivery acknowledgements, coalesced.
//
// A consumer daemon acknowledges a guaranteed publication to whoever sent it,
// and the publisher keeps the publication until someone does (§3.1). The
// acknowledgement is not a unicast of its own: a lane's inbound worker records
// (sender, origin, id) in its ackSet and sends each (sender, origin) set as one
// KindGuarAck run list (busproto.AppendAck) when its shard has nothing more
// queued — an idle consumer acknowledges at once, a busy one coalesces what
// is already waiting — or as soon as one set reaches ackFlushIDs, so a lane
// that never drains still acknowledges. There is no timer. Ids arrive in any
// order (two publishers race between their ledger and their publish; a
// recovery replay walks a map), so a set is sorted before it is encoded, and
// the receiving daemon hands its callback one id at a time.
//
// A set the conn refuses (the unicast window to the sender is full) stays
// pending and goes out with the next flush. What it may hold is bounded by
// what one frame may name, busproto.MaxAckIDs; an id recorded into a set at
// the bound is discarded, counted as daemon.guar_ack_dropped and recorded as
// a "guar-ack" drop, and the publisher's next retransmission is acknowledged
// again from the dedup ring.

// ackFlushIDs is the id budget of one pending set: a set that records this
// many before its lane drains is sent at once.
const ackFlushIDs = 256

// maxAckKeys bounds the (sender, origin) sets a worker keeps between uses.
// At the bound, the sets that hold nothing are forgotten: a publisher's
// origin is new at every start, so old ones would otherwise stay for good.
const maxAckKeys = 256

type ackKey struct{ to, origin string }

// ackEntry is the pending acknowledgement of one (sender, origin).
type ackEntry struct {
	ackKey
	ids    []uint64 // recorded since the last send that went out: any order, repeats allowed
	queued bool     // in ackSet.queue
}

// ackSet is one lane worker's pending acknowledgements. Only that worker
// touches it.
type ackSet struct {
	send    func(to string, frame []byte) error // Conn.SendTo, which copies the frame
	dropped func()                              // one id discarded at the bound
	sets    map[ackKey]*ackEntry
	queue   []*ackEntry // the sets holding ids, in the order they got their first
	frame   []byte      // encode scratch
}

func newAckSet(send func(to string, frame []byte) error, dropped func()) ackSet {
	return ackSet{send: send, dropped: dropped, sets: make(map[ackKey]*ackEntry)}
}

// add records that id, published by origin, is to be acknowledged to the
// daemon at address to.
func (a *ackSet) add(to, origin string, id uint64) {
	k := ackKey{to: to, origin: origin}
	e := a.sets[k]
	if e == nil {
		if len(a.sets) >= maxAckKeys {
			for k, e := range a.sets {
				if !e.queued {
					delete(a.sets, k)
				}
			}
		}
		e = &ackEntry{ackKey: k}
		a.sets[k] = e
	}
	if !e.queued {
		e.queued = true
		a.queue = append(a.queue, e)
	}
	if len(e.ids) >= busproto.MaxAckIDs {
		// Held back by refusals up to the bound: only a repeat still fits.
		e.ids = sortUnique(e.ids)
		if _, repeat := slices.BinarySearch(e.ids, id); repeat {
			return
		}
		if len(e.ids) >= busproto.MaxAckIDs {
			a.dropped()
			return
		}
	}
	// Once, at the budget: a set the conn refused grows past it and waits
	// for the next flush.
	if e.ids = append(e.ids, id); len(e.ids) == ackFlushIDs {
		a.sendSet(e)
	}
}

// flush sends every pending set. A set the conn refuses stays queued.
func (a *ackSet) flush() {
	kept := a.queue[:0]
	for _, e := range a.queue {
		if len(e.ids) > 0 && !a.sendSet(e) {
			kept = append(kept, e)
			continue
		}
		e.queued = false
	}
	clear(a.queue[len(kept):])
	a.queue = kept
}

// sendSet sends one set as one frame and reports whether the conn took it.
func (a *ackSet) sendSet(e *ackEntry) bool {
	e.ids = sortUnique(e.ids)
	a.frame = busproto.AppendAck(a.frame[:0], e.origin, e.ids)
	if err := a.send(e.to, a.frame); err != nil {
		return false
	}
	e.ids = e.ids[:0]
	return true
}

func sortUnique(ids []uint64) []uint64 {
	slices.Sort(ids)
	return slices.Compact(ids)
}
