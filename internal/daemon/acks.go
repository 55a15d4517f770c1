package daemon

import (
	"slices"
	"sync"
	"time"

	"infobus/internal/busproto"
)

// Guaranteed-delivery acknowledgements, coalesced on the host loop's clock.
//
// A consumer daemon acknowledges a guaranteed publication to whoever sent it,
// and the publisher keeps the publication until someone does (§3.1). The
// acknowledgement is not a unicast of its own: a lane's inbound worker records
// (sender, origin, id) in its lane's ackSet, and each (sender, origin) set
// goes out as one KindGuarAck run list (busproto.AppendAck).
//
// When a set goes out is a property of the traffic, not of how often the
// consumer goes idle. A set is quick for its first QuickAcks sends after it
// was last idle: the worker sends it whenever its shard has nothing more
// queued, so a sender that publishes now and then is acknowledged at once and
// a host's set-up waits on no clock. After that the set is on the clock: the
// daemon's TickAcks, called from the host's loop, sends it at most once per
// AckDelay. A due tick that finds the set empty makes it quick again. A set
// that reaches ackFlushIDs is sent at once either way, and Close sends what
// every set still holds. A daemon nobody ticks (no host loop) never puts a set
// on the clock and acknowledges on every drain.
//
// Ids arrive in any order (two publishers race between their ledger and their
// publish; a recovery replay walks a map), so a set is sorted before it is
// encoded, and the receiving daemon hands its callback one id at a time.
//
// A set the conn refuses (the unicast window to the sender is full) stays
// pending and goes out with its next drain or due tick. What it may hold is
// bounded by what one frame may name, busproto.MaxAckIDs; an id recorded into
// a set at the bound is discarded, counted as daemon.guar_ack_dropped and
// recorded as a "guar-ack" drop, and the publisher's next retransmission is
// acknowledged again from the dedup ring.

// ackFlushIDs is the id budget of one pending set: a set that records this
// many before it is sent goes out at once.
const ackFlushIDs = 256

// QuickAcks is how many sends a set makes on drain after it was last idle,
// before it goes on the clock; AckDelay is the clock's period: a set on it
// sends at most one frame per AckDelay.
const (
	QuickAcks = 4
	AckDelay  = 2 * time.Millisecond
)

// maxAckKeys bounds the (sender, origin) sets a lane keeps between uses.
// At the bound, the sets that hold nothing and are not on the clock are
// forgotten: a publisher's origin is new at every start, so old ones would
// otherwise stay for good.
const maxAckKeys = 256

type ackKey struct{ to, origin string }

// ackEntry is the pending acknowledgement of one (sender, origin).
type ackEntry struct {
	ackKey
	ids    []uint64  // recorded since the last send that went out: any order, repeats allowed
	quick  int       // sends on drain since the set was last idle; QuickAcks puts it on the clock
	due    time.Time // on the clock: when the next tick sends; zero until a tick stamps it
	queued bool      // in ackSet.queue
}

func (e *ackEntry) clocked() bool { return e.quick >= QuickAcks }

// ackSet is one lane's pending acknowledgements. The lane's worker records and
// sends on drain, the daemon's tick sends what is on the clock: each method
// holds mu for the call.
type ackSet struct {
	mu      sync.Mutex
	send    func(to string, frame []byte) error // Conn.SendTo, which copies the frame
	dropped func()                              // one id discarded at the bound
	wake    func()                              // a set went on the clock: the tick is wanted
	ticked  bool                                // a tick has run: sets may go on the clock
	sets    map[ackKey]*ackEntry
	queue   []*ackEntry // the sets holding ids or on the clock, in the order they were queued
	frame   []byte      // encode scratch
}

func newAckSet(send func(to string, frame []byte) error, dropped, wake func()) *ackSet {
	return &ackSet{send: send, dropped: dropped, wake: wake, sets: make(map[ackKey]*ackEntry)}
}

// add records that id, published by origin, is to be acknowledged to the
// daemon at address to.
func (a *ackSet) add(to, origin string, id uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
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
	// for its next drain or due tick.
	if e.ids = append(e.ids, id); len(e.ids) == ackFlushIDs {
		a.sendSet(e)
	}
}

// flush is the drain: it sends every quick set holding ids. A set the conn
// refuses stays queued; one that has made its QuickAcks sends goes on the
// clock, and the tick is woken to stamp it.
func (a *ackSet) flush() {
	a.mu.Lock()
	defer a.mu.Unlock()
	kept := a.queue[:0]
	for _, e := range a.queue {
		if !e.clocked() && len(e.ids) > 0 {
			if !a.sendSet(e) {
				kept = append(kept, e)
				continue
			}
			if a.ticked {
				if e.quick++; e.clocked() {
					a.wake()
				}
			}
		}
		if e.clocked() {
			kept = append(kept, e)
			continue
		}
		e.queued = false
	}
	clear(a.queue[len(kept):])
	a.queue = kept
}

// tick sends the sets on the clock that are due at now and returns when it
// next wants the clock, zero when no set is on it. A set just put on the
// clock is stamped one AckDelay out; a due set is sent, or made quick again
// if it holds nothing; a refused send stays pending for the next due tick.
func (a *ackSet) tick(now time.Time) time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ticked = true
	var next time.Time
	kept := a.queue[:0]
	for _, e := range a.queue {
		if e.clocked() {
			switch {
			case e.due.IsZero():
				e.due = now.Add(AckDelay)
			case now.Before(e.due):
			case len(e.ids) == 0:
				e.quick, e.due, e.queued = 0, time.Time{}, false
				continue
			default:
				a.sendSet(e)
				e.due = now.Add(AckDelay)
			}
			if next.IsZero() || e.due.Before(next) {
				next = e.due
			}
		}
		kept = append(kept, e)
	}
	clear(a.queue[len(kept):])
	a.queue = kept
	return next
}

// sendAll sends every set holding ids, quick or on the clock: what a closing
// daemon still owes.
func (a *ackSet) sendAll() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.queue {
		if len(e.ids) > 0 {
			a.sendSet(e)
		}
	}
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
