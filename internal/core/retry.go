package core

import (
	"errors"
	"time"

	"infobus/internal/ledger"
	"infobus/internal/subject"
	"infobus/internal/sysagent"
	"infobus/internal/telemetry"
)

// Retrier re-publishes ledger entries that no consumer has acknowledged
// yet — including entries recovered from the ledger after a crash
// ("regardless of failures", §3.1). It is the one retransmission policy for
// guaranteed delivery: a host runs one over its own ledger, and a qledger
// recovery coordinator runs one over a dead publisher's fostered entries.
//
// Each pending entry carries its own next-retry deadline with exponential
// backoff: the first retransmission happens one RetryInterval after the
// entry is first seen (an age filter — the daemon already sent it once at
// publish time), and every further one doubles the wait up to the cap. A
// publication nobody subscribes to therefore settles at one transmission
// per cap period instead of re-occupying the medium on every tick, while
// the common case (ack arrives before the first deadline) costs nothing.
//
// The retrier is a Part: the host loop, or the part fostering an origin,
// calls Tick, which walks the ledger once per interval. The walk lists the
// due entries, then reads their payloads back from the ledger (the log
// holds them; memory does not) into one buffer the retrier reuses, and
// publishes them oldest first. An entry acked since the listing, or whose
// batch is still in flight, is not read and waits for the next walk. An
// entry whose record does not read back (damaged on disk) stays pending
// and due, since dropping it would lose a guaranteed message without a
// trace; the first walk to meet it records a "guar-unreadable" drop event
// naming its id, and later walks stay silent. Once
// warm the walk is allocation-free: the ledger's ForEachPending iterator
// and the due list reuse their buffers, the visit callback is prebound at
// construction, and per-entry retry state lives in a map only Tick touches
// (no locking). State for acked entries is swept by generation stamping:
// every visit marks the entry with the current walk's generation, and
// whatever the walk did not touch is deleted afterwards.
type Retrier struct {
	led *ledger.Ledger
	// publish re-disseminates one entry (daemon.PublishGuaranteed, or
	// PublishGuaranteedAs for a fostered origin); an error is a refusal:
	// the walk stops there and the next one resumes.
	publish     func(s subject.Subject, payload []byte, id uint64) error
	every       sysagent.Every // the walk's cadence: RetryInterval
	cap         time.Duration
	retransmits *telemetry.Counter
	rec         *telemetry.Recorder // nil with the health tier off

	// Owned by Tick, which is never called concurrently.
	state   map[uint64]retryState
	gen     uint64
	now     time.Time
	refused bool                       // this walk stopped at a refused publish
	visit   func(e *ledger.Entry) bool // prebound: no per-tick closure
	due     []ledger.Entry             // this walk's due entries
	buf     []byte                     // their payloads, read back from the ledger
}

// retryState is one pending entry's schedule.
type retryState struct {
	due     time.Time     // next retransmission deadline
	backoff time.Duration // wait to apply after the next retransmission
	gen     uint64        // last walk that saw the entry pending

	unreadable bool // a walk met its record damaged and recorded so
}

// DefaultRetryBackoffCap bounds the exponential backoff between
// retransmissions of one unacknowledged publication (never below the
// retry interval).
const DefaultRetryBackoffCap = 5 * time.Second

// NewRetrier returns a retrier over led that walks every interval (100ms
// when <= 0), counts each retransmission in retransmits, records an entry
// it cannot read back in rec (nil records nothing), and re-disseminates
// through publish.
func NewRetrier(led *ledger.Ledger, interval time.Duration, retransmits *telemetry.Counter,
	rec *telemetry.Recorder, publish func(subject.Subject, []byte, uint64) error) *Retrier {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	r := &Retrier{
		led:         led,
		publish:     publish,
		every:       sysagent.Every{D: interval},
		cap:         max(DefaultRetryBackoffCap, interval),
		retransmits: retransmits,
		rec:         rec,
		state:       make(map[uint64]retryState),
	}
	r.visit = r.visitPending
	return r
}

// Tick runs one walk when one is due: flush the ledger's staged acks,
// visit every pending entry, retransmit the due ones, then sweep retry
// state whose entry is no longer pending — unless the walk was cut short,
// when what it did not reach keeps its schedule. It returns when the next
// walk is due. A warm walk allocates nothing.
func (r *Retrier) Tick(now time.Time) time.Time {
	if !r.every.Due(now) {
		return r.every.At
	}
	r.led.Flush()
	r.gen++
	r.now, r.refused = now, false
	r.led.ForEachPending(r.visit)
	if len(r.due) > 0 {
		// An entry that does not read back is skipped, and stays due.
		var err error
		if r.due, r.buf, err = r.led.ReadPayloads(r.due, r.buf); err != nil {
			r.reportUnreadable(err)
		}
		for i := range r.due {
			if !r.retransmit(&r.due[i]) {
				r.refused = true
				break
			}
		}
		clear(r.due)
		r.due = r.due[:0]
	}
	if !r.refused {
		for id, st := range r.state {
			if st.gen != r.gen {
				delete(r.state, id)
			}
		}
	}
	return r.every.At
}

// Hear does nothing: a retrier hears no subject.
func (r *Retrier) Hear(_, _ []byte) {}

// visitPending handles one pending entry during a walk: it marks the entry
// seen and lists it when it is due.
func (r *Retrier) visitPending(e *ledger.Entry) bool {
	st, seen := r.state[e.ID]
	switch {
	case !seen:
		// First sight: schedule the first retransmission one interval out.
		// The publish path already put the message on the wire; entries
		// recovered after a crash were never re-sent, and waiting an interval
		// for those too keeps restart traffic from bursting the medium.
		st = retryState{due: r.now.Add(r.every.D), backoff: r.every.D}
	case !r.now.Before(st.due):
		r.due = append(r.due, *e)
	}
	st.gen = r.gen
	r.state[e.ID] = st
	return true
}

// reportUnreadable records each entry err names as unreadable, the first
// time a walk meets it.
func (r *Retrier) reportUnreadable(err error) {
	var refused *ledger.UnreadableError
	if !errors.As(err, &refused) {
		return
	}
	for _, id := range refused.IDs {
		st := r.state[id]
		if st.unreadable {
			continue
		}
		st.unreadable = true
		r.state[id] = st
		if r.rec != nil {
			r.rec.Record(telemetry.EventDrop, "guar-unreadable", 1, int64(id))
		}
	}
}

// retransmit re-publishes one due entry and backs its schedule off.
// Returning false stops the walk (daemon closed or backpressured; the next
// walk retries). A subject that does not parse cannot come from
// PublishGuaranteed: skipped, but kept so its state is not resurrected
// every walk.
func (r *Retrier) retransmit(e *ledger.Entry) bool {
	subj, err := subject.Parse(e.Subject)
	if err != nil {
		return true
	}
	if err := r.publish(subj, e.Payload, e.ID); err != nil {
		return false
	}
	r.retransmits.Inc()
	st := r.state[e.ID]
	st.backoff = min(2*st.backoff, r.cap)
	st.due = r.now.Add(st.backoff)
	r.state[e.ID] = st
	return true
}
