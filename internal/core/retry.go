package core

import (
	"time"

	"infobus/internal/ledger"
	"infobus/internal/subject"
	"infobus/internal/sysagent"
	"infobus/internal/telemetry"
)

// guaranteeRetrier re-publishes ledger entries that no consumer has
// acknowledged yet — including entries recovered from the ledger after a
// crash ("regardless of failures", §3.1).
//
// Each pending entry carries its own next-retry deadline with exponential
// backoff: the first retransmission happens one RetryInterval after the
// entry is first seen (an age filter — the daemon already sent it once at
// publish time), and every further one doubles the wait up to the cap. A
// publication nobody subscribes to therefore settles at one transmission
// per cap period instead of re-occupying the medium on every tick, while
// the common case (ack arrives before the first deadline) costs nothing.
//
// The retrier is a part of the host (sysagent's package comment): the host
// loop calls tick, which walks the ledger once per RetryInterval. The walk
// is allocation-free: the ledger's ForEachPending iterator reuses its
// snapshot buffer, the visit callback is prebound at construction, and
// per-entry retry state lives in a map only tick touches (no locking). State
// for acked entries is swept by generation stamping: every visit marks the
// entry with the current walk's generation, and whatever the walk did not
// touch is deleted afterwards.
type guaranteeRetrier struct {
	led *ledger.Ledger
	// publish re-disseminates one entry (daemon.PublishGuaranteed); an error
	// is a refusal: the walk stops there and the next one resumes.
	publish     func(s subject.Subject, payload []byte, id uint64) error
	every       sysagent.Every // the walk's cadence: RetryInterval
	cap         time.Duration
	retransmits *telemetry.Counter

	// Owned by tick, which is never called concurrently.
	state   map[uint64]retryState
	gen     uint64
	now     time.Time
	refused bool                       // this walk stopped at a refused publish
	visit   func(e *ledger.Entry) bool // prebound: no per-tick closure
}

// retryState is one pending entry's schedule.
type retryState struct {
	due     time.Time     // next retransmission deadline
	backoff time.Duration // wait to apply after the next retransmission
	gen     uint64        // last walk that saw the entry pending
}

// DefaultRetryBackoffCap bounds the exponential backoff between
// retransmissions of one unacknowledged publication (never below the
// retry interval).
const DefaultRetryBackoffCap = 5 * time.Second

func newGuaranteeRetrier(led *ledger.Ledger, interval time.Duration, retransmits *telemetry.Counter,
	publish func(subject.Subject, []byte, uint64) error) *guaranteeRetrier {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	r := &guaranteeRetrier{
		led:         led,
		publish:     publish,
		every:       sysagent.Every{D: interval},
		cap:         max(DefaultRetryBackoffCap, interval),
		retransmits: retransmits,
		state:       make(map[uint64]retryState),
	}
	r.visit = r.visitPending
	return r
}

// tick runs one walk when one is due: visit every pending entry
// (retransmitting the due ones), then sweep retry state whose entry is no
// longer pending — unless the walk was cut short, when what it did not reach
// keeps its schedule. It returns when the next walk is due. A walk that
// finds nothing pending, or nothing due, allocates nothing.
func (r *guaranteeRetrier) tick(now time.Time) time.Time {
	if !r.every.Due(now) {
		return r.every.At
	}
	r.gen++
	r.now, r.refused = now, false
	r.led.ForEachPending(r.visit)
	if !r.refused {
		for id, st := range r.state {
			if st.gen != r.gen {
				delete(r.state, id)
			}
		}
	}
	return r.every.At
}

// visitPending handles one pending entry during a walk. Returning false
// aborts the walk (daemon closed or backpressured; the next walk retries).
func (r *guaranteeRetrier) visitPending(e *ledger.Entry) bool {
	st, seen := r.state[e.ID]
	switch {
	case !seen:
		// First sight: schedule the first retransmission one interval out.
		// The publish path already put the message on the wire; entries
		// recovered after a crash were never re-sent, and waiting an interval
		// for those too keeps restart traffic from bursting the medium.
		st = retryState{due: r.now.Add(r.every.D), backoff: r.every.D}
	case r.now.Before(st.due):
	default:
		// A subject that does not parse cannot come from PublishGuaranteed:
		// skipped, but kept marked so its state is not resurrected every walk.
		if subj, err := subject.Parse(e.Subject); err == nil {
			if err := r.publish(subj, e.Payload, e.ID); err != nil {
				r.refused = true
				return false
			}
			r.retransmits.Inc()
			st.backoff = min(2*st.backoff, r.cap)
			st.due = r.now.Add(st.backoff)
		}
	}
	st.gen = r.gen
	r.state[e.ID] = st
	return true
}
