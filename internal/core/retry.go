package core

import (
	"sync"
	"time"

	"infobus/internal/daemon"
	"infobus/internal/ledger"
	"infobus/internal/subject"
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
// The per-tick walk is allocation-free: the ledger's ForEachPending
// iterator reuses its snapshot buffer, the visit callback is prebound at
// construction, and per-entry retry state lives in a map owned by the
// retrier goroutine (no locking). State for acked entries is swept by
// generation stamping: every visit marks the entry with the current tick
// generation, and whatever the walk did not touch is deleted afterwards.
type guaranteeRetrier struct {
	d           *daemon.Daemon
	led         *ledger.Ledger
	interval    time.Duration
	cap         time.Duration
	retransmits *telemetry.Counter
	done        chan struct{}
	wg          sync.WaitGroup

	// Retrier-goroutine state; tick() is never called concurrently.
	state map[uint64]retryState
	gen   uint64
	now   time.Time
	visit func(e *ledger.Entry) bool // prebound: no per-tick closure
}

// retryState is one pending entry's schedule.
type retryState struct {
	due     time.Time     // next retransmission deadline
	backoff time.Duration // wait to apply after the next retransmission
	gen     uint64        // last tick generation that saw the entry pending
}

// DefaultRetryBackoffCap bounds the exponential backoff between
// retransmissions of one unacknowledged publication.
const DefaultRetryBackoffCap = 5 * time.Second

func newGuaranteeRetrier(d *daemon.Daemon, led *ledger.Ledger, interval, backoffCap time.Duration,
	retransmits *telemetry.Counter) *guaranteeRetrier {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if backoffCap < interval {
		backoffCap = DefaultRetryBackoffCap
		if backoffCap < interval {
			backoffCap = interval
		}
	}
	r := &guaranteeRetrier{
		d:           d,
		led:         led,
		interval:    interval,
		cap:         backoffCap,
		retransmits: retransmits,
		done:        make(chan struct{}),
		state:       make(map[uint64]retryState),
	}
	r.visit = r.visitPending
	d.OnGuaranteeAck(func(id uint64, _ string) { _ = led.Ack(id) })
	r.wg.Add(1)
	go r.loop()
	return r
}

func (r *guaranteeRetrier) stop() {
	close(r.done)
	r.wg.Wait()
}

func (r *guaranteeRetrier) loop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case now := <-ticker.C:
			r.tick(now)
		}
	}
}

// tick runs one scan: visit every pending entry (retransmitting the due
// ones), then sweep retry state whose entry is no longer pending. An idle
// tick — nothing pending, or nothing due — allocates nothing.
func (r *guaranteeRetrier) tick(now time.Time) {
	r.gen++
	r.now = now
	r.led.ForEachPending(r.visit)
	if len(r.state) > 0 {
		for id, st := range r.state {
			if st.gen != r.gen {
				delete(r.state, id)
			}
		}
	}
}

// visitPending handles one pending entry during a tick. Returning false
// aborts the walk (daemon closed or backpressured; the next tick retries).
func (r *guaranteeRetrier) visitPending(e *ledger.Entry) bool {
	st, ok := r.state[e.ID]
	if !ok {
		// First sight: schedule the first retransmission one interval out.
		// The publish path (or the post-restart recovery below) already put
		// the message on the wire... except after a crash, where recovered
		// entries were never re-sent. Treat recovery like a publish: the
		// entry is due after one interval either way, which keeps restart
		// traffic from bursting the medium all at once.
		r.state[e.ID] = retryState{due: r.now.Add(r.interval), backoff: r.interval, gen: r.gen}
		return true
	}
	if r.now.Before(st.due) {
		st.gen = r.gen
		r.state[e.ID] = st
		return true
	}
	subj, err := subject.Parse(e.Subject)
	if err != nil {
		// Unparseable subjects cannot come from PublishGuaranteed; skip but
		// keep the entry marked so its state is not resurrected every tick.
		st.gen = r.gen
		r.state[e.ID] = st
		return true
	}
	if err := r.d.PublishGuaranteed(subj, e.Payload, e.ID); err != nil {
		return false
	}
	r.retransmits.Inc()
	st.backoff *= 2
	if st.backoff > r.cap {
		st.backoff = r.cap
	}
	st.due = r.now.Add(st.backoff)
	st.gen = r.gen
	r.state[e.ID] = st
	return true
}
