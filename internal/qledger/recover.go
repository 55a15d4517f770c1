package qledger

import (
	"encoding/hex"
	"slices"
	"time"

	"infobus/internal/core"
	"infobus/internal/ledger"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
)

// Recovery coordination. The replica hosts elect one coordinator through
// the same bus election servers use (internal/rmi, §3.3 of the paper) —
// the Agent is the election's Candidate. The coordinator watches for
// publishers that stopped beating while replicas still hold pending
// entries for them, then runs the majority-read-and-replay protocol: read
// the pending set from a read quorum of replicas (any set that must
// intersect every write quorum), store the union in its own replica log for
// the origin, and re-publish from that log through a core.Retrier with
// PublishGuaranteedAs, so each entry travels under the dead publisher's
// (origin, id) identity — consumers that already received the original
// dedup the replay, consumers that never did get it now, and delivery stays
// exactly-once either way. Every step is a state of the coordinator's Tick.

// recovery is one origin the coordinator fosters: a read round until a read
// quorum of replicas has answered it, then a replay until the log drains.
type recovery struct {
	led   *ledger.Ledger
	round uint64          // the read round in flight; 0 once replaying
	seen  map[string]bool // the replicas that answered it
	due   time.Time       // when the round times out
	retry *core.Retrier   // the replay; nil while reading
	acked []byte          // ack records for the next FrameRelease, under Agent.mu
}

// Promote makes this agent the recovery coordinator (rmi.Candidate).
func (a *Agent) Promote() error {
	a.leading = true
	return nil
}

// Retire steps down from coordinating (rmi.Candidate). Every recovery sends
// its last release and ends.
func (a *Agent) Retire() {
	a.leading = false
	for origin, r := range a.recovering {
		a.finish(origin, r)
	}
}

// scan runs at beat cadence on an agent with a store. It starts the
// silence clock of each origin heard since the last scan and forgets the
// origins the store does not hold once they have been silent for the crash
// timeout. On the coordinator it then fosters every held origin silent that
// long. First sight of a held origin only starts its clock: a coordinator
// elected after a crash must still wait out the timeout before declaring
// the publisher dead.
func (a *Agent) scan(now time.Time) {
	held := a.store.Origins() // sorted
	for origin, last := range a.heard {
		switch {
		case last.IsZero():
			a.heard[origin] = now
		case now.Sub(last) >= a.crashTimeout:
			if _, ok := slices.BinarySearch(held, origin); !ok {
				delete(a.heard, origin)
			}
		}
	}
	if !a.leading {
		return
	}
	for _, origin := range held {
		if origin == a.origin || a.recovering[origin] != nil {
			continue
		}
		last, known := a.heard[origin]
		switch {
		case !known:
			a.heard[origin] = now
		case now.Sub(last) >= a.crashTimeout:
			a.foster(origin, now)
		}
	}
}

// foster starts recovering a silent origin with its first read round.
func (a *Agent) foster(origin string, now time.Time) {
	ol, err := a.store.open(origin)
	if err != nil {
		return
	}
	a.ctr.recoveries.Inc()
	if a.rec != nil {
		a.rec.Record(telemetry.EventRepl, "recover:"+hex.EncodeToString([]byte(origin)), int64(a.store.PendingCount(origin)), 0)
	}
	r := &recovery{led: ol.led}
	a.recovering[origin] = r
	a.read(origin, r, now)
}

// read starts a majority-read round: every replica — this host's own store
// included, over the same broadcast path — answers with its pending set for
// the origin, and handleReadRep applies each answer to the recovery's log:
// the coordinator stores before it acts.
func (a *Agent) read(origin string, r *recovery, now time.Time) {
	a.round++
	r.round, r.seen, r.due = a.round, make(map[string]bool), now.Add(a.cfg.readTimeout)
	_ = a.d.Publish(subjRead, AppendFrame(nil, Frame{Type: FrameReadReq, Origin: origin, Round: r.round}))
	_ = a.d.Flush()
}

// handleReadRep applies a reply to the round in flight to the recovery's
// log at once. AppendBatch validates the records and skips the ones the log
// already holds, so the log ends up holding the union.
func (a *Agent) handleReadRep(f Frame) {
	r := a.recovering[f.Origin]
	if r == nil || r.round == 0 || f.Round != r.round || f.Replica == "" || r.seen[f.Replica] {
		return
	}
	r.seen[f.Replica] = true
	_ = r.led.AppendBatch(f.Records)
}

// advance moves one recovery on and returns when it next wants the clock.
// A round that reached the read quorum starts the replay; one that timed
// out short of it repeats. A replay sends the release of what consumers
// acknowledged since the last tick, ticks its retrier, and ends when the
// log holds nothing pending — drained by acknowledgements, or retired and
// closed by a release.
func (a *Agent) advance(origin string, r *recovery, now time.Time) time.Time {
	if r.retry == nil {
		switch {
		case len(r.seen) >= a.readQ:
			a.replay(origin, r)
		case now.Before(r.due):
			return r.due
		default:
			a.read(origin, r, now)
			return r.due
		}
	}
	a.release(origin, r)
	next := r.retry.Tick(now)
	if r.led.Len() == 0 {
		a.finish(origin, r)
		return time.Time{}
	}
	return next
}

// replay re-publishes the entries in the recovery's log under the dead
// publisher's identity through a core.Retrier — the host's own
// retransmission policy, backoff included. Each acknowledgement is applied
// to the log and rides the next FrameRelease, which every replica (this
// host's own store included, via loopback) applies to trim its copy.
func (a *Agent) replay(origin string, r *recovery) {
	r.round, r.seen = 0, nil
	a.d.FosterAcks(origin, func(id uint64, _ string) {
		if r.led.Ack(id) != nil {
			return // retired under us: the release that did it covered the id
		}
		a.mu.Lock()
		r.acked = ledger.AppendAckRecord(r.acked, id)
		a.mu.Unlock()
	})
	r.retry = core.NewRetrier(r.led, a.cfg.RetryInterval, a.ctr.replayedMsgs, a.rec, func(s subject.Subject, payload []byte, id uint64) error {
		_, err := a.d.PublishGuaranteedAs(s, payload, id, origin, ledger.AppendTimings{}, false)
		return err
	})
}

// finish ends a recovery — its log drained, or the coordinator retiring —
// and sends its last release once acks stop reaching it. The origin's
// silence clock restarts at the next scan: if entries remain (a capped
// read reply, a replay cut short), a later scan fosters it again after
// another crash timeout instead of spinning.
func (a *Agent) finish(origin string, r *recovery) {
	a.d.DropFosterAcks(origin)
	a.release(origin, r)
	delete(a.recovering, origin)
	a.heard[origin] = time.Time{}
}

// release publishes the ack records gathered for origin since the last
// release, if any.
func (a *Agent) release(origin string, r *recovery) {
	a.mu.Lock()
	records := r.acked
	r.acked = nil
	a.mu.Unlock()
	if len(records) > 0 {
		_ = a.d.Publish(subjRelease, AppendFrame(nil, Frame{Type: FrameRelease, Origin: origin, Records: records}))
		_ = a.d.Flush()
	}
}
