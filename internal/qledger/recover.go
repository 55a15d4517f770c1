package qledger

import (
	"sync"
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
// the origin, and re-publish from that log through the host's retrier
// (core.Retrier) with PublishGuaranteedAs, so each entry travels under the
// dead publisher's (origin, id) identity — consumers that already received
// the original dedup the replay, consumers that never did get it now, and
// delivery stays exactly-once either way.

// Promote makes this agent the recovery coordinator (rmi.Candidate).
func (a *Agent) Promote() error {
	a.scanMu.Lock()
	defer a.scanMu.Unlock()
	a.scanStop = make(chan struct{})
	return nil
}

// Retire steps down from coordinating (rmi.Candidate). In-flight
// recoveries send their last release and stop.
func (a *Agent) Retire() {
	a.scanMu.Lock()
	defer a.scanMu.Unlock()
	if a.scanStop != nil {
		close(a.scanStop)
		a.scanStop = nil
	}
}

// coordinatorDone returns the channel that cancels coordinator work, or
// nil when not leading.
func (a *Agent) coordinatorDone() chan struct{} {
	a.scanMu.Lock()
	defer a.scanMu.Unlock()
	return a.scanStop
}

// scanForCrashed runs on the beat tick while leading: any origin with
// pending replicated entries that has not been heard from for
// CrashTimeout gets a recovery goroutine. First sight of an origin only
// starts its silence clock — a coordinator elected after a crash must
// still wait out the timeout before declaring the publisher dead.
func (a *Agent) scanForCrashed() {
	stop := a.coordinatorDone()
	if stop == nil {
		return
	}
	now := time.Now()
	for _, origin := range a.store.Origins() {
		if origin == a.origin {
			continue
		}
		a.mu.Lock()
		last, known := a.heard[origin]
		if !known {
			a.heard[origin] = now
		}
		busy := a.recovering[origin]
		start := known && !busy && now.Sub(last) >= a.cfg.CrashTimeout
		if start {
			a.recovering[origin] = true
		}
		a.mu.Unlock()
		if start {
			a.ctr.recoveries.Inc()
			if a.rec != nil {
				a.rec.Record(telemetry.EventRepl, "recover:"+origin, int64(a.store.PendingCount(origin)), 0)
			}
			a.wg.Add(1)
			go a.recoverOrigin(origin, stop)
		}
	}
}

// recoverOrigin fosters one dead publisher's pending entries: it stores the
// majority-read union in this replica's own log for the origin, then
// replays from that log.
func (a *Agent) recoverOrigin(origin string, stop chan struct{}) {
	defer a.wg.Done()
	defer func() {
		a.mu.Lock()
		delete(a.recovering, origin)
		// Restart the silence clock: if entries remain (capped read reply,
		// replay interrupted by retirement), the next scan re-fosters after
		// another CrashTimeout instead of spinning.
		a.heard[origin] = time.Now()
		a.mu.Unlock()
	}()
	ol, err := a.store.open(origin)
	if err != nil || !a.majorityRead(origin, ol.led, stop) {
		return
	}
	a.replay(origin, ol.led, stop)
}

// majorityRead collects the pending set for origin from a read quorum of
// replicas (this host's own store answers over the same broadcast path as
// everyone else's) and applies each reply to led: the coordinator stores
// before it acts. AppendBatch validates a reply's records and skips the
// ones led already holds, so led ends up holding the union. Rounds repeat
// until the quorum is reached or the coordinator stops.
func (a *Agent) majorityRead(origin string, led *ledger.Ledger, stop chan struct{}) bool {
	for {
		a.mu.Lock()
		a.round++
		round := a.round
		ch := make(chan Frame, a.cfg.Factor+4)
		a.readReps[round] = ch
		a.mu.Unlock()
		req := AppendFrame(nil, Frame{Type: FrameReadReq, Origin: origin, Round: round})
		_ = a.d.Publish(subjRead, req)
		_ = a.d.Flush()

		seen := make(map[string]bool)
		timer := time.NewTimer(a.cfg.ReadTimeout)
	collect:
		for len(seen) < a.readQ {
			select {
			case f := <-ch:
				if f.Origin != origin || f.Replica == "" || seen[f.Replica] {
					continue
				}
				seen[f.Replica] = true
				_ = led.AppendBatch(f.Records)
			case <-timer.C:
				break collect
			case <-stop:
				timer.Stop()
				a.dropRound(round)
				return false
			case <-a.done:
				timer.Stop()
				a.dropRound(round)
				return false
			}
		}
		timer.Stop()
		a.dropRound(round)
		if len(seen) >= a.readQ {
			return true
		}
		select {
		case <-time.After(a.cfg.RetryInterval):
		case <-stop:
			return false
		case <-a.done:
			return false
		}
	}
}

func (a *Agent) dropRound(round uint64) {
	a.mu.Lock()
	delete(a.readReps, round)
	a.mu.Unlock()
}

// replay re-publishes the entries in led under the dead publisher's
// identity through a core.Retrier — the host's own retransmission policy,
// backoff included — until consumers have acknowledged every one. Each
// acknowledgement is applied to led and rides the next FrameRelease, which
// every replica (this host's own store included, via loopback) applies to
// trim its copy. The loop stops ticking before its last release goes out,
// so the release retiring led cannot happen under a walk; a release that
// retires led earlier leaves it closed and empty, which ends the loop too.
func (a *Agent) replay(origin string, led *ledger.Ledger, stop chan struct{}) {
	var mu sync.Mutex
	var acked []byte // ack records for the next FrameRelease
	release := func() {
		mu.Lock()
		records := acked
		acked = nil
		mu.Unlock()
		if len(records) > 0 {
			_ = a.d.Publish(subjRelease, AppendFrame(nil, Frame{Type: FrameRelease, Origin: origin, Records: records}))
			_ = a.d.Flush()
		}
	}
	defer release()
	a.d.FosterAcks(origin, func(id uint64, _ string) {
		if led.Ack(id) != nil {
			return // retired under us: the release that did it covered the id
		}
		mu.Lock()
		acked = ledger.AppendAckRecord(acked, id)
		mu.Unlock()
	})
	defer a.d.DropFosterAcks(origin) // before the last release

	r := core.NewRetrier(led, a.cfg.RetryInterval, a.ctr.replayedMsgs, func(s subject.Subject, payload []byte, id uint64) error {
		_, err := a.d.PublishGuaranteedAs(s, payload, id, origin, nil)
		return err
	})
	timer := time.NewTimer(0) // the first tick arms the retrier's cadence
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
		case <-stop:
			return
		case <-a.done:
			return
		}
		now := time.Now()
		next := r.Tick(now)
		if led.Len() == 0 {
			return
		}
		release()
		timer.Reset(next.Sub(now))
	}
}
