package qledger

import (
	"time"

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
// intersect every write quorum), union the entries, and re-publish each
// with PublishGuaranteedOrigin so it travels under the dead publisher's
// (origin, id) identity — consumers that already received the original
// dedup the replay, consumers that never did get it now, and delivery
// stays exactly-once either way.

// Promote makes this agent the recovery coordinator (rmi.Candidate).
func (a *Agent) Promote() error {
	a.scanMu.Lock()
	defer a.scanMu.Unlock()
	a.scanStop = make(chan struct{})
	return nil
}

// Retire steps down from coordinating (rmi.Candidate). In-flight
// recoveries finish their current replay round and stop.
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

// recoverOrigin fosters one dead publisher's pending entries.
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
	entries, ok := a.majorityRead(origin, stop)
	if !ok || len(entries) == 0 {
		return
	}
	a.replay(origin, entries, stop)
}

// majorityRead collects the pending set for origin from a read quorum of
// replicas (this host's own store answers over the same broadcast path as
// everyone else's). Rounds repeat until the quorum is reached or the
// coordinator stops.
func (a *Agent) majorityRead(origin string, stop chan struct{}) (map[uint64]ledger.Rec, bool) {
	entries := make(map[uint64]ledger.Rec)
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
		for {
			select {
			case f := <-ch:
				if f.Origin != origin || f.Replica == "" || seen[f.Replica] {
					continue
				}
				seen[f.Replica] = true
				for recs := f.Records; len(recs) > 0; {
					rec, n, err := ledger.NextRecord(recs)
					if err != nil {
						break
					}
					recs = recs[n:]
					if rec.Ack {
						delete(entries, rec.ID)
						continue
					}
					if _, dup := entries[rec.ID]; !dup {
						entries[rec.ID] = rec
					}
				}
				if len(seen) >= a.readQ {
					break collect
				}
			case <-timer.C:
				break collect
			case <-stop:
				timer.Stop()
				a.dropRound(round)
				return nil, false
			case <-a.done:
				timer.Stop()
				a.dropRound(round)
				return nil, false
			}
		}
		timer.Stop()
		a.dropRound(round)
		if len(seen) >= a.readQ {
			return entries, true
		}
		select {
		case <-time.After(a.cfg.RetryInterval):
		case <-stop:
			return nil, false
		case <-a.done:
			return nil, false
		}
	}
}

func (a *Agent) dropRound(round uint64) {
	a.mu.Lock()
	delete(a.readReps, round)
	a.mu.Unlock()
}

// replay re-publishes the fostered entries under the dead publisher's
// identity until consumers acknowledge each one, releasing the replicas'
// copies as acks land.
func (a *Agent) replay(origin string, entries map[uint64]ledger.Rec, stop chan struct{}) {
	ackC := make(chan uint64, len(entries)+16)
	a.d.FosterAcks(origin, func(id uint64, from string) {
		select {
		case ackC <- id:
		default:
		}
	})
	defer a.d.DropFosterAcks(origin)

	var ackedRecords []byte
	flushReleases := func() {
		if len(ackedRecords) == 0 {
			return
		}
		rel := AppendFrame(nil, Frame{Type: FrameRelease, Origin: origin, Records: ackedRecords})
		ackedRecords = nil
		// Broadcast: every replica (this host's own store included, via
		// loopback) trims the recovered entries.
		_ = a.d.Publish(subjRelease, rel)
		_ = a.d.Flush()
	}

	for len(entries) > 0 {
		for id, rec := range entries {
			s, err := subject.Parse(rec.Subject)
			if err != nil {
				delete(entries, id) // unroutable: drop rather than loop forever
				continue
			}
			_ = a.d.PublishGuaranteedOrigin(s, rec.Payload, id, origin)
			a.ctr.replayedMsgs.Inc()
		}
		_ = a.d.Flush()
		timer := time.NewTimer(a.cfg.RetryInterval)
	drain:
		for {
			select {
			case id := <-ackC:
				if _, ok := entries[id]; ok {
					delete(entries, id)
					ackedRecords = ledger.AppendAckRecord(ackedRecords, id)
				}
				if len(entries) == 0 {
					break drain
				}
			case <-timer.C:
				break drain
			case <-stop:
				timer.Stop()
				flushReleases()
				return
			case <-a.done:
				timer.Stop()
				return
			}
		}
		timer.Stop()
		flushReleases()
	}
}
