package core

import (
	"sync"
	"time"

	"infobus/internal/daemon"
	"infobus/internal/subject"
	"infobus/internal/sysagent"
)

// Part is a periodic duty of a host, driven by the host's one loop
// (Host.AddPart). Tick does what has come due by now and returns when the
// part next wants the clock (zero: not until it hears something or the loop
// is woken). Hear is handed each delivery on a subject the part was added
// with; the subject is lent for the call, the payload is the delivery's. Both
// run on the loop's goroutine, one call at a time, and neither may block on
// an application or on the network. Waits on the node's own disk are the
// one exception: a replica's group-commit fsync, and the retry walk's
// Ledger.Flush, at most once per RetryInterval. That Flush commits whatever
// is staged, acks and, when it takes the lock just as a commit hands over
// its lead, the message records of waiting PublishGuaranteed callers; with
// LedgerSync it fsyncs them, and a replicated publisher's commit hook
// builds and broadcasts their chunks on the loop.
type Part interface {
	Tick(now time.Time) time.Time
	Hear(subject, payload []byte)
}

// hostLoop is the host's only housekeeping goroutine, started by NewHost: it
// ticks every part, sleeps until their earliest deadline or until the daemon
// kicks it (a subscription change, an acknowledgement set going on the
// clock), and feeds each part what its "_sys" client hears on its subjects.
// One loop is enough because no part blocks on an application (a bus retries
// its own stash) or is called from a publish or delivery path.
type hostLoop struct {
	client *daemon.Client      // "_sys": subscribed to every part's patterns
	hear   *subject.Trie[Part] // pattern -> the parts that hear it
	parts  []Part              // under Host.mu
	pass   sync.Mutex          // held for one pass: a removal waits it out
	subj   []byte              // the subject being heard, lent to Hear
	wake   chan struct{}       // a part wants the clock before its deadline
	done   chan struct{}
	exited chan struct{}
}

// daemonPart is the daemon's two policies on the host's clock as one part:
// its interest advertisements (daemon.TickInterest) and its deferred
// guaranteed-delivery acknowledgements (daemon.TickAcks).
type daemonPart struct{ d *daemon.Daemon }

func (p daemonPart) Tick(now time.Time) time.Time {
	return sysagent.Earliest(p.d.TickInterest(now), p.d.TickAcks(now))
}
func (daemonPart) Hear(_, _ []byte) {}

// AddPart puts p on the host's loop. From then on the loop ticks p and hands
// it every delivery on a subject one of patterns matches.
// The returned func takes p off the loop and returns once the loop is no
// longer inside it; a part must not call it.
func (h *Host) AddPart(p Part, patterns ...string) (remove func(), err error) {
	pats := make([]subject.Pattern, len(patterns))
	for i, s := range patterns {
		if pats[i], err = subject.ParsePattern(s); err != nil {
			return nil, err
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	for _, pat := range pats {
		if err := h.loop.client.Subscribe(pat); err != nil {
			return nil, err
		}
		h.loop.hear.Add(pat, p)
	}
	h.loop.parts = append(h.loop.parts, p)
	kick(h.loop.wake) // the new part's first tick
	return func() { h.removePart(h.loop, p, pats) }, nil
}

// removePart takes p and its patterns off the loop, dropping the client's
// subscription to a pattern no other part hears, then waits out a pass in
// flight.
func (h *Host) removePart(l *hostLoop, p Part, pats []subject.Pattern) {
	h.mu.Lock()
	for i, q := range l.parts {
		if q == p {
			l.parts = append(l.parts[:i], l.parts[i+1:]...)
			break
		}
	}
	for _, pat := range pats {
		distinct := l.hear.Distinct()
		if l.hear.Remove(pat, p) && l.hear.Distinct() < distinct {
			_ = l.client.Unsubscribe(pat)
		}
	}
	h.mu.Unlock()
	// An empty critical section: the pass that may still hold p ends first.
	l.pass.Lock()
	l.pass.Unlock()
}

// housekeep drains the client to the parts that hear each subject, ticks
// every part and sleeps until the earliest deadline — until woken, when no
// part has one.
func (h *Host) housekeep(l *hostLoop) {
	defer close(l.exited)
	timer := time.NewTimer(0) // the first pass arms the parts' deadlines
	defer timer.Stop()
	var parts []Part
	for {
		select {
		case <-l.done:
			return
		case <-l.client.Ready():
		case <-l.wake:
		case <-h.daemon.Kicked():
		case <-timer.C:
		}
		l.pass.Lock()
		for dv, ok := l.client.TryNext(); ok; dv, ok = l.client.TryNext() {
			l.subj = append(l.subj[:0], dv.Subject.String()...)
			for _, p := range l.hear.Match(dv.Subject) {
				p.Hear(l.subj, dv.Payload)
			}
		}
		h.mu.Lock()
		parts = append(parts[:0], l.parts...)
		h.mu.Unlock()
		now := time.Now()
		var next time.Time
		for _, p := range parts {
			next = sysagent.Earliest(next, p.Tick(now))
		}
		l.pass.Unlock()
		// An expiry already in timer.C survives the Stop and costs one pass
		// in which nothing is due.
		if timer.Stop(); !next.IsZero() {
			timer.Reset(next.Sub(now))
		}
	}
}

// kick signals a one-slot channel without blocking: a signal already
// waiting covers this one.
func kick(ch chan<- struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}
