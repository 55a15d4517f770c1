package core

import (
	"time"

	"infobus/internal/daemon"
	"infobus/internal/subject"
	"infobus/internal/sysagent"
	"infobus/internal/telemetry"
)

// hostLoop is the host's only housekeeping goroutine. The guaranteed
// retrier, the class-NAK part and the "_sys" agent are parts (sysagent's
// package comment): the loop hands each the time, sleeps until the earliest
// deadline they return, and feeds them what its one daemon client hears.
// One loop is enough because no part blocks on an application (a bus
// retries its own stash) or is called from a publish or delivery path.
type hostLoop struct {
	client  *daemon.Client // "_sys": the agent's probe subjects
	classes bool           // ... and the two class-NAK subjects (under Host.mu)
	wake    chan struct{}  // a part wants the clock before its deadline
	done    chan struct{}
	exited  chan struct{}
}

// ensureLoop returns the host's loop, starting it — client and goroutine —
// on first use; classes puts the class-NAK subjects on its client. A host
// with no tier, no ledger and no compact traffic never calls it.
func (h *Host) ensureLoop(classes bool) (*hostLoop, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	l := h.loop
	var hear []string
	if l == nil {
		client, err := h.daemon.NewClient("_sys")
		if err != nil {
			return nil, err
		}
		l = &hostLoop{client: client, wake: make(chan struct{}, 1), done: make(chan struct{}), exited: make(chan struct{})}
		h.loop = l
		go h.housekeep(l, h.sys)
		if h.sys != nil {
			hear = h.sys.ProbeSubjects()
		}
	}
	if classes && !l.classes {
		l.classes = true
		hear = append(hear, telemetry.ClassReqSubject, telemetry.ClassDefSubject)
	}
	for _, p := range hear {
		if err := l.client.Subscribe(subject.MustParsePattern(p)); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// housekeep drains the client, ticks every part and sleeps until the
// earliest deadline — until woken, when no part has one.
func (h *Host) housekeep(l *hostLoop, agent *sysagent.Agent) {
	defer close(l.exited)
	timer := time.NewTimer(0) // the first pass arms the parts' deadlines
	defer timer.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-l.client.Ready():
		case <-l.wake:
		case <-timer.C:
		}
		for dv, ok := l.client.TryNext(); ok; dv, ok = l.client.TryNext() {
			switch subj := dv.Subject.String(); subj {
			case telemetry.ClassReqSubject:
				h.csync.serveRequest(dv.Payload)
			case telemetry.ClassDefSubject:
				if h.csync.harvestReply(dv.Payload) {
					h.retryPendingDecodes()
				}
			default: // a probe: only an agent's subjects are subscribed
				agent.Probe([]byte(subj), dv.Payload)
			}
		}
		now := time.Now()
		next := h.csync.tick(now)
		if h.retry != nil {
			next = sysagent.Earliest(next, h.retry.tick(now))
		}
		if agent != nil {
			next = sysagent.Earliest(next, agent.Tick(now))
		}
		// An expiry already in timer.C survives the Stop and costs one pass
		// in which nothing is due.
		if timer.Stop(); !next.IsZero() {
			timer.Reset(next.Sub(now))
		}
	}
}
