package rmi

import (
	"fmt"
	"sync"
	"time"

	"infobus/internal/core"
	"infobus/internal/mop"
)

// The election in this file implements the server-side multiple-server
// policy of §3.3: "The servers can decide among themselves which one will
// respond to a request from the client." A group of equivalent members for
// one service subject run an election over the bus itself — no
// coordinator, no name service, just publications on a well-known election
// subject (P4):
//
//   - every member periodically publishes a presence beacon carrying a
//     stable identity token;
//   - each member tracks the beacons it hears; a member whose token is
//     the smallest among live members considers itself leader;
//   - the leader Promotes its candidate; everyone else Retires. When the
//     leader dies, its beacons stop, its entry expires, and the
//     next-smallest member promotes itself.

// Candidate is what an election promotes and retires: an *rmi.Server
// answering discovery only while leading, or any other standby role — the
// qledger recovery coordinator elects one coordinator among the replica
// hosts this way. Promote and Retire are called on leadership transitions
// only, never concurrently with each other.
type Candidate interface {
	Promote() error
	Retire()
}

// Election enrolls one member (and its Candidate) in the election group
// for a service. The hand-off window is bounded by the member lifetime,
// four beacon intervals. During a hand-off, clients either reach the old
// leader (still draining) or re-discover the new one — the
// continuous-operation story of R1.
type Election struct {
	bus     *core.Bus
	cand    Candidate
	subject string
	token   string
	opts    ElectionOptions

	mu      sync.Mutex
	members map[string]time.Time // token -> last heard
	leading bool
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
	sub     *core.Subscription
}

// ElectionOptions tune the election timing.
type ElectionOptions struct {
	// BeaconInterval is how often presence is re-published. Default 50ms.
	BeaconInterval time.Duration
}

// beaconType carries one presence announcement.
var beaconType = mop.MustNewClass("RMIElectionBeacon", nil, []mop.Attr{
	{Name: "token", Type: mop.String},
}, nil)

// NewElection enrolls a candidate in the election group for its service.
// An *rmi.Server candidate should be constructed with Standby: true; the
// election decides who answers discovery. Close the election before
// closing the candidate.
func NewElection(bus *core.Bus, cand Candidate, service string, opts ElectionOptions) (*Election, error) {
	if opts.BeaconInterval <= 0 {
		opts.BeaconInterval = 50 * time.Millisecond
	}
	subjectName := "_election." + service
	sub, err := bus.Subscribe(subjectName)
	if err != nil {
		return nil, err
	}
	e := &Election{
		bus:     bus,
		cand:    cand,
		subject: subjectName,
		token:   fmt.Sprintf("%016x-%s", bus.Host().Token(), bus.Host().Addr()),
		opts:    opts,
		members: make(map[string]time.Time),
		done:    make(chan struct{}),
		sub:     sub,
	}
	// A member is always live to itself.
	e.members[e.token] = time.Now().Add(365 * 24 * time.Hour)
	e.wg.Add(2)
	go e.listen()
	go e.beaconLoop()
	return e, nil
}

// Token returns this member's election identity.
func (e *Election) Token() string { return e.token }

// Leading reports whether this member currently holds leadership.
func (e *Election) Leading() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.leading
}

// Members returns the number of live members currently known (self
// included).
func (e *Election) Members() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := time.Now()
	n := 0
	for _, seen := range e.members {
		if seen.After(now) {
			n++
		}
	}
	return n
}

// Close withdraws from the election (retiring the server if leading).
func (e *Election) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	wasLeading := e.leading
	e.mu.Unlock()
	close(e.done)
	e.sub.Cancel()
	e.wg.Wait()
	if wasLeading {
		e.cand.Retire()
	}
}

func (e *Election) listen() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case ev, ok := <-e.sub.C:
			if !ok {
				return
			}
			obj, isObj := ev.Value.(*mop.Object)
			if !isObj || obj.Type().Name() != beaconType.Name() {
				continue
			}
			tokenV, _ := obj.Get("token")
			token, _ := tokenV.(string)
			if token == "" || token == e.token {
				continue
			}
			e.mu.Lock()
			// A member stays "live" for four beacon intervals without a
			// fresh beacon.
			e.members[token] = time.Now().Add(4 * e.opts.BeaconInterval)
			e.mu.Unlock()
		}
	}
}

func (e *Election) beaconLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.opts.BeaconInterval)
	defer ticker.Stop()
	for {
		beacon := mop.MustNew(beaconType).MustSet("token", e.token)
		_ = e.bus.Publish(e.subject, beacon)
		_ = e.bus.Flush()
		e.evaluate()
		select {
		case <-e.done:
			return
		case <-ticker.C:
		}
	}
}

// evaluate recomputes leadership from the live-member set and promotes or
// retires the server on transitions.
func (e *Election) evaluate() {
	now := time.Now()
	e.mu.Lock()
	smallest := e.token
	for token, seen := range e.members {
		if seen.Before(now) {
			delete(e.members, token)
			continue
		}
		if token < smallest {
			smallest = token
		}
	}
	shouldLead := smallest == e.token
	transition := shouldLead != e.leading
	e.leading = shouldLead
	e.mu.Unlock()
	if !transition {
		return
	}
	if shouldLead {
		_ = e.cand.Promote()
	} else {
		e.cand.Retire()
	}
}
