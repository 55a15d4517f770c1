package rmi

import (
	"fmt"
	"sync"
	"time"

	"infobus/internal/core"
	"infobus/internal/mop"
	"infobus/internal/subject"
	"infobus/internal/sysagent"
	"infobus/internal/wire"
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
// for a service. It is a part on its host's loop (core.Part): the beacon
// follows its cadence, heard members expire in Tick, and Promote and Retire
// run on the loop. The hand-off window is bounded by the member lifetime,
// four beacon intervals. During a hand-off, clients either reach the old
// leader (still draining) or re-discover the new one — the
// continuous-operation story of R1.
type Election struct {
	reg    *mop.Registry
	cand   Candidate
	token  string
	beacon []byte              // the marshalled RMIElectionBeacon, the same every time
	send   func(beacon []byte) // publishes the beacon on the election subject
	every  sysagent.Every      // the beacon's cadence
	remove func()

	mu      sync.Mutex
	members map[string]time.Time // other live members' tokens -> expiry; zero: heard since the last Tick
	leading bool
	closed  bool
}

// beaconType carries one presence announcement.
var beaconType = mop.MustNewClass("RMIElectionBeacon", nil, []mop.Attr{
	{Name: "token", Type: mop.String},
}, nil)

// NewElection enrolls a candidate in the election group for its service on
// host h, beaconing every interval (50ms when <= 0). An *rmi.Server
// candidate should be constructed with Standby: true; the election decides
// who answers discovery. Close the election before closing the candidate.
func NewElection(h *core.Host, cand Candidate, service string, interval time.Duration) (*Election, error) {
	subj, err := subject.Parse("_election." + service)
	if err != nil {
		return nil, err
	}
	d := h.Daemon()
	e, err := newElection(h.Registry(), cand, fmt.Sprintf("%016x-%s", h.Token(), h.Addr()), interval, func(beacon []byte) {
		_ = d.Publish(subj, beacon)
		_ = d.Flush()
	})
	if err != nil {
		return nil, err
	}
	if e.remove, err = h.AddPart(e, subj.String()); err != nil {
		return nil, err
	}
	return e, nil
}

// newElection is a member on no loop: it beacons through send and hears
// only what it is handed.
func newElection(reg *mop.Registry, cand Candidate, token string, interval time.Duration, send func(beacon []byte)) (*Election, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	// Marshalled self-contained (v1), not through the host's send
	// dictionary: any member decodes it without the sender's definitions.
	beacon, err := wire.Marshal(mop.MustNew(beaconType).MustSet("token", token))
	if err != nil {
		return nil, err
	}
	return &Election{reg: reg, cand: cand, token: token, beacon: beacon, send: send,
		every: sysagent.Every{D: interval}, members: make(map[string]time.Time)}, nil
}

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
	return len(e.members) + 1
}

// Close withdraws from the election (retiring the candidate if leading).
func (e *Election) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.remove()
	e.mu.Lock()
	wasLeading := e.leading
	e.leading = false
	e.mu.Unlock()
	if wasLeading {
		e.cand.Retire()
	}
}

// Hear notes another member's beacon: it stays live for four beacon
// intervals from the next Tick.
func (e *Election) Hear(_, payload []byte) {
	v, err := wire.UnmarshalWith(payload, e.reg, nil)
	obj, isObj := v.(*mop.Object)
	if err != nil || !isObj || obj.Type().Name() != beaconType.Name() {
		return
	}
	tokenV, _ := obj.Get("token")
	token, _ := tokenV.(string)
	if token == "" || token == e.token {
		return
	}
	e.mu.Lock()
	e.members[token] = time.Time{}
	e.mu.Unlock()
}

// Tick publishes the beacon when it is due (and on the first tick), expires
// members not heard for four beacon intervals, and promotes or retires the
// candidate when leadership changes hands.
func (e *Election) Tick(now time.Time) time.Time {
	if first := e.every.At.IsZero(); e.every.Due(now) || first {
		e.send(e.beacon)
	}
	e.mu.Lock()
	smallest := e.token
	for token, expiry := range e.members {
		switch {
		case expiry.IsZero():
			e.members[token] = now.Add(4 * e.every.D)
		case expiry.Before(now):
			delete(e.members, token)
			continue
		}
		smallest = min(smallest, token)
	}
	lead := smallest == e.token
	changed := lead != e.leading
	e.leading = lead
	e.mu.Unlock()
	switch {
	case changed && lead:
		_ = e.cand.Promote()
	case changed:
		e.cand.Retire()
	}
	return e.every.At
}
