// Package discovery implements the Information Bus discovery protocol
// (§3.2): "One participant publishes 'Who's out there?' under a subject.
// The other participants publish 'I am' and other information describing
// their state, if they serve the subject in question."
//
// Discovery is itself built purely from publish/subscribe, preserving P4:
// no name service, no bootstrap — "we are effectively using the network
// itself as a name service. A subject is mapped to a specific set of
// servers by allowing the servers to choose themselves."
//
// Subject conventions: for a service subject S, queries travel on
// "_disc.q.S" and replies on "_disc.r.S". The query carries a token that
// replies echo, so concurrent discoveries do not confuse each other.
package discovery

import (
	"fmt"
	"sync"
	"time"

	"infobus/internal/core"
	"infobus/internal/mop"
)

// Subject prefixes for the discovery conversation.
const (
	queryPrefix = "_disc.q."
	replyPrefix = "_disc.r."
)

// identity returns a globally unique participant identity for a bus
// (distinct even for two participants on the same host).
func identity(bus *core.Bus) string {
	return fmt.Sprintf("%s#%d", bus.Host().Addr(), bus.Host().Token())
}

// Discovery message classes. They travel self-describing like any other
// object, so even these protocol types need no pre-arranged schema.
var (
	// QueryType is "Who's out there?": a token identifying the asker's
	// collection round.
	QueryType = mop.MustNewClass("DiscoveryQuery", nil, []mop.Attr{
		{Name: "token", Type: mop.String},
	}, nil)
	// ReplyType is "I am": the echoed token, a participant identity, and
	// service-specific state.
	ReplyType = mop.MustNewClass("DiscoveryReply", nil, []mop.Attr{
		{Name: "token", Type: mop.String},
		{Name: "who", Type: mop.String},
		{Name: "info", Type: mop.Any},
	}, nil)
)

// Found is one discovered participant.
type Found struct {
	// Who is the participant's unique identity (distinct even for two
	// participants on the same host).
	Who string
	// Info is the service-specific state the participant published.
	Info mop.Value
	// From is the transport address the reply arrived from.
	From string
}

// Announcer answers discovery queries for one service subject.
type Announcer struct {
	bus     *core.Bus
	who     string
	subject string // reply subject
	sub     *core.Subscription
	info    func() mop.Value
	done    chan struct{}
	wg      sync.WaitGroup

	mu      sync.Mutex
	replies uint64
	closed  bool
}

// Announce registers a participant that serves the given service subject.
// info is called per query to produce the "I am" state (it may be nil for
// a bare presence announcement).
func Announce(bus *core.Bus, service string, info func() mop.Value) (*Announcer, error) {
	sub, err := bus.Subscribe(queryPrefix + service)
	if err != nil {
		return nil, fmt.Errorf("discovery: subscribing to queries for %q: %w", service, err)
	}
	a := &Announcer{
		bus:     bus,
		who:     identity(bus),
		subject: replyPrefix + service,
		sub:     sub,
		info:    info,
		done:    make(chan struct{}),
	}
	a.wg.Add(1)
	go a.serve()
	return a, nil
}

// Replies returns how many queries this announcer has answered.
func (a *Announcer) Replies() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.replies
}

// Close stops answering queries.
func (a *Announcer) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	close(a.done)
	a.sub.Cancel()
	a.wg.Wait()
}

func (a *Announcer) serve() {
	defer a.wg.Done()
	for {
		select {
		case <-a.done:
			return
		case ev, ok := <-a.sub.C:
			if !ok {
				return
			}
			q, ok := ev.Value.(*mop.Object)
			if !ok || q.Type().Name() != QueryType.Name() {
				continue
			}
			token, _ := q.Get("token")
			tok, ok := token.(string)
			if !ok {
				continue
			}
			var info mop.Value
			if a.info != nil {
				info = a.info()
			}
			reply := mop.MustNew(ReplyType).
				MustSet("token", tok).
				MustSet("who", a.who).
				MustSet("info", info)
			if err := a.bus.Publish(a.subject, reply); err != nil {
				continue
			}
			_ = a.bus.Flush()
			a.mu.Lock()
			a.replies++
			a.mu.Unlock()
		}
	}
}

// Options tune a discovery round.
type Options struct {
	// Window is how long to collect replies. Default 50ms.
	Window time.Duration
	// Max stops collection early once this many participants replied.
	// Zero means no cap.
	Max int
}

// Discover performs one "Who's out there?" round for a service subject and
// returns the participants that answered within the window.
func Discover(bus *core.Bus, service string, opts Options) ([]Found, error) {
	if opts.Window <= 0 {
		opts.Window = 50 * time.Millisecond
	}
	// Subscribe to replies before asking, so no reply can be missed.
	sub, err := bus.Subscribe(replyPrefix + service)
	if err != nil {
		return nil, fmt.Errorf("discovery: subscribing to replies for %q: %w", service, err)
	}
	defer sub.Cancel()

	token := identity(bus)
	query := mop.MustNew(QueryType).MustSet("token", token)
	qsubj := queryPrefix + service
	if err := bus.Publish(qsubj, query); err != nil {
		return nil, fmt.Errorf("discovery: publishing query for %q: %w", service, err)
	}
	_ = bus.Flush()

	var found []Found
	seen := make(map[string]bool) // dedupe by participant identity
	deadline := time.NewTimer(opts.Window)
	defer deadline.Stop()
	// Re-ask a few times within the window: a lossy network can drop the
	// very first frame a fresh participant ever broadcasts, and replies
	// are deduplicated by identity anyway.
	reask := time.NewTicker(opts.Window/4 + time.Millisecond)
	defer reask.Stop()
	for {
		select {
		case <-reask.C:
			// The select picks randomly among ready cases: a stale re-ask
			// tick can win over an expired deadline, and re-publishing the
			// query after the window closed would solicit replies nobody
			// collects. Check the deadline first.
			select {
			case <-deadline.C:
				return found, nil
			default:
			}
			_ = bus.Publish(qsubj, query)
			_ = bus.Flush()
		case <-deadline.C:
			return found, nil
		case ev, ok := <-sub.C:
			if !ok {
				return found, nil
			}
			r, ok := ev.Value.(*mop.Object)
			if !ok || r.Type().Name() != ReplyType.Name() {
				continue
			}
			if tok, _ := r.Get("token"); tok != token {
				continue // reply to someone else's round
			}
			whoV, _ := r.Get("who")
			who, ok := whoV.(string)
			if !ok || seen[who] {
				continue
			}
			seen[who] = true
			info, _ := r.Get("info")
			found = append(found, Found{Who: who, Info: info, From: ev.From})
			if opts.Max > 0 && len(found) >= opts.Max {
				return found, nil
			}
		}
	}
}
