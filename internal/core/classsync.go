package core

import (
	"sync"
	"time"

	"infobus/internal/daemon"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
	"infobus/internal/wire"
)

// classSync is the host's class-definition synchronization agent for the
// compact dictionary format (wire/dict.go). It plays both sides of the
// NAK protocol:
//
//   - requester: when a bus on this host stashes a compact delivery it
//     cannot decode (unknown fingerprints), the agent publishes the
//     fingerprint list on "_sys.class.req", re-publishing on a timer
//     until the definitions arrive — the request or the reply may be
//     lost, or cross a router that has not yet learned our interest;
//   - holder: requests from other hosts are answered on "_sys.class.def"
//     with a wire.MarshalDefs blob when this host holds any requested
//     definition, either as the origin (send dictionary) or because the
//     definition passed through its fingerprint cache.
//
// Replies are broadcast: fingerprints are content-addressed, so every
// host harvests every reply it sees, whoever asked.
//
// The agent is started eagerly on compact publishers (they must answer
// NAKs) and lazily on the first fingerprint miss everywhere else, so
// hosts on legacy topologies advertise no extra interest patterns.
type classSync struct {
	h        *Host
	client   *daemon.Client
	interval time.Duration
	reqSubj  subject.Subject
	defSubj  subject.Subject

	mu   sync.Mutex
	want map[uint64]bool // outstanding fingerprints

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// maxWantedFPs bounds the outstanding-request set; beyond it new misses
// rely on the publisher's inline fallback alone.
const maxWantedFPs = 1024

// ensureClassSync returns the host's class-sync agent, starting it on
// first use.
func (h *Host) ensureClassSync() (*classSync, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if h.csync != nil {
		return h.csync, nil
	}
	cs, err := startClassSync(h)
	if err != nil {
		return nil, err
	}
	h.csync = cs
	return cs, nil
}

// requestClasses records missing fingerprints and triggers a NAK. Called
// from bus dispatch on a fingerprint miss.
func (h *Host) requestClasses(fps []uint64) {
	cs, err := h.ensureClassSync()
	if err != nil {
		return
	}
	cs.request(fps)
}

// retryPendingDecodes re-dispatches every bus's stashed deliveries after
// new definitions were installed into the host's fingerprint cache.
func (h *Host) retryPendingDecodes() {
	h.mu.Lock()
	buses := append([]*Bus(nil), h.buses...)
	h.mu.Unlock()
	for _, b := range buses {
		b.retryPending()
	}
}

func startClassSync(h *Host) (*classSync, error) {
	client, err := h.daemon.NewClient("_sys-classsync")
	if err != nil {
		return nil, err
	}
	for _, p := range []string{telemetry.ClassReqSubject, telemetry.ClassDefSubject} {
		if err := client.Subscribe(subject.MustParsePattern(p)); err != nil {
			_ = client.Close()
			return nil, err
		}
	}
	interval := h.nakInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	cs := &classSync{
		h:        h,
		client:   client,
		interval: interval,
		reqSubj:  subject.MustParse(telemetry.ClassReqSubject),
		defSubj:  subject.MustParse(telemetry.ClassDefSubject),
		want:     make(map[uint64]bool),
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	cs.wg.Add(2)
	go cs.recvLoop()
	go cs.requestLoop()
	return cs, nil
}

func (cs *classSync) stop() {
	close(cs.done)
	_ = cs.client.Close()
	cs.wg.Wait()
}

// request queues fingerprints for NAKing and kicks the request loop.
func (cs *classSync) request(fps []uint64) {
	cs.mu.Lock()
	added := false
	for _, fp := range fps {
		if len(cs.want) >= maxWantedFPs {
			break
		}
		if !cs.want[fp] {
			cs.want[fp] = true
			added = true
		}
	}
	cs.mu.Unlock()
	if added {
		select {
		case cs.kick <- struct{}{}:
		default:
		}
	}
}

// requestLoop publishes the outstanding fingerprint list — immediately on
// a kick, then on a timer while anything stays unresolved (the request or
// its reply may be lost, or a router may still be learning our interest
// in "_sys.class.def").
func (cs *classSync) requestLoop() {
	defer cs.wg.Done()
	ticker := time.NewTicker(cs.interval)
	defer ticker.Stop()
	for {
		select {
		case <-cs.done:
			return
		case <-cs.kick:
		case <-ticker.C:
		}
		cs.publishRequest()
	}
}

func (cs *classSync) publishRequest() {
	cs.mu.Lock()
	fps := make([]uint64, 0, len(cs.want))
	for fp := range cs.want {
		fps = append(fps, fp)
	}
	cs.mu.Unlock()
	if len(fps) == 0 {
		return
	}
	payload, err := wire.Marshal(wire.FPsValue(fps))
	if err != nil {
		return
	}
	cs.h.ctr.classNakSent.Inc()
	_ = cs.h.daemon.Publish(cs.reqSubj, payload)
	_ = cs.h.daemon.Flush()
}

func (cs *classSync) recvLoop() {
	defer cs.wg.Done()
	for {
		dv, ok := cs.client.Next(cs.done)
		if !ok {
			return
		}
		switch dv.Subject.String() {
		case telemetry.ClassReqSubject:
			cs.serveRequest(dv)
		case telemetry.ClassDefSubject:
			cs.harvestReply(dv)
		}
	}
}

// serveRequest answers a fingerprint request with every definition this
// host holds — as origin (send dictionary) or receiver (fingerprint
// cache).
func (cs *classSync) serveRequest(dv daemon.Delivery) {
	payload, ok := wire.AnswerClassReq(dv.Payload, cs.h.reg, cs.h.typeCache, cs.h.sendDict)
	if !ok {
		return
	}
	cs.h.ctr.classNakServed.Inc()
	_ = cs.h.daemon.Publish(cs.defSubj, payload)
	_ = cs.h.daemon.Flush()
}

// harvestReply installs the definitions a reply carries and, if any
// outstanding fingerprint resolved, retries the buses' stashed
// deliveries.
func (cs *classSync) harvestReply(dv daemon.Delivery) {
	if err := wire.HarvestDefs(dv.Payload, cs.h.reg, cs.h.typeCache); err != nil {
		return
	}
	cs.h.ctr.classDefsHarvested.Inc()
	cs.mu.Lock()
	resolved := false
	for fp := range cs.want {
		if _, ok := cs.h.typeCache.Lookup(fp); ok {
			delete(cs.want, fp)
			resolved = true
		}
	}
	cs.mu.Unlock()
	if resolved {
		cs.h.retryPendingDecodes()
	}
}
