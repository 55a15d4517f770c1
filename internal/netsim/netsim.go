// Package netsim simulates the network substrate of the paper's evaluation:
// a shared 10 Mb/s broadcast Ethernet connecting a rack of workstations
// (SPARCstation 2s and IPXs in the original). The Information Bus stack is
// measured on this simulator because the 1993 testbed is unavailable; the
// simulator reproduces the properties the appendix figures depend on:
//
//   - a shared medium: one frame on the wire at a time, so aggregate
//     throughput saturates at the device bandwidth (Figure 7);
//   - true broadcast: delivering a frame to N hosts costs the same as
//     delivering it to one (the "publication rate is independent of the
//     number of subscribers" invariant);
//   - per-fragment overhead mirroring Ethernet/UDP framing, so small
//     messages are overhead-dominated (Figure 6's msgs/sec curve);
//   - collision-style degradation under unrelated load (the dip between
//     5 KB and 10 KB in Figure 7);
//   - unreliable datagram semantics: loss, duplication, reordering, and
//     bounded receive buffers that drop on overflow, exactly the failure
//     model §2 assumes; plus link partitions.
//
// The simulator is one event heap on virtual (modelled) time. A send charges
// the medium its occupancy and schedules the frame's departure; the
// departure draws loss, duplication, latency and reordering from the seeded
// generator and schedules one arrival per copy, straight into the
// destination's receive queue. The model reads no clock — it is a function
// of the frame, the virtual instant and the generator — and has two drivers:
// NewNetwork starts one goroutine that runs virtual time at wall time x
// Config.Speedup, so the stack above runs as ordinary concurrent goroutines;
// NewManual starts none, virtual time moves only in AdvanceTo, and with
// single-threaded callers the same seed gives the same run, delivery for
// delivery.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// NodeID identifies a host on the network.
type NodeID int32

// Broadcast is the destination for broadcast sends.
const Broadcast NodeID = -1

// MaxDatagram bounds a single datagram, mirroring the UDP maximum.
const MaxDatagram = 64 << 10

// Ethernet framing constants used for transmission-time accounting.
const (
	mtu           = 1500 // IP MTU on Ethernet
	ipUDPHeader   = 28   // IP (20) + UDP (8)
	frameOverhead = 38   // Ethernet preamble+header+FCS+interframe gap
	fragPayload   = mtu - ipUDPHeader
)

// sendBound is how many frames may wait for the medium. At the bound a
// wall-clock network blocks the sender until a frame has left the wire (the
// back-pressure that holds a saturating publisher to the device bandwidth);
// a manual one, where nobody else could make room, drops the frame and
// counts it in Stats.LostOverflow, as a full interface queue would.
const sendBound = 4096

// Config describes the simulated network.
type Config struct {
	// BandwidthBPS is the shared medium's capacity in bits per second.
	// The paper's network: 10 Mb/s Ethernet.
	BandwidthBPS float64
	// BaseLatency is the fixed per-hop propagation plus kernel/daemon cost
	// added to each delivery.
	BaseLatency time.Duration
	// JitterLatency is the maximum uniform random addition to BaseLatency.
	JitterLatency time.Duration
	// LossProb, DupProb, ReorderProb are per-delivery probabilities in
	// [0, 1]. Reordered packets are delayed by up to 4x BaseLatency.
	LossProb, DupProb, ReorderProb float64
	// BackgroundLoad in [0, 1) models unrelated traffic occupying the
	// medium: effective bandwidth shrinks and, above ~30%, collision-style
	// loss and delay variance appear (the Figure 7 dip).
	BackgroundLoad float64
	// RecvBuffer is the capacity of each node's receive queue, the one
	// queue between the medium and whoever reads Node.Recv: a datagram
	// arriving at a full queue is dropped, like a UDP socket buffer.
	// Default 1536.
	RecvBuffer int
	// Speedup divides all simulated durations on a wall-clock network: 10
	// means the simulation runs 10x faster than the modelled network.
	// Values <= 0 default to 1. A manual network ignores it.
	Speedup float64
	// Seed for the deterministic random source.
	Seed int64
}

const defaultRecvBuffer = 1536

// DefaultConfig returns the paper's testbed: lightly loaded 10 Mb/s
// Ethernet, sub-millisecond base latency.
func DefaultConfig() Config {
	return Config{
		BandwidthBPS:  10e6,
		BaseLatency:   200 * time.Microsecond,
		JitterLatency: 100 * time.Microsecond,
		RecvBuffer:    defaultRecvBuffer,
		Speedup:       1,
		Seed:          1,
	}
}

// Datagram is one received datagram: the sender's address (Node.Addr) and
// the payload, which the receiver may read but shares with the other
// receivers of a broadcast.
type Datagram struct {
	From    string
	Payload []byte
}

// Stats are cumulative network counters.
type Stats struct {
	Sent            uint64 // datagrams handed to the medium
	Delivered       uint64 // datagram copies placed in receive queues
	LostRandom      uint64 // dropped by the loss model
	LostCollision   uint64 // dropped by collision under background load
	LostOverflow    uint64 // dropped at a full receive queue (or, manual mode, at the send bound)
	LostPartition   uint64 // suppressed across a partition
	Duplicated      uint64 // extra copies injected
	Reordered       uint64 // deliveries delayed out of order
	BytesOnWire     uint64 // payload bytes transmitted
	WireTimeNanos   uint64 // cumulative medium occupancy (unscaled model time)
	OversizeRejects uint64 // sends rejected for exceeding MaxDatagram
}

// WireTime converts the cumulative medium occupancy into a duration of
// modelled (unscaled) network time.
func (s Stats) WireTime() time.Duration { return time.Duration(s.WireTimeNanos) }

// event is one entry of the heap. With dst nil it is a frame leaving the
// medium (fan out to its destinations, or vanish if a collision took it);
// otherwise one copy arriving at dst.
type event struct {
	at      time.Duration // virtual time since the network started
	seq     uint64        // push order: FIFO among events of one instant
	from    *Node
	dst     *Node
	to      NodeID // departure only
	lost    bool   // departure only: collided, occupies the medium and is gone
	payload []byte
}

// Network is the shared medium. Create nodes with NewNode, then send.
type Network struct {
	// mu guards every field below it: the model has one owner at a time,
	// a sender or the driver.
	mu        sync.Mutex
	cfg       Config
	rng       *rand.Rand
	nodes     []*Node // index NodeID; a closed node keeps its slot
	closed    bool
	stats     Stats
	now       time.Duration // virtual time reached by the driver
	busyUntil time.Duration // the medium carries one frame at a time
	queued    int           // frames sent and not yet off the medium
	events    []event       // binary heap on (at, seq); container/heap would box every push
	seq       uint64

	base time.Time // virtual zero: the wall instant of creation, or NewManual's start

	// The wall-clock driver; all nil on a manual network.
	wake   chan struct{} // capacity 1: the heap has a new earliest event
	done   chan struct{}
	exited chan struct{}
	space  *sync.Cond // senders waiting at sendBound
}

// Errors.
var (
	ErrClosed   = errors.New("netsim: network closed")
	ErrOversize = errors.New("netsim: datagram exceeds MaxDatagram")
)

func newNetwork(cfg Config, base time.Time) *Network {
	if cfg.Speedup <= 0 {
		cfg.Speedup = 1
	}
	if cfg.BandwidthBPS <= 0 {
		cfg.BandwidthBPS = 10e6
	}
	if cfg.RecvBuffer <= 0 {
		cfg.RecvBuffer = defaultRecvBuffer
	}
	return &Network{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), base: base}
}

// NewNetwork starts a network that runs in wall-clock time scaled by
// cfg.Speedup, driven by one goroutine that lives until Close.
func NewNetwork(cfg Config) *Network {
	n := newNetwork(cfg, time.Now())
	n.wake = make(chan struct{}, 1)
	n.done = make(chan struct{})
	n.exited = make(chan struct{})
	n.space = sync.NewCond(&n.mu)
	go n.run()
	return n
}

// NewManual returns a network with no goroutine whose virtual clock reads
// start and moves only in AdvanceTo. Sends are stamped with the clock as it
// stands; arrivals land in the receive queues during AdvanceTo.
func NewManual(cfg Config, start time.Time) *Network {
	return newNetwork(cfg, start)
}

// manual reports whether AdvanceTo, not a goroutine, drives the network.
func (n *Network) manual() bool { return n.done == nil }

// Now returns the network's virtual clock.
func (n *Network) Now() time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.base.Add(n.clock())
}

// NextEvent returns the virtual instant of the earliest scheduled departure
// or arrival, false when nothing is in flight.
func (n *Network) NextEvent() (time.Time, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.events) == 0 {
		return time.Time{}, false
	}
	return n.base.Add(n.events[0].at), true
}

// AdvanceTo moves a manual network's clock to t, carrying out every
// departure and arrival due by then in (time, send) order.
func (n *Network) AdvanceTo(t time.Time) {
	if !n.manual() {
		panic("netsim: AdvanceTo on a wall-clock network")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.advance(t.Sub(n.base))
}

// Close shuts the medium down: frames in flight are discarded, every node's
// receive channel is closed and the driver goroutine, if any, has exited
// when Close returns.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.events = nil
	for _, nd := range n.nodes {
		nd.closeLocked()
	}
	if !n.manual() {
		close(n.done)
		n.space.Broadcast()
	}
	n.mu.Unlock()
	if !n.manual() {
		<-n.exited
	}
}

// Node is one simulated host's network interface.
type Node struct {
	id   NodeID
	addr string
	net  *Network
	// inbox is the node's receive queue. The driver is its only sender and
	// never waits on it; it is closed under net.mu, so never mid-send.
	inbox chan Datagram

	// Guarded by net.mu.
	closed     bool
	group      int           // partition group; 0 unless isolated
	lastArrive time.Duration // latest in-order arrival scheduled: per-destination FIFO
}

// NewNode attaches a host to the network.
func (n *Network) NewNode() (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	id := len(n.nodes)
	nd := &Node{id: NodeID(id), net: n, addr: "sim:" + strconv.Itoa(id), inbox: make(chan Datagram, n.cfg.RecvBuffer)}
	n.nodes = append(n.nodes, nd)
	return nd, nil
}

// ParseAddr is the inverse of Node.Addr.
func ParseAddr(addr string) (NodeID, bool) {
	rest, ok := strings.CutPrefix(addr, "sim:")
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseInt(rest, 10, 32)
	return NodeID(id), err == nil && id >= 0
}

// ID returns the node's network identifier.
func (nd *Node) ID() NodeID { return nd.id }

// Addr returns the node's address, "sim:<id>": the From of every datagram
// it sends.
func (nd *Node) Addr() string { return nd.addr }

// Recv returns the node's receive channel. It is closed when the node or
// the network closes.
func (nd *Node) Recv() <-chan Datagram { return nd.inbox }

// Close detaches the node: its receive channel closes, what is in flight to
// it is discarded and its sends fail with ErrClosed.
func (nd *Node) Close() {
	nd.net.mu.Lock()
	nd.closeLocked()
	nd.net.mu.Unlock()
}

func (nd *Node) closeLocked() {
	if !nd.closed {
		nd.closed = true
		close(nd.inbox)
	}
}

// Send transmits a unicast datagram. Delivery is unreliable; a datagram to
// an id no node has is carried and lost.
func (nd *Node) Send(to NodeID, payload []byte) error { return nd.net.send(nd, to, payload) }

// SendBroadcast transmits a broadcast datagram to every other node (the
// sender does not receive its own broadcasts, matching a socket with
// loopback disabled).
func (nd *Node) SendBroadcast(payload []byte) error { return nd.net.send(nd, Broadcast, payload) }

// send puts one frame on the medium: it starts when the medium is free,
// occupies it for its transmission time and departs at the end of that.
func (n *Network) send(from *Node, to NodeID, payload []byte) error {
	if len(payload) > MaxDatagram {
		n.mu.Lock()
		n.stats.OversizeRejects++
		n.mu.Unlock()
		return fmt.Errorf("%d bytes: %w", len(payload), ErrOversize)
	}
	// Copy the payload: the sender may reuse its buffer immediately.
	cp := append([]byte(nil), payload...)
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.queued >= sendBound && !n.closed {
		if n.manual() {
			n.stats.LostOverflow++
			return nil
		}
		n.space.Wait()
	}
	if n.closed || from.closed {
		return ErrClosed
	}
	n.stats.Sent++
	n.stats.BytesOnWire += uint64(len(cp))
	occupancy := n.transmissionTime(len(cp))
	n.stats.WireTimeNanos += uint64(occupancy)
	// Collision model: under background load, some frames are lost and
	// retransmission jitter stretches occupancy. Kicks in softly above
	// ~30% unrelated utilisation.
	lost := false
	if bl := n.cfg.BackgroundLoad; bl > 0.3 && n.chance((bl-0.3)*0.5) {
		occupancy += time.Duration(n.rng.Float64() * float64(occupancy))
		lost = n.chance(0.5)
	}
	n.busyUntil = max(n.clock(), n.busyUntil) + occupancy
	n.queued++
	n.push(event{at: n.busyUntil, from: from, to: to, lost: lost, payload: cp})
	return nil
}

// transmissionTime models the medium occupancy of one datagram, including
// IP fragmentation and Ethernet framing overhead, shrunk by background
// load.
func (n *Network) transmissionTime(size int) time.Duration {
	frags := (size + fragPayload - 1) / fragPayload
	if frags == 0 {
		frags = 1
	}
	bits := float64(size+frags*(ipUDPHeader+frameOverhead)) * 8
	bw := n.cfg.BandwidthBPS * (1 - n.cfg.BackgroundLoad)
	return time.Duration(bits / bw * float64(time.Second))
}

// depart takes a frame off the medium and, unless a collision took it,
// schedules its arrivals: at every other node of the sender's partition
// group in id order, or at the one addressed.
func (n *Network) depart(ev event) {
	n.queued--
	if !n.manual() {
		n.space.Broadcast()
	}
	if ev.lost {
		n.stats.LostCollision++
		return
	}
	if ev.to != Broadcast {
		if ev.to >= 0 && int(ev.to) < len(n.nodes) {
			n.carry(ev, n.nodes[ev.to])
		}
		return
	}
	for _, dst := range n.nodes {
		if dst != ev.from {
			n.carry(ev, dst)
		}
	}
}

// carry applies the partition and the loss / duplication / latency /
// reordering model to one destination. Copies that are not explicitly
// reordered arrive in the order the wire carried them, however their
// latencies were drawn: the reliable protocol's stream sync depends on it.
func (n *Network) carry(ev event, dst *Node) {
	switch {
	case dst.closed:
		return
	case dst.group != ev.from.group:
		n.stats.LostPartition++
		return
	case n.cfg.LossProb > 0 && n.chance(n.cfg.LossProb):
		n.stats.LostRandom++
		return
	}
	copies := 1
	if n.cfg.DupProb > 0 && n.chance(n.cfg.DupProb) {
		copies = 2
		n.stats.Duplicated++
	}
	for ; copies > 0; copies-- {
		at := ev.at + n.cfg.BaseLatency
		if n.cfg.JitterLatency > 0 {
			at += time.Duration(n.rng.Float64() * float64(n.cfg.JitterLatency))
		}
		if n.cfg.ReorderProb > 0 && n.chance(n.cfg.ReorderProb) {
			at += time.Duration(n.rng.Float64() * 4 * float64(n.cfg.BaseLatency+n.cfg.JitterLatency))
			n.stats.Reordered++
		} else {
			at = max(at, dst.lastArrive)
			dst.lastArrive = at
		}
		n.push(event{at: at, from: ev.from, dst: dst, payload: ev.payload})
	}
}

// arrive places one copy in its destination's receive queue.
func (n *Network) arrive(ev event) {
	if ev.dst.closed {
		return
	}
	select {
	case ev.dst.inbox <- Datagram{From: ev.from.addr, Payload: ev.payload}:
		n.stats.Delivered++
	default:
		n.stats.LostOverflow++
	}
}

// advance carries out every event due by virtual time t.
func (n *Network) advance(t time.Duration) {
	for len(n.events) > 0 && n.events[0].at <= t {
		ev := n.pop()
		if ev.dst == nil {
			n.depart(ev)
		} else {
			n.arrive(ev)
		}
	}
	n.now = max(n.now, t)
}

// clock reads virtual time: the wall clock scaled by Speedup, or where
// AdvanceTo left a manual network.
func (n *Network) clock() time.Duration {
	if n.manual() {
		return n.now
	}
	return time.Duration(float64(time.Since(n.base)) * n.cfg.Speedup)
}

// run is the wall-clock driver: carry out what is due, sleep until the next
// event is, and start over when a send schedules an earlier one.
func (n *Network) run() {
	defer close(n.exited)
	for {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		now := n.clock()
		n.advance(now)
		wait := time.Duration(-1)
		if len(n.events) > 0 {
			wait = time.Duration(float64(n.events[0].at-now) / n.cfg.Speedup)
		}
		n.mu.Unlock()
		n.sleep(wait)
	}
}

// sleep waits for d of wall time (forever if negative) or until wake or
// done, with sub-timer-slack accuracy: a coarse timer covers all but the
// last millisecond, which is spun — kernel timer slack otherwise distorts
// the latency figures.
func (n *Network) sleep(d time.Duration) {
	const slack = time.Millisecond
	start := time.Now()
	if d < 0 || d > slack {
		var coarse <-chan time.Time
		if d > slack {
			timer := time.NewTimer(d - slack)
			defer timer.Stop()
			coarse = timer.C
		}
		select {
		case <-coarse:
		case <-n.wake:
			return
		case <-n.done:
			return
		}
	}
	for time.Since(start) < d {
		select {
		case <-n.wake:
			return
		default:
			runtime.Gosched()
		}
	}
}

// push adds an event, and tells a sleeping driver if it is the new earliest.
func (n *Network) push(ev event) {
	n.seq++
	ev.seq = n.seq
	h := append(n.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	n.events = h
	if i == 0 && !n.manual() {
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
}

// pop removes the earliest event.
func (n *Network) pop() event {
	h := n.events
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{} // drop the payload reference
	h = h[:last]
	for i := 0; ; {
		min := i
		for c := 2*i + 1; c <= 2*i+2 && c < last; c++ {
			if h[c].before(&h[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	n.events = h
	return top
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Partition splits the network: every listed node moves to an isolated
// group; all other nodes remain in group 0. Packets do not cross groups.
func (n *Network) Partition(isolated ...NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, nd := range n.nodes {
		nd.group = 0
	}
	for _, id := range isolated {
		if id >= 0 && int(id) < len(n.nodes) {
			n.nodes[id].group = 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() { n.Partition() }

// SetBackgroundLoad adjusts the unrelated-traffic model at run time, used
// by the Figure 7 collision-dip experiment.
func (n *Network) SetBackgroundLoad(load float64) {
	n.mu.Lock()
	n.cfg.BackgroundLoad = load
	n.mu.Unlock()
}

// Stats returns a snapshot of the cumulative counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

func (n *Network) chance(p float64) bool { return n.rng.Float64() < p }
