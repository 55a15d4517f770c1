package reliable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"infobus/internal/bufpool"
	"infobus/internal/telemetry"
)

// Config tunes the reliable delivery protocol. Zero values select the
// defaults noted on each field.
type Config struct {
	// Window is the number of recently sent messages retained for
	// retransmission per stream. A NAK for a message that has left the
	// window cannot be served; the receiver will eventually skip it.
	// Default 1024.
	Window int
	// Batching enables the appendix's batch parameter: small publications
	// are gathered and sent as one datagram, when BatchDelay has passed or
	// 32 KB have gathered.
	Batching bool
	// BatchDelay bounds how long a small publication may wait for
	// companions. Default 2ms.
	BatchDelay time.Duration
	// NakInterval is the cadence for re-sending gap reports, and how long a
	// receiver buffers the messages of a sender first heard mid-stream (the
	// join grace), so that network reordering around the first observed
	// message cannot misorder the stream. A stream whose sequence 1 arrives
	// starts there at once. Default 20ms.
	NakInterval time.Duration
	// GapTimeout is how long a receiver waits for a missing message before
	// skipping it (the at-most-once escape hatch). Default 500ms. A stream
	// that has been silent for expireGaps of them is forgotten; see there.
	GapTimeout time.Duration
	// RetransmitInterval is the cadence for re-sending unacked unicast
	// messages. Default 30ms.
	RetransmitInterval time.Duration
	// HeartbeatInterval is the cadence at which an idle publisher
	// re-advertises its highest sequence number, so receivers detect loss
	// of the final messages of a burst. Default 25ms.
	HeartbeatInterval time.Duration
	// Seed seeds the connection's epoch (the restart-detection token carried
	// in every frame: 32 bits, 5 bytes on the wire). Zero, the default,
	// hashes the clock plus a process-wide counter, so two incarnations on
	// one address share an epoch with probability 2^-32 (see the package
	// doc for what that costs). Tests that need reproducible epochs set
	// distinct nonzero seeds per Conn: the same seed always yields the same
	// epoch, and distinct seeds below 2^32 never yield the same one.
	Seed uint64
}

// batchMaxBytes flushes a batch whose payload bytes reach it.
const batchMaxBytes = 32 << 10

// expireGaps bounds the state kept for a peer that has gone: a stream that
// has been silent for expireGaps GapTimeouts is forgotten on a tick.
//
//   - Inbound broadcast: no data and no heartbeat, nothing buffered, no gap
//     open. A sender heard again is a new sender (join grace, no history),
//     so HeartbeatInterval must stay well under the expiry.
//   - Outbound unicast: no acknowledgement progress. What the destination
//     never acknowledged goes with the stream — it has crashed or is
//     partitioned beyond the gap timeout, where the contract is at most
//     once — and the stream's successor carries a new epoch, so a receiver
//     that still remembers the old one starts over instead of discarding
//     the new messages as duplicates.
//   - Inbound unicast: no data for twice as long, so a receiver never
//     forgets a stream its sender still keeps.
const expireGaps = 8

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 1024
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = 2 * time.Millisecond
	}
	if c.NakInterval <= 0 {
		c.NakInterval = 20 * time.Millisecond
	}
	if c.GapTimeout <= 0 {
		c.GapTimeout = 500 * time.Millisecond
	}
	if c.RetransmitInterval <= 0 {
		c.RetransmitInterval = 30 * time.Millisecond
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 25 * time.Millisecond
	}
	return c
}

// Message is one reliably delivered payload.
type Message struct {
	// From is the transport address of the sending Conn.
	From string
	// Payload is the message body; the receiver owns it.
	Payload []byte
}

// Stats counts protocol events.
type Stats struct {
	Published      uint64 // broadcast messages submitted
	Sent           uint64 // broadcast messages put on the wire (first copy)
	Delivered      uint64 // messages handed to the application
	Retransmits    uint64 // messages re-sent in response to NAKs or timers
	NaksSent       uint64
	NaksReceived   uint64
	Duplicates     uint64 // inbound duplicates suppressed
	Skipped        uint64 // messages abandoned after GapTimeout
	BatchesFlushed uint64
	AcksSent       uint64
}

// CounterPrefix names a host's protocol counters ("reliable.retransmits");
// a router's attachment appends its own name ("reliable.<attachment>").
const CounterPrefix = "reliable"

// counters holds the connection's telemetry handles, resolved once at
// construction so the hot path never touches the registry lock.
type counters struct {
	published, sent, delivered, retransmits *telemetry.Counter
	naksSent, naksReceived                  *telemetry.Counter
	duplicates, skipped                     *telemetry.Counter
	batchesFlushed, acksSent                *telemetry.Counter
	publishedBytes, deliveredBytes          *telemetry.Counter
}

func newCounters(reg *telemetry.Registry, prefix string) counters {
	return counters{
		published:      reg.Counter(prefix + ".published"),
		sent:           reg.Counter(prefix + ".sent"),
		delivered:      reg.Counter(prefix + ".delivered"),
		retransmits:    reg.Counter(prefix + ".retransmits"),
		naksSent:       reg.Counter(prefix + ".naks_sent"),
		naksReceived:   reg.Counter(prefix + ".naks_received"),
		duplicates:     reg.Counter(prefix + ".duplicates"),
		skipped:        reg.Counter(prefix + ".skipped"),
		batchesFlushed: reg.Counter(prefix + ".batches_flushed"),
		acksSent:       reg.Counter(prefix + ".acks_sent"),
		// Byte counters let a monitor turn successive snapshots into
		// bytes/second without decoding any payload.
		publishedBytes: reg.Counter(prefix + ".published_bytes"),
		deliveredBytes: reg.Counter(prefix + ".delivered_bytes"),
	}
}

// Errors.
var (
	ErrClosed       = errors.New("reliable: connection closed")
	ErrBackpressure = errors.New("reliable: too many unacknowledged messages")
)

// Wire is where a Machine writes its frames: the sending half of a
// transport.Endpoint. Both calls have copied or written the frame when they
// return; the machine reuses the buffer.
type Wire interface {
	Send(addr string, frame []byte) error
	Broadcast(frame []byte) error
}

// Delivery is one message the protocol has put in order, and the shard its
// sender's messages all come out of.
type Delivery struct {
	Shard   int
	Message Message
}

// Machine is the reliable protocol of one endpoint with nothing around it:
// all the state and every transition, no goroutine, no timer, no socket and
// no clock of its own. In: the datagrams its owner hands it (OnDatagram),
// the passing of time (Tick) and what the application sends (Publish,
// SendTo, Flush). Out: frames written to the Wire and in-order messages
// queued for Next/Pop. "Now" is Tick's argument, or the clock NewMachine was
// given, read only where a transition records an instant (a batch starting,
// a unicast send, a new sender, a gap opening) — so Conn, which passes
// time.Now, pays no clock read per datagram or per publish, and a test that
// passes a virtual clock gets a run that is a function of its seed.
//
// One goroutine at a time may call OnDatagram, Tick, Next and Pop: they own
// the receive half and take no lock for it. Publish, SendTo, Flush and
// Close may be called from any goroutine; mu guards what they share with
// the owner (the retransmit window, the batch, the unicast send streams,
// the encode scratch).
type Machine struct {
	w      Wire
	cfg    Config
	epoch  uint64
	now    func() time.Time
	expiry time.Duration // expireGaps GapTimeouts
	ctr    counters
	rec    *telemetry.Recorder

	mu sync.Mutex
	// Outbound broadcast stream. Window entries are pooled copies
	// (bufpool.CopyOf) returned to the pool on eviction, so every frame that
	// references them — batch sends, NAK retransmissions — must be encoded
	// and written to the wire while mu is held, which also makes broadcasts
	// leave in sequence order.
	nextSeq uint64
	// window is a ring of the last cfg.Window sent messages, indexed
	// seq % len(window): sequence numbers are dense and monotone, so the
	// ring gives retain/lookup in O(1) with no hashing.
	window     []*[]byte
	windowMin  uint64 // smallest seq still retained
	batch      []msg  // entries alias window buffers; flushed before eviction can reach them
	batchBytes int
	batchSince time.Time
	sentSeq    uint64 // highest seq actually broadcast (batching may lag nextSeq)
	// Heartbeat idle detection: the tick compares sentSeq against the value
	// it saw last time (hbSeq) instead of the send path reading the clock
	// per broadcast. Stream expiry observes silence the same way.
	hbSeq   uint64
	hbAt    time.Time
	sendBuf []byte // scratch for frame encoding under mu; the wire copies on send
	oneMsg  [1]msg // scratch for unbatched single-message sends
	// Outbound unicast per destination; uList is the same set in creation
	// order, which is the order the tick retransmits in.
	uSend  map[string]*ucastSend
	uList  []*ucastSend
	uGen   uint64 // unicast streams expired so far; see ucastSend.epoch
	closed bool

	// The receive half, owner only, never touched under mu: inbound state
	// per remote sender (bList: bPeers in creation order, the order the tick
	// sends NAKs in), the decode scratch (payloads alias the datagram, never
	// the scratch) and the outbox — in-order messages not yet popped, oldest
	// at outHead.
	shards  int
	bPeers  map[string]*bcastRecv
	bList   []*bcastRecv
	uPeers  map[string]*ucastRecv
	uSwept  time.Time // last inbound-unicast expiry sweep
	rxFrame dataFrame
	ctlBuf  []byte // scratch for the receive half's acks and NAKs; the wire copies on send
	outbox  []Delivery
	outHead int
}

// bcastRecv is inbound broadcast-stream state for one sender.
type bcastRecv struct {
	addr      string
	shard     int // fixed when the state is created; see shardOf
	epoch     uint64
	next      uint64            // next expected seq (0 while syncing)
	pending   map[uint64][]byte // out-of-order buffer
	maxSeen   uint64            // highest seq observed (data or heartbeat)
	syncUntil time.Time         // join-grace deadline; zero once synced
	gapSince  time.Time         // when the gap opened, or its head last moved
	gapHead   uint64            // next, as of gapSince
	lastNak   time.Time
	quiet     // heard: data or a heartbeat
}

func (pr *bcastRecv) syncing() bool { return !pr.syncUntil.IsZero() }

// quiet observes how long a stream has been silent with no clock read where
// the traffic is: the hot path sets heard, and the tick, which has the
// time, notes when it last found it set — as the heartbeat watches sentSeq.
type quiet struct {
	heard bool
	since time.Time
}

// silence is for how long nothing was heard, as of the tick at now.
func (q *quiet) silence(now time.Time) time.Duration {
	if q.heard {
		q.heard, q.since = false, now
	}
	return now.Sub(q.since)
}

// ucastRecv is inbound unicast-stream state for one sender.
type ucastRecv struct {
	shard   int
	epoch   uint64
	next    uint64
	pending map[uint64][]byte
	quiet   // heard: data
}

// ucastSend is outbound unicast-stream state for one destination. unacked
// holds pooled copies returned to the pool when acknowledged.
type ucastSend struct {
	addr string
	// epoch is what the stream's frames carry: the machine's, moved on by
	// every stream that expired before this one was created, so that a
	// destination's new stream never shares an epoch with its old one.
	epoch    uint64
	nextSeq  uint64
	unacked  map[uint64]*[]byte
	lastSend time.Time
	quiet    // heard: the stream went from idle to busy, or an ack removed something
}

// epochSalt disambiguates auto-seeded machines created within one clock tick.
var epochSalt atomic.Uint64

// Mix is splitmix64's finalizer: a bijection of uint64 that spreads every
// input bit over the whole output. The epoch is derived through it, and the
// daemon draws its token stream and its origin token through it too.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newEpoch derives the connection epoch: 32 bits, shifted left once and made
// odd, so it is nonzero and at most 5 uvarint bytes on every frame. The
// seed's low 32 bits go through a two-round Feistel network with Mix as its
// round function, a bijection of uint32: distinct seeds below 2^32 never
// share an epoch. Seed zero stands for a hash of the clock plus a
// process-wide counter.
func newEpoch(seed uint64, now time.Time) uint64 {
	if seed == 0 {
		seed = Mix(uint64(now.UnixNano()) + epochSalt.Add(1)<<32)
	}
	x := uint32(seed)
	x ^= uint32(Mix(uint64(x>>16))) & 0xffff // low half ^= F(high half)
	x ^= uint32(Mix(uint64(x&0xffff))) << 16 // high half ^= F(low half)
	return uint64(x)<<1 | 1
}

// NewMachine returns the protocol state of one endpoint that sends on w,
// sorts what it delivers into shards shards and reads the time from now.
// Its counters live in a private registry and it records no events; a
// Conn's owner wires both through NewSharded.
func NewMachine(w Wire, cfg Config, shards int, now func() time.Time) *Machine {
	return newMachine(w, cfg, shards, now, telemetry.NewRegistry(), CounterPrefix, nil)
}

// newMachine is NewMachine with its counters under prefix in reg and its
// notable events (gap skips, retransmission bursts, peer restarts) recorded
// in rec, which may be nil.
func newMachine(w Wire, cfg Config, shards int, now func() time.Time,
	reg *telemetry.Registry, prefix string, rec *telemetry.Recorder) *Machine {
	cfg = cfg.withDefaults()
	return &Machine{
		w:         w,
		cfg:       cfg,
		epoch:     newEpoch(cfg.Seed, now()),
		now:       now,
		expiry:    expireGaps * cfg.GapTimeout,
		ctr:       newCounters(reg, prefix),
		rec:       rec,
		window:    make([]*[]byte, cfg.Window),
		windowMin: 1,
		uSend:     make(map[string]*ucastSend),
		shards:    shards,
		bPeers:    make(map[string]*bcastRecv),
		uPeers:    make(map[string]*ucastRecv),
	}
}

// TickInterval is how often the owner should call Tick: a quarter of the
// NAK cadence, or half the batch delay when batching and that is shorter.
func (m *Machine) TickInterval() time.Duration {
	interval := m.cfg.NakInterval / 4
	if bd := m.cfg.BatchDelay / 2; m.cfg.Batching && bd < interval {
		interval = bd
	}
	if interval < 200*time.Microsecond {
		interval = 200 * time.Microsecond
	}
	return interval
}

// Stats returns a snapshot of the protocol counters. The counters are
// monotone atomics read in one pass, so the snapshot is a consistent cut:
// related counters can disagree only by events in flight during the call.
func (m *Machine) Stats() Stats {
	return Stats{
		Published:      m.ctr.published.Load(),
		Sent:           m.ctr.sent.Load(),
		Delivered:      m.ctr.delivered.Load(),
		Retransmits:    m.ctr.retransmits.Load(),
		NaksSent:       m.ctr.naksSent.Load(),
		NaksReceived:   m.ctr.naksReceived.Load(),
		Duplicates:     m.ctr.duplicates.Load(),
		Skipped:        m.ctr.skipped.Load(),
		BatchesFlushed: m.ctr.batchesFlushed.Load(),
		AcksSent:       m.ctr.acksSent.Load(),
	}
}

// Close flushes pending batched messages best-effort; afterwards Publish
// and SendTo fail with ErrClosed and Tick sends nothing. It reports whether
// this call was the one that closed the machine.
func (m *Machine) Close() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	_ = m.flushBatchLocked()
	m.closed = true
	return true
}

// Publish sends one message on the broadcast stream.
func (m *Machine) Publish(payload []byte) error {
	// Copy into the pooled window buffer before taking mu: the memcpy is
	// the bulk of the publish cost, and with delivery lanes several local
	// publishers hit this lock concurrently.
	wp := bufpool.CopyOf(payload)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		bufpool.Put(wp)
		return ErrClosed
	}
	m.ctr.published.Inc()
	m.ctr.publishedBytes.Add(uint64(len(payload)))
	m.nextSeq++
	seq := m.nextSeq
	m.retain(seq, wp)
	cp := *wp

	if !m.cfg.Batching {
		m.oneMsg[0] = msg{seq: seq, payload: cp}
		return m.sendDataLocked(m.oneMsg[:])
	}
	if len(m.batch) == 0 {
		m.batchSince = m.now()
	}
	m.batch = append(m.batch, msg{seq: seq, payload: cp})
	m.batchBytes += len(cp)
	// Flush on size, and unconditionally before the batch could outlive its
	// window entries: batch payloads alias window buffers, and an eviction
	// Put while the batch is pending would recycle bytes still queued.
	if m.batchBytes >= batchMaxBytes || len(m.batch) >= m.cfg.Window {
		return m.flushBatchLocked()
	}
	return nil
}

// Flush forces any batched publications onto the wire immediately.
func (m *Machine) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flushBatchLocked()
}

func (m *Machine) flushBatchLocked() error {
	if len(m.batch) == 0 {
		return nil
	}
	m.batchBytes = 0
	m.ctr.batchesFlushed.Inc()
	err := m.sendDataLocked(m.batch)
	// The send is synchronous (the frame bytes are copied or written before
	// Broadcast returns), so the slice can be reused for the next batch.
	m.batch = m.batch[:0]
	return err
}

// sendDataLocked encodes msgs into the scratch buffer and broadcasts the
// frame. Callers hold mu; the payloads may alias pooled window buffers,
// which is safe exactly because encoding happens under the same lock that
// serializes eviction.
func (m *Machine) sendDataLocked(msgs []msg) error {
	m.sendBuf = appendData(m.sendBuf[:0], dataFrame{typ: frameData, epoch: m.epoch, msgs: msgs})
	m.ctr.sent.Add(uint64(len(msgs)))
	if last := msgs[len(msgs)-1].seq; last > m.sentSeq {
		m.sentSeq = last
	}
	return m.w.Broadcast(m.sendBuf)
}

// retain stores a sent broadcast message for NAK-triggered retransmission,
// evicting (and pooling) the oldest entries beyond the window.
func (m *Machine) retain(seq uint64, payload *[]byte) {
	slot := seq % uint64(len(m.window))
	if old := m.window[slot]; old != nil {
		bufpool.Put(old)
	}
	m.window[slot] = payload
	if seq >= uint64(len(m.window)) {
		m.windowMin = seq - uint64(len(m.window)) + 1
	}
}

// SendTo sends one message on the reliable unicast stream to addr. The
// message is retransmitted until acknowledged, or until addr has
// acknowledged nothing for expireGaps GapTimeouts. SendTo fails with
// ErrBackpressure when Window messages to addr are in flight.
func (m *Machine) SendTo(addr string, payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	us := m.uSend[addr]
	if us == nil {
		us = &ucastSend{addr: addr, epoch: m.epoch + 2*m.uGen, unacked: make(map[uint64]*[]byte)}
		m.uSend[addr] = us
		m.uList = append(m.uList, us)
	}
	if len(us.unacked) >= m.cfg.Window {
		return fmt.Errorf("to %s: %w", addr, ErrBackpressure)
	}
	if len(us.unacked) == 0 {
		us.heard = true
	}
	us.nextSeq++
	seq := us.nextSeq
	wp := bufpool.CopyOf(payload)
	us.unacked[seq] = wp
	us.lastSend = m.now()
	m.oneMsg[0] = msg{seq: seq, payload: *wp}
	m.sendBuf = appendData(m.sendBuf[:0], dataFrame{typ: frameUData, epoch: us.epoch, msgs: m.oneMsg[:]})
	return m.w.Send(addr, m.sendBuf)
}

// ---------------------------------------------------------------------------
// Deliveries.

// Next returns the oldest delivery not yet popped, nil when there is none.
func (m *Machine) Next() *Delivery {
	if m.outHead == len(m.outbox) {
		m.outbox, m.outHead = m.outbox[:0], 0
		return nil
	}
	return &m.outbox[m.outHead]
}

// Pop takes the delivery Next returned.
func (m *Machine) Pop() { m.outHead++ }

// deliver queues one in-order message for its shard. Every delivery path
// funnels through here, hence the accounting.
func (m *Machine) deliver(shard int, from string, payload []byte) {
	m.ctr.delivered.Inc()
	m.ctr.deliveredBytes.Add(uint64(len(payload)))
	m.outbox = append(m.outbox, Delivery{Shard: shard, Message: Message{From: from, Payload: payload}})
}

// deliverPending delivers the buffered messages that follow next without
// a hole and returns the first sequence number still missing.
func (m *Machine) deliverPending(shard int, from string, pending map[uint64][]byte, next uint64) uint64 {
	for {
		p, ok := pending[next]
		if !ok {
			return next
		}
		delete(pending, next)
		m.deliver(shard, from, p)
		next++
	}
}

// shardOf picks the shard for a sender address (FNV-1a). It is called once
// per stream, when the receive state is created, and is the same function
// for both kinds of stream: a sender's broadcasts and unicasts share a
// consumer.
func (m *Machine) shardOf(addr string) int {
	h := uint32(2166136261)
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint32(addr[i])) * 16777619
	}
	return int(h % uint32(m.shards))
}

// ---------------------------------------------------------------------------
// Datagrams.

// OnDatagram runs the protocol on one received datagram. The payload is
// not copied: delivered messages alias it.
func (m *Machine) OnDatagram(from string, data []byte) {
	f, err := decodeFrameInto(data, &m.rxFrame)
	if err != nil {
		return // corrupt datagram: the unreliable layer may hand us garbage
	}
	switch f.typ {
	case frameData:
		m.handleBroadcastData(from, f.data)
	case frameUData:
		m.handleUnicastData(from, f.data)
	case frameNak:
		m.handleNak(from, f.nak)
	case frameUAck:
		m.handleAck(from, f.ack)
	case frameHeart:
		m.handleHeart(from, f.heart)
	}
}

// resetPeer returns from's broadcast state started over at epoch: a new
// sender, or one that restarted (at-most-once across failures). An existing
// entry is reused in place, so it keeps its turn in the tick.
func (m *Machine) resetPeer(from string, epoch uint64) *bcastRecv {
	pr := m.bPeers[from]
	if pr == nil {
		pr = &bcastRecv{addr: from, shard: m.shardOf(from)}
		m.bPeers[from] = pr
		m.bList = append(m.bList, pr)
	} else if m.rec != nil {
		m.rec.Record(telemetry.EventRestart, from, int64(epoch), int64(pr.epoch))
	}
	*pr = bcastRecv{addr: pr.addr, shard: pr.shard, epoch: epoch, pending: make(map[uint64][]byte)}
	pr.heard = true
	return pr
}

func (m *Machine) handleBroadcastData(from string, f *dataFrame) {
	pr := m.bPeers[from]
	if pr == nil || pr.epoch != f.epoch {
		// The stream starts in the syncing state: unless its sequence 1 is
		// in hand, we buffer briefly so network reordering around our first
		// sighting cannot make us skip the true earliest message.
		pr = m.resetPeer(from, f.epoch)
		pr.syncUntil = m.now().Add(m.cfg.NakInterval)
	}
	pr.heard = true
	for _, in := range f.msgs {
		if in.seq > pr.maxSeen {
			pr.maxSeen = in.seq
		}
		if pr.syncing() && in.seq == 1 {
			// The stream's first message: the grace would adopt the smallest
			// buffered sequence, and none is below 1, so it starts here.
			pr.syncUntil, pr.next = time.Time{}, 1
		}
		if pr.syncing() {
			if _, dup := pr.pending[in.seq]; dup {
				m.ctr.duplicates.Inc()
			} else {
				pr.pending[in.seq] = in.payload
			}
			continue
		}
		switch {
		case in.seq < pr.next:
			m.ctr.duplicates.Inc()
		case in.seq == pr.next:
			m.deliver(pr.shard, from, in.payload)
			pr.next = m.deliverPending(pr.shard, from, pr.pending, pr.next+1)
			if len(pr.pending) == 0 && pr.next > pr.maxSeen {
				pr.gapSince = time.Time{}
			}
		default: // gap
			if _, dup := pr.pending[in.seq]; dup {
				m.ctr.duplicates.Inc()
				break
			}
			pr.pending[in.seq] = in.payload
			if pr.gapSince.IsZero() {
				pr.gapSince, pr.gapHead = m.now(), pr.next
			}
		}
	}
}

// handleHeart processes a publisher's max-sequence advertisement.
func (m *Machine) handleHeart(from string, f heartFrame) {
	pr := m.bPeers[from]
	if pr == nil || pr.epoch != f.epoch {
		// First contact via heartbeat: a late joiner. Expect only future
		// messages (P4: a new subscriber receives new publications, not
		// history).
		pr = m.resetPeer(from, f.epoch)
		pr.next, pr.maxSeen = f.maxSeq+1, f.maxSeq
		return
	}
	pr.heard = true
	if f.maxSeq > pr.maxSeen {
		pr.maxSeen = f.maxSeq
	}
	if !pr.syncing() && pr.next <= pr.maxSeen && pr.gapSince.IsZero() {
		// Tail loss: the heartbeat reveals messages we never saw.
		pr.gapSince, pr.gapHead = m.now(), pr.next
	}
}

func (m *Machine) handleUnicastData(from string, f *dataFrame) {
	ur := m.uPeers[from]
	if ur == nil || ur.epoch != f.epoch {
		ur = &ucastRecv{shard: m.shardOf(from), epoch: f.epoch, next: 1, pending: make(map[uint64][]byte)}
		m.uPeers[from] = ur
	}
	ur.heard = true
	for _, in := range f.msgs {
		switch {
		case in.seq < ur.next:
			m.ctr.duplicates.Inc()
		case in.seq == ur.next:
			m.deliver(ur.shard, from, in.payload)
			ur.next = m.deliverPending(ur.shard, from, ur.pending, ur.next+1)
		default:
			if _, dup := ur.pending[in.seq]; !dup {
				ur.pending[in.seq] = in.payload
			} else {
				m.ctr.duplicates.Inc()
			}
		}
	}
	m.ctr.acksSent.Inc()
	m.ctlBuf = appendAck(m.ctlBuf[:0], ackFrame{epoch: f.epoch, cum: ur.next - 1})
	_ = m.w.Send(from, m.ctlBuf)
}

func (m *Machine) handleNak(from string, f nakFrame) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ctr.naksReceived.Inc()
	if f.epoch != m.epoch {
		return
	}
	// Only what the window still holds can be served; the clamp also bounds
	// the walk a crafted range would otherwise demand.
	if f.from < m.windowMin {
		f.from = m.windowMin
	}
	if f.to > m.nextSeq {
		f.to = m.nextSeq
	}
	var msgs []msg
	for seq := f.from; seq <= f.to; seq++ {
		if p := m.window[seq%uint64(len(m.window))]; p != nil {
			msgs = append(msgs, msg{seq: seq, payload: *p})
		}
	}
	if len(msgs) == 0 {
		return
	}
	m.ctr.retransmits.Add(uint64(len(msgs)))
	if m.rec != nil {
		m.rec.Record(telemetry.EventRetransmit, from, int64(len(msgs)), 0)
	}
	// Encoded and sent before unlocking: the payloads are pooled window
	// buffers that a concurrent Publish could evict (and recycle) the moment
	// mu is free. Retransmission is unicast to the requester only; other
	// receivers either have the messages or will NAK on their own.
	m.sendBuf = appendData(m.sendBuf[:0], dataFrame{typ: frameData, epoch: m.epoch, msgs: msgs})
	_ = m.w.Send(from, m.sendBuf)
}

func (m *Machine) handleAck(from string, f ackFrame) {
	m.mu.Lock()
	defer m.mu.Unlock()
	us := m.uSend[from]
	if us == nil || f.epoch != us.epoch {
		return
	}
	for seq, p := range us.unacked {
		if seq <= f.cum {
			bufpool.Put(p)
			delete(us.unacked, seq)
			us.heard = true
		}
	}
}

// ---------------------------------------------------------------------------
// The timer: batch flush, heartbeat, unicast retransmission and give-up on
// the send side; join-grace release, NAK scheduling, gap skipping and
// expiry per sender.

// Tick runs everything that depends on the passing of time, as of now.
func (m *Machine) Tick(now time.Time) {
	m.tickSend(now)
	live := m.bList[:0]
	for _, pr := range m.bList {
		if m.tickPeer(now, pr) {
			live = append(live, pr)
		} else {
			delete(m.bPeers, pr.addr)
		}
	}
	clear(m.bList[len(live):])
	m.bList = live
	if now.Sub(m.uSwept) >= m.cfg.GapTimeout {
		m.uSwept = now
		for addr, ur := range m.uPeers {
			if ur.silence(now) >= 2*m.expiry {
				delete(m.uPeers, addr)
			}
		}
	}
}

// tickSend is the timer's share of the outbound streams. The frames are
// encoded and sent under mu, as Publish and the NAK reply do: the payloads
// are pooled buffers an ack or an eviction could recycle once mu is free.
func (m *Machine) tickSend(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	// Batch flush on delay expiry.
	if m.cfg.Batching && len(m.batch) > 0 && now.Sub(m.batchSince) >= m.cfg.BatchDelay {
		_ = m.flushBatchLocked()
	}
	// Heartbeat: an idle publisher re-advertises its max seq so receivers
	// can detect tail loss. Idleness is observed here — the broadcast
	// stream made no seq progress for a full HeartbeatInterval — instead
	// of the send path stamping a clock per broadcast.
	if m.sentSeq > 0 {
		if m.sentSeq != m.hbSeq {
			m.hbSeq = m.sentSeq
			m.hbAt = now
		} else if now.Sub(m.hbAt) >= m.cfg.HeartbeatInterval {
			m.hbAt = now
			m.sendBuf = appendHeart(m.sendBuf[:0], heartFrame{epoch: m.epoch, maxSeq: m.sentSeq})
			_ = m.w.Broadcast(m.sendBuf)
		}
	}
	live := m.uList[:0]
	for _, us := range m.uList {
		if m.tickUnicastLocked(now, us) {
			live = append(live, us)
		} else {
			delete(m.uSend, us.addr)
			m.uGen++
		}
	}
	clear(m.uList[len(live):])
	m.uList = live
}

// tickUnicastLocked retransmits what one destination has not acknowledged
// and reports whether the stream is to be kept.
func (m *Machine) tickUnicastLocked(now time.Time, us *ucastSend) bool {
	if us.silence(now) >= m.expiry {
		if len(us.unacked) > 0 && m.rec != nil {
			m.rec.Record(telemetry.EventDrop, us.addr, int64(len(us.unacked)), 0)
		}
		for _, p := range us.unacked {
			bufpool.Put(p)
		}
		return false
	}
	if len(us.unacked) == 0 || now.Sub(us.lastSend) < m.cfg.RetransmitInterval {
		return true
	}
	us.lastSend = now
	var msgs []msg
	for seq, p := range us.unacked {
		msgs = append(msgs, msg{seq: seq, payload: *p})
	}
	sortMsgs(msgs)
	m.ctr.retransmits.Add(uint64(len(msgs)))
	if m.rec != nil {
		m.rec.Record(telemetry.EventRetransmit, us.addr, int64(len(msgs)), 0)
	}
	m.sendBuf = appendData(m.sendBuf[:0], dataFrame{typ: frameUData, epoch: us.epoch, msgs: msgs})
	_ = m.w.Send(us.addr, m.sendBuf)
	return true
}

// tickPeer maintains one sender's broadcast stream and reports whether its
// state is to be kept.
func (m *Machine) tickPeer(now time.Time, pr *bcastRecv) bool {
	live := pr.silence(now) < m.expiry
	// Complete the join-grace sync: adopt the smallest buffered seq as
	// the stream start and deliver in order from there.
	if pr.syncing() {
		if len(pr.pending) == 0 {
			return live
		}
		if now.Before(pr.syncUntil) {
			return true
		}
		pr.syncUntil = time.Time{}
		pr.next = m.deliverPending(pr.shard, pr.addr, pr.pending, minKey(pr.pending))
	}
	// A gap exists if buffered messages wait behind a hole, or a
	// heartbeat advertised messages we never received.
	if len(pr.pending) == 0 && pr.next > pr.maxSeen {
		pr.gapSince = time.Time{}
		return live
	}
	gapEnd := pr.maxSeen // last seq known to exist and missing
	if len(pr.pending) > 0 {
		gapEnd = minKey(pr.pending) - 1 // every buffered seq is <= maxSeen
	}
	if pr.gapSince.IsZero() || pr.gapHead != pr.next {
		// A new gap, or the head of the old one moved: the sender is
		// answering, so the timeout runs from that progress — not from the
		// first of many holes — and the new head is asked for at once.
		pr.gapSince, pr.gapHead, pr.lastNak = now, pr.next, time.Time{}
	}
	if now.Sub(pr.gapSince) >= m.cfg.GapTimeout {
		// Give up on the missing range: skip and deliver what we have
		// (the at-most-once escape hatch).
		m.ctr.skipped.Add(gapEnd + 1 - pr.next)
		if m.rec != nil {
			m.rec.Record(telemetry.EventDrop, pr.addr, int64(gapEnd+1-pr.next), 0)
		}
		pr.next = m.deliverPending(pr.shard, pr.addr, pr.pending, gapEnd+1)
		if len(pr.pending) == 0 && pr.next > pr.maxSeen {
			pr.gapSince = time.Time{}
		} else {
			pr.gapSince, pr.gapHead = now, pr.next
		}
		return true
	}
	if now.Sub(pr.lastNak) >= m.cfg.NakInterval && gapEnd >= pr.next {
		pr.lastNak = now
		m.ctr.naksSent.Inc()
		m.ctlBuf = appendNak(m.ctlBuf[:0], nakFrame{epoch: pr.epoch, from: pr.next, to: gapEnd})
		_ = m.w.Send(pr.addr, m.ctlBuf)
	}
	return true
}

func minKey(m map[uint64][]byte) uint64 {
	min := ^uint64(0)
	for k := range m {
		if k < min {
			min = k
		}
	}
	return min
}

func sortMsgs(ms []msg) {
	// Insertion sort: retransmission sets are small.
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].seq < ms[j-1].seq; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}
