package reliable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"infobus/internal/bufpool"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
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
	// are gathered and sent as one datagram.
	Batching bool
	// BatchDelay bounds how long a small publication may wait for
	// companions. Default 2ms.
	BatchDelay time.Duration
	// BatchMaxBytes flushes the batch when its payload bytes reach this
	// size. Default 32 KB.
	BatchMaxBytes int
	// NakInterval is the cadence for re-sending gap reports. Default 20ms.
	NakInterval time.Duration
	// GapTimeout is how long a receiver waits for a missing message before
	// skipping it (the at-most-once escape hatch). Default 500ms.
	GapTimeout time.Duration
	// RetransmitInterval is the cadence for re-sending unacked unicast
	// messages. Default 30ms.
	RetransmitInterval time.Duration
	// HeartbeatInterval is the cadence at which an idle publisher
	// re-advertises its highest sequence number, so receivers detect loss
	// of the final messages of a burst. Default 25ms.
	HeartbeatInterval time.Duration
	// JoinGrace is how long a receiver buffers messages from a sender it
	// has not seen before, so that network reordering around the first
	// observed message cannot misorder the stream. Default: NakInterval.
	JoinGrace time.Duration
	// Metrics is the telemetry registry the connection's counters live in;
	// nil gives the connection a private registry (Stats still works, the
	// counters just are not exported anywhere). The daemon shares its
	// host's registry here so protocol counters appear in the host's
	// "_sys.stats.<node>" publications.
	Metrics *telemetry.Registry
	// MetricsPrefix namespaces the counter names within Metrics; default
	// "reliable". Routers give each attachment its own prefix so that
	// per-attachment streams stay distinguishable in one registry.
	MetricsPrefix string
	// Recorder is the process flight recorder; the connection records
	// notable protocol events into it (gap skips, retransmission bursts,
	// peer restarts). Nil disables recording. These are failure-path
	// events: the steady state records nothing.
	Recorder *telemetry.Recorder
	// Seed seeds the connection's epoch (the restart-detection token carried
	// in every frame). Zero, the default, derives a unique epoch from the
	// clock plus a process-wide counter. Tests that need reproducible epochs
	// set distinct nonzero seeds per Conn: the same seed always yields the
	// same epoch, and two live Conns must never share one.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 1024
	}
	if c.BatchDelay <= 0 {
		c.BatchDelay = 2 * time.Millisecond
	}
	if c.BatchMaxBytes <= 0 {
		c.BatchMaxBytes = 32 << 10
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
	if c.JoinGrace <= 0 {
		c.JoinGrace = c.NakInterval
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.MetricsPrefix == "" {
		c.MetricsPrefix = "reliable"
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

// Conn errors.
var (
	ErrClosed       = errors.New("reliable: connection closed")
	ErrBackpressure = errors.New("reliable: too many unacknowledged messages")
)

// Conn layers the reliable protocol over one transport endpoint. A Conn
// carries one outbound broadcast stream (Publish), any number of outbound
// unicast streams (SendTo), and delivers all reliably received messages —
// broadcast and unicast — on Recv in per-sender FIFO order.
type Conn struct {
	ep    transport.Endpoint
	cfg   Config
	epoch uint64
	out   chan Message
	done  chan struct{}
	wg    sync.WaitGroup

	mu sync.Mutex
	// Outbound broadcast stream. Window entries are pooled copies
	// (bufpool.CopyOf) returned to the pool on eviction, so every frame that
	// references them — batch sends, NAK retransmissions — must be encoded
	// while mu is held; only the encoded frame (which the transport does not
	// retain) may cross the unlock.
	nextSeq uint64
	// window is a ring of the last cfg.Window sent messages, indexed
	// seq % len(window): sequence numbers are dense and monotone, so the
	// ring gives retain/lookup in O(1) with no hashing — the map this
	// replaces was ~18% of the router's forwarding cost.
	window     []*[]byte
	windowMin  uint64 // smallest seq still retained
	batch      []msg  // entries alias window buffers; flushed before eviction can reach them
	batchBytes int
	batchSince time.Time
	sentSeq    uint64 // highest seq actually broadcast (batching may lag nextSeq)
	// Heartbeat idle detection: the housekeeping tick compares sentSeq
	// against the value it saw last time (hbSeq) instead of the send path
	// stamping time.Now() per broadcast — a clock read per send was ~14%
	// of the router's forwarding cost.
	hbSeq   uint64
	hbAt    time.Time
	sendBuf []byte // scratch for frame encoding under mu; transport copies on send
	oneMsg  [1]msg // scratch for unbatched single-message sends
	// Inbound state per remote sender.
	bPeers map[string]*bcastRecv
	uPeers map[string]*ucastRecv
	// Outbound unicast per destination.
	uSend map[string]*ucastSend

	closed bool
	ctr    counters
	rec    *telemetry.Recorder

	// Emission order. Messages reach the application from two goroutines —
	// recvLoop, and housekeeping when it releases a join-grace buffer or
	// skips a gap — and must arrive in the order of the state transitions
	// that made them deliverable. A goroutine with something to deliver takes
	// the next ticket while it still holds mu and emits when its turn comes,
	// after unlocking: holding mu (or any lock taken under mu) across the
	// blocking channel send would deadlock against a consumer that answers
	// a message with SendTo. emitNext is guarded by mu, emitTurn by emitMu.
	emitNext uint64
	emitMu   sync.Mutex
	emitCond *sync.Cond
	emitTurn uint64

	// Receive scratch, owned by recvLoop: every datagram is decoded into
	// rxFrame and its deliverable messages gathered in rxDeliver, both
	// emitted before the next datagram is read. Nothing retains the slices
	// past the call — the join buffer and pending hold payloads, which alias
	// the datagram, never the scratch.
	rxFrame   dataFrame
	rxDeliver []Message
}

// bcastRecv is inbound broadcast-stream state for one sender.
type bcastRecv struct {
	epoch     uint64
	next      uint64            // next expected seq (0 while syncing)
	pending   map[uint64][]byte // out-of-order buffer
	maxSeen   uint64            // highest seq observed (data or heartbeat)
	syncUntil time.Time         // join-grace deadline; zero once synced
	gapSince  time.Time
	lastNak   time.Time
}

func (pr *bcastRecv) syncing() bool { return !pr.syncUntil.IsZero() }

// ucastRecv is inbound unicast-stream state for one sender.
type ucastRecv struct {
	epoch   uint64
	next    uint64
	pending map[uint64][]byte
}

// ucastSend is outbound unicast-stream state for one destination. unacked
// holds pooled copies returned to the pool when acknowledged.
type ucastSend struct {
	nextSeq  uint64
	unacked  map[uint64]*[]byte
	lastSend time.Time
}

// epochSalt disambiguates auto-seeded Conns created within one clock tick.
var epochSalt atomic.Uint64

// newEpoch derives the connection epoch from seed (splitmix64 finalizer),
// or from the clock plus a process-wide counter when seed is zero. The
// result is always odd, hence nonzero.
func newEpoch(seed uint64) uint64 {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) + epochSalt.Add(1)<<32
	}
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z | 1
}

// New layers a reliable connection over ep. The endpoint must not be used
// directly afterwards.
func New(ep transport.Endpoint, cfg Config) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{
		ep:     ep,
		cfg:    cfg,
		epoch:  newEpoch(cfg.Seed),
		out:    make(chan Message, 1024),
		done:   make(chan struct{}),
		window: make([]*[]byte, cfg.Window),
		bPeers: make(map[string]*bcastRecv),
		uPeers: make(map[string]*ucastRecv),
		uSend:  make(map[string]*ucastSend),
	}
	c.ctr = newCounters(c.cfg.Metrics, c.cfg.MetricsPrefix)
	c.rec = cfg.Recorder
	c.windowMin = 1
	c.emitCond = sync.NewCond(&c.emitMu)
	c.emitNext, c.emitTurn = 1, 1
	c.wg.Add(2)
	go c.recvLoop()
	go c.housekeeping()
	return c
}

// Addr returns the underlying endpoint's address.
func (c *Conn) Addr() string { return c.ep.Addr() }

// Recv returns the channel of reliably delivered messages. It is closed
// when the connection closes.
func (c *Conn) Recv() <-chan Message { return c.out }

// Stats returns a snapshot of the protocol counters. The counters are
// monotone atomics read in one pass, so the snapshot is a consistent cut:
// related counters can disagree only by events in flight during the call.
func (c *Conn) Stats() Stats {
	return Stats{
		Published:      c.ctr.published.Load(),
		Sent:           c.ctr.sent.Load(),
		Delivered:      c.ctr.delivered.Load(),
		Retransmits:    c.ctr.retransmits.Load(),
		NaksSent:       c.ctr.naksSent.Load(),
		NaksReceived:   c.ctr.naksReceived.Load(),
		Duplicates:     c.ctr.duplicates.Load(),
		Skipped:        c.ctr.skipped.Load(),
		BatchesFlushed: c.ctr.batchesFlushed.Load(),
		AcksSent:       c.ctr.acksSent.Load(),
	}
}

// Close tears the connection down. Pending batched messages are flushed
// best-effort.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.flushBatchLocked()
	c.closed = true
	close(c.done)
	c.mu.Unlock()
	c.emitMu.Lock()
	c.emitCond.Broadcast() // emitters waiting for their turn see done
	c.emitMu.Unlock()
	_ = c.ep.Close()
	c.wg.Wait()
	close(c.out)
	return nil
}

// Publish sends one message on the connection's broadcast stream.
func (c *Conn) Publish(payload []byte) error {
	// Copy into the pooled window buffer before taking c.mu: the memcpy is
	// the bulk of the publish cost, and with delivery lanes several local
	// publishers hit this lock concurrently.
	wp := bufpool.CopyOf(payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		bufpool.Put(wp)
		return ErrClosed
	}
	c.ctr.published.Inc()
	c.ctr.publishedBytes.Add(uint64(len(payload)))
	c.nextSeq++
	seq := c.nextSeq
	c.retain(seq, wp)
	cp := *wp

	if !c.cfg.Batching {
		c.oneMsg[0] = msg{seq: seq, payload: cp}
		return c.sendDataLocked(c.oneMsg[:])
	}
	if len(c.batch) == 0 {
		c.batchSince = time.Now()
	}
	c.batch = append(c.batch, msg{seq: seq, payload: cp})
	c.batchBytes += len(cp)
	// Flush on size, and unconditionally before the batch could outlive its
	// window entries: batch payloads alias window buffers, and an eviction
	// Put while the batch is pending would recycle bytes still queued.
	if c.batchBytes >= c.cfg.BatchMaxBytes || len(c.batch) >= c.cfg.Window {
		return c.flushBatchLocked()
	}
	return nil
}

// Flush forces any batched publications onto the wire immediately.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushBatchLocked()
}

func (c *Conn) flushBatchLocked() error {
	if len(c.batch) == 0 {
		return nil
	}
	c.batchBytes = 0
	c.ctr.batchesFlushed.Inc()
	err := c.sendDataLocked(c.batch)
	// The send is synchronous (the frame bytes are copied or written before
	// Broadcast returns), so the slice can be reused for the next batch.
	c.batch = c.batch[:0]
	return err
}

// sendDataLocked encodes msgs into the connection's scratch buffer and
// broadcasts the frame. Callers hold c.mu; the payloads may alias pooled
// window buffers, which is safe exactly because encoding happens under the
// same lock that serializes eviction.
func (c *Conn) sendDataLocked(msgs []msg) error {
	c.sendBuf = appendData(c.sendBuf[:0], dataFrame{typ: frameData, epoch: c.epoch, msgs: msgs})
	c.ctr.sent.Add(uint64(len(msgs)))
	if last := msgs[len(msgs)-1].seq; last > c.sentSeq {
		c.sentSeq = last
	}
	return c.ep.Broadcast(c.sendBuf)
}

// retain stores a sent broadcast message for NAK-triggered retransmission,
// evicting (and pooling) the oldest entries beyond the window.
func (c *Conn) retain(seq uint64, payload *[]byte) {
	slot := seq % uint64(len(c.window))
	if old := c.window[slot]; old != nil {
		bufpool.Put(old)
	}
	c.window[slot] = payload
	if seq >= uint64(len(c.window)) {
		c.windowMin = seq - uint64(len(c.window)) + 1
	}
}

// retained returns the window entry for seq, nil if it has been evicted
// (or never sent).
func (c *Conn) retained(seq uint64) *[]byte {
	if seq < c.windowMin || seq > c.nextSeq {
		return nil
	}
	return c.window[seq%uint64(len(c.window))]
}

// SendTo sends one message on the reliable unicast stream to addr. The
// message is retransmitted until acknowledged. SendTo fails with
// ErrBackpressure when Window messages to addr are in flight.
func (c *Conn) SendTo(addr string, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	us := c.uSend[addr]
	if us == nil {
		us = &ucastSend{unacked: make(map[uint64]*[]byte)}
		c.uSend[addr] = us
	}
	if len(us.unacked) >= c.cfg.Window {
		return fmt.Errorf("to %s: %w", addr, ErrBackpressure)
	}
	us.nextSeq++
	seq := us.nextSeq
	wp := bufpool.CopyOf(payload)
	us.unacked[seq] = wp
	us.lastSend = time.Now()
	c.oneMsg[0] = msg{seq: seq, payload: *wp}
	c.sendBuf = appendData(c.sendBuf[:0], dataFrame{typ: frameUData, epoch: c.epoch, msgs: c.oneMsg[:]})
	return c.ep.Send(addr, c.sendBuf)
}

// ---------------------------------------------------------------------------
// Receive path

func (c *Conn) recvLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case dg, ok := <-c.ep.Recv():
			if !ok {
				return
			}
			c.handleDatagram(dg)
		}
	}
}

func (c *Conn) handleDatagram(dg transport.Datagram) {
	f, err := decodeFrameInto(dg.Payload, &c.rxFrame)
	if err != nil {
		return // corrupt datagram: the unreliable layer may hand us garbage
	}
	switch f.typ {
	case frameData:
		c.handleBroadcastData(dg.From, f.data)
	case frameUData:
		c.handleUnicastData(dg.From, f.data)
	case frameNak:
		c.handleNak(dg.From, f.nak)
	case frameUAck:
		c.handleAck(dg.From, f.ack)
	case frameHeart:
		c.handleHeart(dg.From, f.heart)
	}
}

func (c *Conn) handleBroadcastData(from string, f *dataFrame) {
	deliver := c.rxDeliver[:0]
	c.mu.Lock()
	pr := c.bPeers[from]
	if pr == nil || pr.epoch != f.epoch {
		// New sender, or sender restarted: reset the stream (at-most-once
		// across failures). The stream starts in the syncing state: we
		// buffer briefly so network reordering around our first sighting
		// cannot make us skip the true earliest message.
		if pr != nil && c.rec != nil {
			c.rec.Record(telemetry.EventRestart, from, int64(f.epoch), int64(pr.epoch))
		}
		pr = &bcastRecv{
			epoch:     f.epoch,
			pending:   make(map[uint64][]byte),
			syncUntil: time.Now().Add(c.cfg.JoinGrace),
		}
		c.bPeers[from] = pr
	}
	for _, m := range f.msgs {
		if m.seq > pr.maxSeen {
			pr.maxSeen = m.seq
		}
		if pr.syncing() {
			if _, dup := pr.pending[m.seq]; dup {
				c.ctr.duplicates.Inc()
			} else {
				pr.pending[m.seq] = m.payload
			}
			continue
		}
		switch {
		case m.seq < pr.next:
			c.ctr.duplicates.Inc()
		case m.seq == pr.next:
			deliver = append(deliver, Message{From: from, Payload: m.payload})
			pr.next++
			// Drain any now-in-order pending messages.
			for {
				p, ok := pr.pending[pr.next]
				if !ok {
					break
				}
				delete(pr.pending, pr.next)
				deliver = append(deliver, Message{From: from, Payload: p})
				pr.next++
			}
			if len(pr.pending) == 0 && pr.next > pr.maxSeen {
				pr.gapSince = time.Time{}
			}
		default: // gap
			if _, dup := pr.pending[m.seq]; dup {
				c.ctr.duplicates.Inc()
				break
			}
			pr.pending[m.seq] = m.payload
			if pr.gapSince.IsZero() {
				pr.gapSince = time.Now()
			}
		}
	}
	c.ctr.delivered.Add(uint64(len(deliver)))
	ticket := c.emitTicketLocked(len(deliver))
	c.mu.Unlock()
	c.emit(ticket, deliver)
	c.rxDeliver = deliver
}

// handleHeart processes a publisher's max-sequence advertisement.
func (c *Conn) handleHeart(from string, f heartFrame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pr := c.bPeers[from]
	if pr == nil || pr.epoch != f.epoch {
		// First contact via heartbeat: a late joiner. Expect only future
		// messages (P4: a new subscriber receives new publications, not
		// history).
		c.bPeers[from] = &bcastRecv{
			epoch:   f.epoch,
			next:    f.maxSeq + 1,
			maxSeen: f.maxSeq,
			pending: make(map[uint64][]byte),
		}
		return
	}
	if f.maxSeq > pr.maxSeen {
		pr.maxSeen = f.maxSeq
	}
	if !pr.syncing() && pr.next <= pr.maxSeen && pr.gapSince.IsZero() {
		// Tail loss: the heartbeat reveals messages we never saw.
		pr.gapSince = time.Now()
	}
}

func (c *Conn) handleUnicastData(from string, f *dataFrame) {
	deliver := c.rxDeliver[:0]
	acks := ackFrame{epoch: f.epoch}
	c.mu.Lock()
	ur := c.uPeers[from]
	if ur == nil || ur.epoch != f.epoch {
		ur = &ucastRecv{epoch: f.epoch, next: 1, pending: make(map[uint64][]byte)}
		c.uPeers[from] = ur
	}
	for _, m := range f.msgs {
		switch {
		case m.seq < ur.next:
			c.ctr.duplicates.Inc()
		case m.seq == ur.next:
			deliver = append(deliver, Message{From: from, Payload: m.payload})
			ur.next++
			for {
				p, ok := ur.pending[ur.next]
				if !ok {
					break
				}
				delete(ur.pending, ur.next)
				deliver = append(deliver, Message{From: from, Payload: p})
				ur.next++
			}
		default:
			if _, dup := ur.pending[m.seq]; !dup {
				ur.pending[m.seq] = m.payload
			} else {
				c.ctr.duplicates.Inc()
			}
		}
	}
	acks.cum = ur.next - 1
	c.ctr.delivered.Add(uint64(len(deliver)))
	c.ctr.acksSent.Inc()
	ticket := c.emitTicketLocked(len(deliver))
	c.mu.Unlock()
	_ = c.ep.Send(from, encodeAck(acks))
	c.emit(ticket, deliver)
	c.rxDeliver = deliver
}

func (c *Conn) handleNak(from string, f nakFrame) {
	c.mu.Lock()
	c.ctr.naksReceived.Inc()
	if f.epoch != c.epoch {
		c.mu.Unlock()
		return
	}
	var msgs []msg
	for seq := f.from; seq <= f.to; seq++ {
		if p := c.retained(seq); p != nil {
			msgs = append(msgs, msg{seq: seq, payload: *p})
		}
	}
	c.ctr.retransmits.Add(uint64(len(msgs)))
	if c.rec != nil && len(msgs) > 0 {
		c.rec.Record(telemetry.EventRetransmit, from, int64(len(msgs)), 0)
	}
	// Encode and send before unlocking: the payloads are pooled window
	// buffers that a concurrent Publish could evict (and recycle) the moment
	// mu is free, and the scratch sendBuf is likewise guarded by mu. The
	// transport copies (or writes) the frame before Send returns, so nothing
	// escapes the lock. Retransmission is unicast to the requester only;
	// other receivers either have the messages or will NAK on their own.
	if len(msgs) > 0 {
		c.sendBuf = appendData(c.sendBuf[:0], dataFrame{typ: frameData, epoch: c.epoch, msgs: msgs})
		_ = c.ep.Send(from, c.sendBuf)
	}
	c.mu.Unlock()
}

func (c *Conn) handleAck(from string, f ackFrame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.epoch != c.epoch {
		return
	}
	us := c.uSend[from]
	if us == nil {
		return
	}
	for seq, p := range us.unacked {
		if seq <= f.cum {
			bufpool.Put(p)
			delete(us.unacked, seq)
		}
	}
}

// emitTicketLocked reserves the caller's place in the emission order for n
// messages it is about to deliver; the caller holds c.mu and passes the
// ticket to emit after unlocking. Ticket 0 (nothing to deliver) needs no
// turn.
func (c *Conn) emitTicketLocked(n int) uint64 {
	if n == 0 {
		return 0
	}
	ticket := c.emitNext
	c.emitNext++
	return ticket
}

// emit hands messages to the application channel when ticket's turn comes,
// blocking if the consumer is slow (delivery order must be preserved).
// Delivered-byte accounting lives here because every delivery path funnels
// through emit.
func (c *Conn) emit(ticket uint64, msgs []Message) {
	if ticket == 0 {
		return
	}
	c.emitMu.Lock()
	for c.emitTurn != ticket && !c.stopped() {
		c.emitCond.Wait()
	}
	c.emitMu.Unlock()
	var bytes uint64
sending:
	for _, m := range msgs {
		select {
		case c.out <- m:
			bytes += uint64(len(m.Payload))
		case <-c.done:
			break sending
		}
	}
	if bytes > 0 {
		c.ctr.deliveredBytes.Add(bytes)
	}
	c.emitMu.Lock()
	c.emitTurn = ticket + 1
	c.emitCond.Broadcast()
	c.emitMu.Unlock()
}

// stopped reports whether Close has begun.
func (c *Conn) stopped() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// ---------------------------------------------------------------------------
// Housekeeping: batch flush, NAK scheduling, gap skipping, unicast
// retransmission.

func (c *Conn) housekeeping() {
	defer c.wg.Done()
	interval := c.cfg.NakInterval / 4
	if bd := c.cfg.BatchDelay / 2; c.cfg.Batching && bd < interval {
		interval = bd
	}
	if interval < 200*time.Microsecond {
		interval = 200 * time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case now := <-ticker.C:
			c.tick(now)
		}
	}
}

func (c *Conn) tick(now time.Time) {
	type nakOut struct {
		addr  string
		frame []byte
	}
	type retrOut struct {
		addr  string
		frame []byte
	}
	var naks []nakOut
	var retrs []retrOut
	var deliver []Message
	var heartbeat []byte

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	// Batch flush on delay expiry.
	if c.cfg.Batching && len(c.batch) > 0 && now.Sub(c.batchSince) >= c.cfg.BatchDelay {
		_ = c.flushBatchLocked()
	}
	// Heartbeat: an idle publisher re-advertises its max seq so receivers
	// can detect tail loss. Idleness is observed here — the broadcast
	// stream made no seq progress for a full HeartbeatInterval — instead
	// of the send path stamping a clock per broadcast.
	if c.sentSeq > 0 {
		if c.sentSeq != c.hbSeq {
			c.hbSeq = c.sentSeq
			c.hbAt = now
		} else if now.Sub(c.hbAt) >= c.cfg.HeartbeatInterval {
			c.hbAt = now
			heartbeat = encodeHeart(heartFrame{epoch: c.epoch, maxSeq: c.sentSeq})
		}
	}
	// Broadcast stream maintenance per sender.
	for addr, pr := range c.bPeers {
		// Complete the join-grace sync: adopt the smallest buffered seq as
		// the stream start and deliver in order from there.
		if pr.syncing() {
			if now.Before(pr.syncUntil) || len(pr.pending) == 0 {
				continue
			}
			pr.syncUntil = time.Time{}
			pr.next = minKey(pr.pending)
			for {
				p, ok := pr.pending[pr.next]
				if !ok {
					break
				}
				delete(pr.pending, pr.next)
				deliver = append(deliver, Message{From: addr, Payload: p})
				c.ctr.delivered.Inc()
				pr.next++
			}
			if len(pr.pending) > 0 || pr.next <= pr.maxSeen {
				pr.gapSince = now
			}
		}
		// A gap exists if buffered messages wait behind a hole, or a
		// heartbeat advertised messages we never received.
		if len(pr.pending) == 0 && pr.next > pr.maxSeen {
			pr.gapSince = time.Time{}
			continue
		}
		gapEnd := pr.maxSeen // last seq known to exist
		if len(pr.pending) > 0 {
			if mp := minKey(pr.pending); mp-1 < gapEnd {
				gapEnd = mp - 1
			}
		}
		if pr.gapSince.IsZero() {
			pr.gapSince = now
		}
		if now.Sub(pr.gapSince) >= c.cfg.GapTimeout {
			// Give up on the missing range: skip and deliver what we have
			// (the at-most-once escape hatch).
			target := pr.maxSeen + 1
			if len(pr.pending) > 0 {
				target = minKey(pr.pending)
			}
			c.ctr.skipped.Add(target - pr.next)
			if c.rec != nil {
				c.rec.Record(telemetry.EventDrop, addr, int64(target-pr.next), 0)
			}
			pr.next = target
			for {
				p, ok := pr.pending[pr.next]
				if !ok {
					break
				}
				delete(pr.pending, pr.next)
				deliver = append(deliver, Message{From: addr, Payload: p})
				c.ctr.delivered.Inc()
				pr.next++
			}
			if len(pr.pending) == 0 && pr.next > pr.maxSeen {
				pr.gapSince = time.Time{}
			} else {
				pr.gapSince = now
			}
			continue
		}
		if now.Sub(pr.lastNak) >= c.cfg.NakInterval && gapEnd >= pr.next {
			pr.lastNak = now
			c.ctr.naksSent.Inc()
			naks = append(naks, nakOut{
				addr:  addr,
				frame: encodeNak(nakFrame{epoch: pr.epoch, from: pr.next, to: gapEnd}),
			})
		}
	}
	// Unicast retransmission.
	for addr, us := range c.uSend {
		if len(us.unacked) == 0 {
			continue
		}
		if now.Sub(us.lastSend) < c.cfg.RetransmitInterval {
			continue
		}
		us.lastSend = now
		var msgs []msg
		for seq, p := range us.unacked {
			// *p is a pooled buffer; the frame is encoded below, still under
			// mu, before an ack could recycle it.
			msgs = append(msgs, msg{seq: seq, payload: *p})
		}
		sortMsgs(msgs)
		c.ctr.retransmits.Add(uint64(len(msgs)))
		if c.rec != nil {
			c.rec.Record(telemetry.EventRetransmit, addr, int64(len(msgs)), 0)
		}
		retrs = append(retrs, retrOut{
			addr:  addr,
			frame: encodeData(dataFrame{typ: frameUData, epoch: c.epoch, msgs: msgs}),
		})
	}
	ticket := c.emitTicketLocked(len(deliver))
	c.mu.Unlock()

	if heartbeat != nil {
		_ = c.ep.Broadcast(heartbeat)
	}
	for _, n := range naks {
		_ = c.ep.Send(n.addr, n.frame)
	}
	for _, r := range retrs {
		_ = c.ep.Send(r.addr, r.frame)
	}
	c.emit(ticket, deliver)
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
