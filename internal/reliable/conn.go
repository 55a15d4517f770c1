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
// broadcast and unicast — in per-sender FIFO order on its shards (Recv is
// shard 0, the only one New makes).
//
// The receive side has one owner: the goroutine running loop reads the
// endpoint, runs the timers and is the only sender on the shard channels,
// so a sender's messages reach the application in the order of the state
// transitions that made them deliverable, by construction.
type Conn struct {
	ep     transport.Endpoint
	cfg    Config
	epoch  uint64
	done   chan struct{}
	exited chan struct{} // closed when loop has returned
	ctr    counters
	rec    *telemetry.Recorder

	// mu guards what publishers share with the loop: the outbound streams
	// and the encode scratch. The loop takes it only where it touches those
	// (NAK replies, acks received, the timer's flush / heartbeat /
	// retransmission), never around a shard hand-off.
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
	// Heartbeat idle detection: the tick compares sentSeq against the value
	// it saw last time (hbSeq) instead of the send path stamping time.Now()
	// per broadcast — a clock read per send was ~14% of the router's
	// forwarding cost.
	hbSeq   uint64
	hbAt    time.Time
	sendBuf []byte // scratch for frame encoding under mu; transport copies on send
	oneMsg  [1]msg // scratch for unbatched single-message sends
	// Outbound unicast per destination.
	uSend  map[string]*ucastSend
	closed bool

	// Owned by loop, never touched under mu or by another goroutine: the
	// shard channels' sending side, inbound state per remote sender, the
	// decode scratch (payloads alias the datagram, never the scratch) and
	// the outbox — in-order messages no shard has taken yet, oldest at
	// outHead.
	outs    []chan Message
	bPeers  map[string]*bcastRecv
	uPeers  map[string]*ucastRecv
	rxFrame dataFrame
	outbox  []outMsg
	outHead int
}

// outMsg is one deliverable message and the shard it goes out on.
type outMsg struct {
	shard int
	m     Message
}

// shardBuffer is the capacity of each shard channel, the one queue between
// the loop and a consumer. Nothing is dropped when a shard is full: the
// loop stops reading datagrams (back-pressure on the transport, whose own
// bounded queue then applies its policy) and keeps ticking. Shards share
// the loop, so one full shard holds up the others.
const shardBuffer = 1024

// bcastRecv is inbound broadcast-stream state for one sender.
type bcastRecv struct {
	shard     int // fixed when the state is created; see shardOf
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
	shard   int
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
func New(ep transport.Endpoint, cfg Config) *Conn { return NewSharded(ep, cfg, 1) }

// NewSharded is New with n delivery shards (RecvShard): every message of
// one sender address, broadcast and unicast, comes out of the same shard,
// so n consumers can work in parallel without reordering any sender.
func NewSharded(ep transport.Endpoint, cfg Config, n int) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{
		ep:        ep,
		cfg:       cfg,
		epoch:     newEpoch(cfg.Seed),
		done:      make(chan struct{}),
		exited:    make(chan struct{}),
		ctr:       newCounters(cfg.Metrics, cfg.MetricsPrefix),
		rec:       cfg.Recorder,
		window:    make([]*[]byte, cfg.Window),
		windowMin: 1,
		uSend:     make(map[string]*ucastSend),
		outs:      make([]chan Message, n),
		bPeers:    make(map[string]*bcastRecv),
		uPeers:    make(map[string]*ucastRecv),
	}
	for i := range c.outs {
		c.outs[i] = make(chan Message, shardBuffer)
	}
	go c.loop()
	return c
}

// Addr returns the underlying endpoint's address.
func (c *Conn) Addr() string { return c.ep.Addr() }

// Recv returns the channel of reliably delivered messages (shard 0). It is
// closed when the connection closes.
func (c *Conn) Recv() <-chan Message { return c.outs[0] }

// RecvShard returns the channel of shard i of a NewSharded connection.
func (c *Conn) RecvShard(i int) <-chan Message { return c.outs[i] }

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
	_ = c.ep.Close()
	<-c.exited
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
// The loop: datagrams, timers and the hand-off to the shards.

// loop is the connection's one goroutine. Each turn it hands the shards
// what they take without waiting, then waits for the next event. While a
// shard refuses the outbox head no datagram is read, but the ticker case
// stays armed: batch flush, heartbeat, NAK, gap skip and unicast
// retransmission do not wait for a slow consumer, and what a tick makes
// deliverable queues behind the head.
func (c *Conn) loop() {
	defer func() {
		for _, ch := range c.outs {
			close(ch)
		}
		close(c.exited)
	}()
	interval := c.cfg.NakInterval / 4
	if bd := c.cfg.BatchDelay / 2; c.cfg.Batching && bd < interval {
		interval = bd
	}
	if interval < 200*time.Microsecond {
		interval = 200 * time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	datagrams := c.ep.Recv()
	for {
		in := datagrams
		var head Message
		var headCh chan Message
		if o := c.handOff(); o != nil {
			in, head, headCh = nil, o.m, c.outs[o.shard]
		}
		select {
		case <-c.done:
			return
		case dg, ok := <-in:
			if !ok {
				return
			}
			c.handleDatagram(dg)
		case now := <-ticker.C:
			c.tick(now)
		case headCh <- head:
			c.outHead++
		}
	}
}

// handOff sends the outbox to the shards, oldest first, until one would
// block; it returns that entry, or nil with the outbox rewound for reuse.
func (c *Conn) handOff() *outMsg {
	for ; c.outHead < len(c.outbox); c.outHead++ {
		o := &c.outbox[c.outHead]
		select {
		case c.outs[o.shard] <- o.m:
		default:
			return o
		}
	}
	c.outbox, c.outHead = c.outbox[:0], 0
	return nil
}

// deliver queues one in-order message for its shard. Every delivery path
// funnels through here, hence the accounting.
func (c *Conn) deliver(shard int, from string, payload []byte) {
	c.ctr.delivered.Inc()
	c.ctr.deliveredBytes.Add(uint64(len(payload)))
	c.outbox = append(c.outbox, outMsg{shard: shard, m: Message{From: from, Payload: payload}})
}

// deliverPending delivers the buffered messages that follow next without
// a hole and returns the first sequence number still missing.
func (c *Conn) deliverPending(shard int, from string, pending map[uint64][]byte, next uint64) uint64 {
	for {
		p, ok := pending[next]
		if !ok {
			return next
		}
		delete(pending, next)
		c.deliver(shard, from, p)
		next++
	}
}

// shardOf picks the shard for a sender address (FNV-1a). It is called once
// per stream, when the receive state is created, and is the same function
// for both kinds of stream: a sender's broadcasts and unicasts share a
// consumer.
func (c *Conn) shardOf(addr string) int {
	h := uint32(2166136261)
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint32(addr[i])) * 16777619
	}
	return int(h % uint32(len(c.outs)))
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
			shard:     c.shardOf(from),
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
			c.deliver(pr.shard, from, m.payload)
			pr.next = c.deliverPending(pr.shard, from, pr.pending, pr.next+1)
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
}

// handleHeart processes a publisher's max-sequence advertisement.
func (c *Conn) handleHeart(from string, f heartFrame) {
	pr := c.bPeers[from]
	if pr == nil || pr.epoch != f.epoch {
		// First contact via heartbeat: a late joiner. Expect only future
		// messages (P4: a new subscriber receives new publications, not
		// history).
		c.bPeers[from] = &bcastRecv{
			shard:   c.shardOf(from),
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
	ur := c.uPeers[from]
	if ur == nil || ur.epoch != f.epoch {
		ur = &ucastRecv{shard: c.shardOf(from), epoch: f.epoch, next: 1, pending: make(map[uint64][]byte)}
		c.uPeers[from] = ur
	}
	for _, m := range f.msgs {
		switch {
		case m.seq < ur.next:
			c.ctr.duplicates.Inc()
		case m.seq == ur.next:
			c.deliver(ur.shard, from, m.payload)
			ur.next = c.deliverPending(ur.shard, from, ur.pending, ur.next+1)
		default:
			if _, dup := ur.pending[m.seq]; !dup {
				ur.pending[m.seq] = m.payload
			} else {
				c.ctr.duplicates.Inc()
			}
		}
	}
	c.ctr.acksSent.Inc()
	_ = c.ep.Send(from, encodeAck(ackFrame{epoch: f.epoch, cum: ur.next - 1}))
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

// ---------------------------------------------------------------------------
// The timer: batch flush, heartbeat and unicast retransmission on the send
// side; join-grace release, NAK scheduling and gap skipping per sender.

func (c *Conn) tick(now time.Time) {
	c.tickSend(now)
	for addr, pr := range c.bPeers {
		c.tickPeer(now, addr, pr)
	}
}

// tickSend is the timer's share of the outbound streams. The frames are
// encoded and sent under mu, as Publish and the NAK reply do: the payloads
// are pooled buffers an ack or an eviction could recycle once mu is free.
func (c *Conn) tickSend(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
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
			_ = c.ep.Broadcast(encodeHeart(heartFrame{epoch: c.epoch, maxSeq: c.sentSeq}))
		}
	}
	// Unicast retransmission.
	for addr, us := range c.uSend {
		if len(us.unacked) == 0 || now.Sub(us.lastSend) < c.cfg.RetransmitInterval {
			continue
		}
		us.lastSend = now
		var msgs []msg
		for seq, p := range us.unacked {
			msgs = append(msgs, msg{seq: seq, payload: *p})
		}
		sortMsgs(msgs)
		c.ctr.retransmits.Add(uint64(len(msgs)))
		if c.rec != nil {
			c.rec.Record(telemetry.EventRetransmit, addr, int64(len(msgs)), 0)
		}
		c.sendBuf = appendData(c.sendBuf[:0], dataFrame{typ: frameUData, epoch: c.epoch, msgs: msgs})
		_ = c.ep.Send(addr, c.sendBuf)
	}
}

// tickPeer maintains one sender's broadcast stream.
func (c *Conn) tickPeer(now time.Time, addr string, pr *bcastRecv) {
	// Complete the join-grace sync: adopt the smallest buffered seq as
	// the stream start and deliver in order from there.
	if pr.syncing() {
		if now.Before(pr.syncUntil) || len(pr.pending) == 0 {
			return
		}
		pr.syncUntil = time.Time{}
		pr.next = c.deliverPending(pr.shard, addr, pr.pending, minKey(pr.pending))
		if len(pr.pending) > 0 || pr.next <= pr.maxSeen {
			pr.gapSince = now
		}
	}
	// A gap exists if buffered messages wait behind a hole, or a
	// heartbeat advertised messages we never received.
	if len(pr.pending) == 0 && pr.next > pr.maxSeen {
		pr.gapSince = time.Time{}
		return
	}
	gapEnd := pr.maxSeen // last seq known to exist and missing
	if len(pr.pending) > 0 {
		gapEnd = minKey(pr.pending) - 1 // every buffered seq is <= maxSeen
	}
	if pr.gapSince.IsZero() {
		pr.gapSince = now
	}
	if now.Sub(pr.gapSince) >= c.cfg.GapTimeout {
		// Give up on the missing range: skip and deliver what we have
		// (the at-most-once escape hatch).
		c.ctr.skipped.Add(gapEnd + 1 - pr.next)
		if c.rec != nil {
			c.rec.Record(telemetry.EventDrop, addr, int64(gapEnd+1-pr.next), 0)
		}
		pr.next = c.deliverPending(pr.shard, addr, pr.pending, gapEnd+1)
		if len(pr.pending) == 0 && pr.next > pr.maxSeen {
			pr.gapSince = time.Time{}
		} else {
			pr.gapSince = now
		}
		return
	}
	if now.Sub(pr.lastNak) >= c.cfg.NakInterval && gapEnd >= pr.next {
		pr.lastNak = now
		c.ctr.naksSent.Inc()
		_ = c.ep.Send(addr, encodeNak(nakFrame{epoch: pr.epoch, from: pr.next, to: gapEnd}))
	}
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
