package reliable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"infobus/internal/netsim"
	"infobus/internal/transport"
)

// The protocol suite runs on virtual time: machines over a manual simulated
// segment (world) or fed by hand (stub), pumped by the test's own
// goroutine from this instant. Nothing below sleeps, polls or starts a
// goroutine, and a wall-clock read inside machine.go would put its timers
// half a century away from every deadline here.
var virtualStart = time.Unix(1000, 0)

// world is a manual segment and the machines on it.
type world struct {
	t     *testing.T
	seg   *transport.SimSegment
	net   *netsim.Network
	hosts []*host
}

// host is one endpoint, the machine running on it and everything that
// machine has delivered so far.
type host struct {
	w      *world
	ep     transport.Endpoint
	m      *Machine
	cfg    Config
	boots  int
	got    []Message
	tickAt time.Time
	gone   bool // left the segment
}

func newWorld(t *testing.T, n int, netCfg netsim.Config, cfg Config) *world {
	t.Helper()
	seg := transport.NewManualSimSegment(netCfg, virtualStart)
	t.Cleanup(func() { _ = seg.Close() })
	w := &world{t: t, seg: seg, net: seg.Network()}
	for i := 0; i < n; i++ {
		w.join(cfg)
	}
	return w
}

// join attaches a new endpoint with a fresh machine.
func (w *world) join(cfg Config) *host {
	w.t.Helper()
	ep, err := w.seg.NewEndpoint(fmt.Sprintf("host%d", len(w.hosts)))
	if err != nil {
		w.t.Fatal(err)
	}
	h := &host{w: w, ep: ep, cfg: cfg}
	w.hosts = append(w.hosts, h)
	h.boot()
	return h
}

// boot starts a machine on the host's endpoint: the first, or after a crash
// the next incarnation at the same address. The seed is the address and the
// incarnation, so epochs — like everything else in a run — repeat.
func (h *host) boot() {
	id, _ := netsim.ParseAddr(h.addr())
	h.boots++
	h.cfg.Seed = uint64(id)<<16 + uint64(h.boots)
	h.m = NewMachine(h.ep, h.cfg, 1, h.w.net.Now)
	h.tickAt = h.w.net.Now().Add(h.m.TickInterval())
}

// leave closes the machine and detaches the endpoint.
func (h *host) leave() {
	h.m.Close()
	_ = h.ep.Close()
	h.gone = true
}

func (h *host) addr() string { return h.ep.Addr() }

// pump feeds the machine what has arrived by now, ticks it if its tick is
// due and collects what it delivered.
func (h *host) pump(now time.Time) {
	if h.gone {
		return
	}
	for more := true; more; {
		select {
		case dg := <-h.ep.Recv():
			h.m.OnDatagram(dg.From, dg.Payload)
		default:
			more = false
		}
	}
	if !now.Before(h.tickAt) {
		h.m.Tick(now)
		h.tickAt = now.Add(h.m.TickInterval())
	}
	for d := h.m.Next(); d != nil; d = h.m.Next() {
		h.got = append(h.got, d.Message)
		h.m.Pop()
	}
}

// run lets d of virtual time pass: every arrival and every tick in it
// happens at its own instant, hosts taking turns in index order.
func (w *world) run(d time.Duration) {
	end := w.net.Now().Add(d)
	for {
		next := end
		if at, ok := w.net.NextEvent(); ok && at.Before(next) {
			next = at
		}
		for _, h := range w.hosts {
			if !h.gone && h.tickAt.Before(next) {
				next = h.tickAt
			}
		}
		w.net.AdvanceTo(next)
		for _, h := range w.hosts {
			h.pump(next)
		}
		if !next.Before(end) {
			return
		}
	}
}

// until runs in steps of one millisecond until cond holds, and fails the
// test if limit of virtual time passes first.
func (w *world) until(limit time.Duration, what string, cond func() bool) {
	w.t.Helper()
	for deadline := w.net.Now().Add(limit); !cond(); w.run(time.Millisecond) {
		if !w.net.Now().Before(deadline) {
			w.t.Fatalf("%s: not within %v of virtual time", what, limit)
		}
	}
}

// received reports whether h has delivered n messages.
func (h *host) received(n int) func() bool { return func() bool { return len(h.got) >= n } }

func (h *host) publish(format string, args ...any) {
	h.w.t.Helper()
	if err := h.m.Publish([]byte(fmt.Sprintf(format, args...))); err != nil {
		h.w.t.Fatal(err)
	}
}

// wantSequence checks that got is exactly format applied to 0..n-1.
func wantSequence(t *testing.T, got []Message, from, format string, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%d messages delivered, want %d", len(got), n)
	}
	for i, m := range got {
		if want := fmt.Sprintf(format, i); string(m.Payload) != want || m.From != from {
			t.Fatalf("message %d = %q from %s, want %q from %s", i, m.Payload, m.From, want, from)
		}
	}
}

func TestPublishDeliversInOrder(t *testing.T) {
	w := newWorld(t, 3, netsim.DefaultConfig(), Config{})
	pub := w.hosts[0]
	const n = 50
	for i := 0; i < n; i++ {
		pub.publish("m%03d", i)
	}
	for _, sub := range w.hosts[1:] {
		w.until(time.Second, "delivery", sub.received(n))
		wantSequence(t, sub.got, pub.addr(), "m%03d", n)
	}
}

func TestLossRecoveryViaNak(t *testing.T) {
	netCfg := netsim.DefaultConfig()
	netCfg.LossProb = 0.25
	netCfg.Seed = 99
	w := newWorld(t, 2, netCfg, Config{})
	pub, sub := w.hosts[0], w.hosts[1]
	// The subscriber meets the publisher first, by this message or by the
	// heartbeat after it: the lost head of a stream nobody knew is not a gap.
	pub.publish("hello")
	w.run(100 * time.Millisecond)
	sub.got = nil
	const n = 200
	for i := 0; i < n; i++ {
		pub.publish("m%04d", i)
	}
	w.until(5*time.Second, "recovery", sub.received(n))
	wantSequence(t, sub.got, pub.addr(), "m%04d", n)
	st := sub.m.Stats()
	if st.NaksSent == 0 {
		t.Error("expected NAKs under 25% loss")
	}
	if st.Skipped != 0 {
		t.Errorf("no message should be skipped, got %d", st.Skipped)
	}
	if ps := pub.m.Stats(); ps.Retransmits == 0 {
		t.Error("publisher should have retransmitted")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	netCfg := netsim.DefaultConfig()
	netCfg.DupProb = 0.5
	w := newWorld(t, 2, netCfg, Config{})
	pub, sub := w.hosts[0], w.hosts[1]
	const n = 100
	for i := 0; i < n; i++ {
		pub.publish("%d", i)
	}
	w.until(time.Second, "delivery", sub.received(n))
	w.run(time.Second) // no extra deliveries arrive afterwards
	wantSequence(t, sub.got, pub.addr(), "%d", n)
	if sub.m.Stats().Duplicates == 0 {
		t.Error("expected suppressed duplicates in stats")
	}
}

func TestReorderingRepaired(t *testing.T) {
	netCfg := netsim.DefaultConfig()
	netCfg.ReorderProb = 0.3
	w := newWorld(t, 2, netCfg, Config{})
	pub, sub := w.hosts[0], w.hosts[1]
	const n = 150
	for i := 0; i < n; i++ {
		pub.publish("%04d", i)
	}
	w.until(time.Second, "delivery", sub.received(n))
	wantSequence(t, sub.got, pub.addr(), "%04d", n)
	if w.net.Stats().Reordered == 0 {
		t.Error("the network reordered nothing")
	}
}

func TestGapSkipAfterTimeout(t *testing.T) {
	// A message whose every copy is lost and that has left the publisher's
	// window is eventually skipped: at-most-once, but progress resumes.
	w := newWorld(t, 2, netsim.DefaultConfig(), Config{Window: 4}) // tiny window: lost messages leave it quickly
	pub, sub := w.hosts[0], w.hosts[1]
	pub.publish("first") // establishes the stream
	w.until(time.Second, "first delivery", sub.received(1))
	// Lose everything while a burst overflows the window.
	id, _ := netsim.ParseAddr(sub.addr())
	w.net.Partition(id)
	for i := 0; i < 10; i++ {
		pub.publish("lost%d", i)
	}
	w.run(20 * time.Millisecond)
	w.net.Heal()
	healed := w.net.Now()
	pub.publish("after")
	// "after" arrives at once and waits behind the hole; the receiver asks
	// for lost0..lost9, gets the three the window of four still holds beside
	// "after", and skips the seven that are gone once GapTimeout has passed.
	w.until(2*time.Second, "delivery past the hole", sub.received(5))
	if waited := w.net.Now().Sub(healed); waited < 500*time.Millisecond {
		t.Errorf("skipped after %v, before GapTimeout", waited)
	}
	var got []string
	for _, m := range sub.got {
		got = append(got, string(m.Payload))
	}
	if want := "[first lost7 lost8 lost9 after]"; fmt.Sprint(got) != want {
		t.Errorf("delivered %v, want %s", got, want)
	}
	if skipped := sub.m.Stats().Skipped; skipped != 7 {
		t.Errorf("skipped = %d, want 7", skipped)
	}
}

func TestSenderRestartEpochReset(t *testing.T) {
	w := newWorld(t, 2, netsim.DefaultConfig(), Config{})
	pub, sub := w.hosts[0], w.hosts[1]
	pub.publish("one")
	pub.publish("two")
	pub.publish("before-crash")
	w.until(time.Second, "delivery", sub.received(3))
	// The publisher crashes and restarts at the same address: new epoch,
	// sequence numbers start over. Its seq 1 is not a duplicate.
	old := pub.m.epoch
	pub.boot()
	if pub.m.epoch == old {
		t.Fatal("restart kept the epoch")
	}
	pub.publish("after-restart")
	w.until(time.Second, "delivery after restart", sub.received(4))
	if got := string(sub.got[3].Payload); got != "after-restart" {
		t.Fatalf("got %q", got)
	}
	if d := sub.m.Stats().Duplicates; d != 0 {
		t.Errorf("%d messages of the new incarnation taken for duplicates", d)
	}
}

func TestBatchingGathersMessages(t *testing.T) {
	const delay = 5 * time.Millisecond
	w := newWorld(t, 2, netsim.DefaultConfig(), Config{Batching: true, BatchDelay: delay})
	pub, sub := w.hosts[0], w.hosts[1]
	const n = 20
	for i := 0; i < n; i++ {
		pub.publish("x")
	}
	w.until(delay, "the batch leaving", func() bool { return w.net.Stats().Sent > 0 })
	if waited := w.net.Now().Sub(virtualStart); waited < delay {
		t.Errorf("batch left after %v, gathered for less than BatchDelay", waited)
	}
	// 20 tiny messages ride in one datagram.
	if sent := w.net.Stats().Sent; sent != 1 {
		t.Errorf("batching sent %d datagrams for %d messages", sent, n)
	}
	w.until(time.Second, "delivery", sub.received(n))
	if st := pub.m.Stats(); st.BatchesFlushed != 1 {
		t.Errorf("%d batches flushed, want 1", st.BatchesFlushed)
	}
}

func TestBatchFlushOnSizeAndExplicit(t *testing.T) {
	// BatchDelay an hour: only size or an explicit flush can trigger.
	w := newWorld(t, 2, netsim.DefaultConfig(), Config{Batching: true, BatchDelay: time.Hour})
	pub, sub := w.hosts[0], w.hosts[1]
	// Size-based flush: the fourth 8 KB message reaches 32 KB.
	for i := 0; i < 3; i++ {
		if err := pub.m.Publish(make([]byte, 8<<10)); err != nil {
			t.Fatal(err)
		}
	}
	w.run(time.Second)
	if len(sub.got) != 0 || w.net.Stats().Sent != 0 {
		t.Fatalf("24 KB left the batch: %d delivered", len(sub.got))
	}
	if err := pub.m.Publish(make([]byte, 8<<10)); err != nil {
		t.Fatal(err)
	}
	w.until(time.Second, "size flush", sub.received(4))
	// Explicit flush.
	pub.publish("tail")
	if err := pub.m.Flush(); err != nil {
		t.Fatal(err)
	}
	w.until(time.Second, "explicit flush", sub.received(5))
	if got := string(sub.got[4].Payload); got != "tail" {
		t.Errorf("flushed message = %q", got)
	}
}

func TestUnicastReliable(t *testing.T) {
	netCfg := netsim.DefaultConfig()
	netCfg.LossProb = 0.3
	netCfg.Seed = 5
	w := newWorld(t, 2, netCfg, Config{})
	a, b := w.hosts[0], w.hosts[1]
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.m.SendTo(b.addr(), []byte(fmt.Sprintf("u%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.until(5*time.Second, "delivery", b.received(n))
	wantSequence(t, b.got, a.addr(), "u%03d", n)
	// Eventually every message is acked and the unacked set drains.
	w.until(5*time.Second, "acknowledgement", func() bool { return len(a.m.uSend[b.addr()].unacked) == 0 })
	if a.m.Stats().Retransmits == 0 || b.m.Stats().AcksSent == 0 {
		t.Errorf("no retransmission or no ack under 30%% loss: %+v %+v", a.m.Stats(), b.m.Stats())
	}
}

func TestUnicastBackpressure(t *testing.T) {
	w := newWorld(t, 2, netsim.DefaultConfig(), Config{Window: 4})
	a, b := w.hosts[0], w.hosts[1]
	// The receiver is partitioned so nothing is ever acked.
	id, _ := netsim.ParseAddr(b.addr())
	w.net.Partition(id)
	for i := 0; i < 10; i++ {
		err := a.m.SendTo(b.addr(), []byte("x"))
		if want := i >= 4; errors.Is(err, ErrBackpressure) != want {
			t.Errorf("send %d: error = %v, back-pressure wanted: %v", i, err, want)
		}
		w.run(time.Millisecond)
	}
}

func TestInterleavedSendersIndependentFIFO(t *testing.T) {
	w := newWorld(t, 3, netsim.DefaultConfig(), Config{})
	p1, p2, sub := w.hosts[0], w.hosts[1], w.hosts[2]
	const n = 30
	for i := 0; i < n; i++ {
		p1.publish("a%03d", i)
		p2.publish("b%03d", i)
	}
	w.until(time.Second, "delivery", sub.received(2*n))
	bySender := map[string][]Message{}
	for _, m := range sub.got {
		bySender[m.From] = append(bySender[m.From], m)
	}
	wantSequence(t, bySender[p1.addr()], p1.addr(), "a%03d", n)
	wantSequence(t, bySender[p2.addr()], p2.addr(), "b%03d", n)
}

func TestFrameDecodeRobustness(t *testing.T) {
	good := encodeData(dataFrame{typ: frameData, epoch: 7, msgs: []msg{{seq: 1, payload: []byte("x")}}})
	for i := 0; i < len(good); i++ {
		if _, err := decodeFrame(good[:i]); err == nil {
			t.Errorf("truncated frame of %d bytes decoded", i)
		}
	}
	if _, err := decodeFrame([]byte{99, 1, 2}); !errors.Is(err, ErrFrameType) {
		t.Errorf("unknown type error = %v", err)
	}
	if _, err := decodeFrame(append(good, 0xEE)); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("trailing bytes error = %v", err)
	}
	// NAK round trip.
	f, err := decodeFrame(encodeNak(nakFrame{epoch: 3, from: 10, to: 12}))
	if err != nil || f.typ != frameNak || f.nak.from != 10 || f.nak.to != 12 || f.nak.epoch != 3 {
		t.Errorf("nak round trip = %+v, %v", f.nak, err)
	}
	// ACK round trip.
	f, err = decodeFrame(encodeAck(ackFrame{epoch: 9, cum: 42}))
	if err != nil || f.typ != frameUAck || f.ack.cum != 42 || f.ack.epoch != 9 {
		t.Errorf("ack round trip = %+v, %v", f.ack, err)
	}
	// Heartbeat round trip.
	f, err = decodeFrame(encodeHeart(heartFrame{epoch: 4, maxSeq: 77}))
	if err != nil || f.typ != frameHeart || f.heart.maxSeq != 77 || f.heart.epoch != 4 {
		t.Errorf("heartbeat round trip = %+v, %v", f.heart, err)
	}
}

// TestEpochSeeding covers the per-machine epoch source: reproducible for a
// fixed seed, distinct for distinct seeds, and never zero (zero would
// collide with "no epoch" in frames).
func TestEpochSeeding(t *testing.T) {
	if newEpoch(42, virtualStart) != newEpoch(42, virtualStart.Add(time.Hour)) {
		t.Error("same seed produced different epochs")
	}
	if newEpoch(1, virtualStart) == newEpoch(2, virtualStart) {
		t.Error("distinct seeds collided")
	}
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		if e := newEpoch(seed, virtualStart); e == 0 {
			t.Errorf("newEpoch(%d) = 0", seed)
		}
	}
	// Auto-seeded (Seed == 0) epochs must differ across machines created
	// within one clock tick — the salt counter disambiguates.
	if newEpoch(0, virtualStart) == newEpoch(0, virtualStart) {
		t.Error("auto-seeded epochs collided")
	}
}

// TestConfigSeedPlumbed checks that Config.Seed reaches the epoch, so tests
// can pin protocol runs.
func TestConfigSeedPlumbed(t *testing.T) {
	var b stub
	m1 := NewMachine(&b, Config{Seed: 7}, 1, b.now)
	m2 := NewMachine(&b, Config{Seed: 7}, 1, b.now)
	if m1.epoch != m2.epoch {
		t.Error("equal seeds must give equal epochs")
	}
	if m1.epoch != newEpoch(7, virtualStart) {
		t.Error("Config.Seed not plumbed through to newEpoch")
	}
}

// stub is a machine's surroundings held by hand: a clock the test moves
// and a wire that keeps what the machine sent, decoded.
type stub struct {
	elapsed time.Duration
	sent    []sentFrame
}

type sentFrame struct {
	to string // "" for a broadcast
	frame
}

func (b *stub) now() time.Time { return virtualStart.Add(b.elapsed) }

func (b *stub) Send(to string, data []byte) error {
	f, err := decodeFrame(append([]byte(nil), data...))
	if err != nil {
		return err
	}
	b.sent = append(b.sent, sentFrame{to, f})
	return nil
}

func (b *stub) Broadcast(data []byte) error { return b.Send("", data) }

// tickThrough moves the clock d ahead in steps of the machine's own tick.
func (b *stub) tickThrough(m *Machine, d time.Duration) {
	for end := b.elapsed + d; b.elapsed < end; {
		b.elapsed += m.TickInterval()
		m.Tick(b.now())
	}
}

// take pops everything m has delivered.
func take(m *Machine) []Delivery {
	var out []Delivery
	for d := m.Next(); d != nil; d = m.Next() {
		out = append(out, *d)
		m.Pop()
	}
	return out
}

func encodeData(f dataFrame) []byte { return appendData(nil, f) }

// seqFrame is a one-message data frame whose payload is its own sequence
// number, so a receiver's output can be checked for order.
func seqFrame(typ byte, epoch, seq uint64) []byte {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, seq)
	return encodeData(dataFrame{typ: typ, epoch: epoch, msgs: []msg{{seq: seq, payload: payload}}})
}

// sendersOnShards returns n sender addresses that m delivers on n distinct
// shards, indexed by shard.
func sendersOnShards(t *testing.T, m *Machine, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i, found := 0, 0; found < n; i++ {
		if i == 10000 {
			t.Fatalf("no senders for %d distinct shards", n)
		}
		addr := fmt.Sprintf("stub:sender%d", i)
		if sh := m.shardOf(addr); sh < n && out[sh] == "" {
			out[sh] = addr
			found++
		}
	}
	return out
}

// TestJoinGraceReleaseKeepsOrder: a new sender's first messages are buffered
// for the join grace and released on a tick; datagrams that arrive after
// the release are deliverable at once. They come out after the whole
// released buffer — per-sender FIFO — however long the consumer leaves the
// release unread.
func TestJoinGraceReleaseKeepsOrder(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var b stub
			m := NewMachine(&b, Config{GapTimeout: time.Minute, HeartbeatInterval: time.Hour}, shards, b.now)
			const sender, epoch, buffered, late = "stub:sender", 77, 1500, 20
			for seq := uint64(1); seq <= buffered; seq++ {
				m.OnDatagram(sender, seqFrame(frameData, epoch, seq))
			}
			grace := m.cfg.NakInterval
			b.tickThrough(m, grace-m.TickInterval())
			if m.Next() != nil {
				t.Fatalf("delivered %v into a join grace of %v", b.elapsed, grace)
			}
			b.tickThrough(m, m.TickInterval())
			// The stream is synced now; nobody has read the release yet.
			for seq := uint64(buffered + 1); seq <= buffered+late; seq++ {
				m.OnDatagram(sender, seqFrame(frameData, epoch, seq))
			}
			got := take(m)
			if len(got) != buffered+late {
				t.Fatalf("%d delivered, want %d", len(got), buffered+late)
			}
			for i, d := range got {
				if seq := binary.BigEndian.Uint64(d.Message.Payload); seq != uint64(i+1) || d.Shard != m.shardOf(sender) {
					t.Fatalf("delivery %d carries sequence %d on shard %d: per-sender order broken", i+1, seq, d.Shard)
				}
			}
		})
	}
}

// TestShardedPerSenderOrder: on a 4-shard machine every message of one
// address — broadcast and unicast, the join-grace release and what follows
// a skipped gap included — comes out on that address's one shard in
// sequence order, and senders on different shards are all delivered.
func TestShardedPerSenderOrder(t *testing.T) {
	var b stub
	m := NewMachine(&b, Config{HeartbeatInterval: time.Hour}, 4, b.now)
	const bcasts, ucasts, gapFrom, gapTo = 60, 30, 21, 23
	frameOf := func(typ byte, seq uint64) []byte { // payload: stream kind, then the sequence number
		payload := binary.BigEndian.AppendUint64([]byte{typ}, seq)
		return encodeData(dataFrame{typ: typ, epoch: 3, msgs: []msg{{seq: seq, payload: payload}}})
	}
	senders := sendersOnShards(t, m, 4)
	for seq := uint64(1); seq <= bcasts; seq++ {
		for _, addr := range senders {
			if seq < gapFrom || seq > gapTo { // lost for good: skipped after GapTimeout
				m.OnDatagram(addr, frameOf(frameData, seq))
			}
			if seq <= ucasts {
				m.OnDatagram(addr, frameOf(frameUData, (seq-1)^1+1)) // pairwise swapped: 2, 1, 4, 3, ...
			}
		}
		b.tickThrough(m, time.Millisecond)
	}
	b.tickThrough(m, m.cfg.GapTimeout)
	byShard := make([][]Message, 4)
	for _, d := range take(m) {
		byShard[d.Shard] = append(byShard[d.Shard], d.Message)
	}
	for sh, addr := range senders {
		if got, want := len(byShard[sh]), bcasts-(gapTo-gapFrom+1)+ucasts; got != want {
			t.Fatalf("shard %d delivered %d messages, want %d", sh, got, want)
		}
		next := map[byte]uint64{frameData: 1, frameUData: 1}
		for _, msg := range byShard[sh] {
			if msg.From != addr {
				t.Fatalf("shard %d delivered a message of %s, want only %s", sh, msg.From, addr)
			}
			kind, seq := msg.Payload[0], binary.BigEndian.Uint64(msg.Payload[1:])
			if kind == frameData && next[kind] == gapFrom {
				next[kind] = gapTo + 1
			}
			if seq != next[kind] {
				t.Fatalf("%s: stream %d delivered sequence %d, want %d", addr, kind, seq, next[kind])
			}
			next[kind]++
		}
	}
	if got := m.Stats().Skipped; got != 4*(gapTo-gapFrom+1) {
		t.Errorf("skipped = %d, want %d", got, 4*(gapTo-gapFrom+1))
	}
	// Every unicast frame was acknowledged to its sender, cumulatively.
	acks := map[string]uint64{}
	for _, f := range b.sent {
		if f.typ == frameUAck {
			acks[f.to] = f.ack.cum
		}
	}
	for _, addr := range senders {
		if acks[addr] != ucasts {
			t.Errorf("%s: last ack covers %d, want %d", addr, acks[addr], ucasts)
		}
	}
}

// TestReceivePathAllocs: decoding a data datagram and delivering its messages
// uses the machine's own scratch.
func TestReceivePathAllocs(t *testing.T) {
	var b stub
	m := NewMachine(&b, Config{HeartbeatInterval: time.Hour}, 1, b.now)
	payload := make([]byte, 64)
	frames := make([][]byte, 300)
	for i := range frames {
		frames[i] = encodeData(dataFrame{typ: frameData, epoch: 5, msgs: []msg{{seq: uint64(i + 1), payload: payload}}})
	}
	next := 0
	deliver := func() {
		m.OnDatagram("stub:sender", frames[next])
		next++
		if m.Next() == nil {
			t.Fatal("not delivered")
		}
		m.Pop()
		m.Next() // the consumer finds the outbox empty, which rewinds it
	}
	m.OnDatagram("stub:sender", frames[next]) // the join grace, the peer state
	next++
	b.tickThrough(m, m.cfg.NakInterval)
	if len(take(m)) != 1 {
		t.Fatal("first message not released")
	}
	if got := testing.AllocsPerRun(200, deliver); got > 0 {
		t.Fatalf("receiving a datagram allocates %.1f times, want 0", got)
	}
}

// TestNakRangeClamped: a NAK is served from the window and from nothing
// else, whatever range it names — a crafted one must not walk 2^64 numbers.
func TestNakRangeClamped(t *testing.T) {
	var b stub
	m := NewMachine(&b, Config{Window: 4, Seed: 1}, 1, b.now)
	for i := 0; i < 6; i++ {
		if err := m.Publish([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b.sent = nil
	m.OnDatagram("stub:peer", encodeNak(nakFrame{epoch: m.epoch, from: 0, to: ^uint64(0)}))
	if len(b.sent) != 1 || b.sent[0].to != "stub:peer" || len(b.sent[0].data.msgs) != 4 {
		t.Fatalf("reply = %+v", b.sent)
	}
	for i, got := range b.sent[0].data.msgs {
		if got.seq != uint64(i+3) { // 1 and 2 have left the window of 4
			t.Errorf("retransmitted seq %d at %d, want %d", got.seq, i, i+3)
		}
	}
	if st := m.Stats(); st.Retransmits != 4 || st.NaksReceived != 1 {
		t.Errorf("stats = %+v", st)
	}
}
