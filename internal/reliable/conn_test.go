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

// rig is a test harness: one simulated segment plus n reliable conns.
type rig struct {
	seg   *transport.SimSegment
	conns []*Conn
}

func newRig(t *testing.T, n int, netCfg netsim.Config, connCfg Config) *rig {
	t.Helper()
	seg := transport.NewSimSegment(netCfg)
	r := &rig{seg: seg}
	for i := 0; i < n; i++ {
		ep, err := seg.NewEndpoint(fmt.Sprintf("host%d", i))
		if err != nil {
			t.Fatal(err)
		}
		r.conns = append(r.conns, New(ep, connCfg))
	}
	t.Cleanup(func() {
		for _, c := range r.conns {
			_ = c.Close()
		}
		_ = seg.Close()
	})
	return r
}

func fastNet() netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.Speedup = 5000
	return cfg
}

// fastProto shrinks protocol timers so lossy tests converge quickly.
func fastProto() Config {
	return Config{
		NakInterval:        2 * time.Millisecond,
		GapTimeout:         300 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  5 * time.Millisecond,
	}
}

func collect(t *testing.T, c *Conn, n int, within time.Duration) []Message {
	t.Helper()
	var out []Message
	deadline := time.After(within)
	for len(out) < n {
		select {
		case m, ok := <-c.Recv():
			if !ok {
				t.Fatalf("recv closed after %d of %d messages", len(out), n)
			}
			out = append(out, m)
		case <-deadline:
			t.Fatalf("timed out with %d of %d messages", len(out), n)
		}
	}
	return out
}

func TestPublishDeliversInOrder(t *testing.T) {
	r := newRig(t, 3, fastNet(), fastProto())
	pub, sub1, sub2 := r.conns[0], r.conns[1], r.conns[2]
	const n = 50
	for i := 0; i < n; i++ {
		if err := pub.Publish([]byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, sub := range []*Conn{sub1, sub2} {
		msgs := collect(t, sub, n, 5*time.Second)
		for i, m := range msgs {
			if want := fmt.Sprintf("m%03d", i); string(m.Payload) != want {
				t.Fatalf("message %d = %q, want %q", i, m.Payload, want)
			}
			if m.From != pub.Addr() {
				t.Fatalf("message from %q, want %q", m.From, pub.Addr())
			}
		}
	}
}

func TestLossRecoveryViaNak(t *testing.T) {
	netCfg := fastNet()
	netCfg.LossProb = 0.25
	netCfg.Seed = 99
	r := newRig(t, 2, netCfg, fastProto())
	pub, sub := r.conns[0], r.conns[1]
	const n = 200
	for i := 0; i < n; i++ {
		if err := pub.Publish([]byte(fmt.Sprintf("m%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	msgs := collect(t, sub, n, 20*time.Second)
	for i, m := range msgs {
		if want := fmt.Sprintf("m%04d", i); string(m.Payload) != want {
			t.Fatalf("message %d = %q, want %q (order broken under loss)", i, m.Payload, want)
		}
	}
	st := sub.Stats()
	if st.NaksSent == 0 {
		t.Error("expected NAKs under 25% loss")
	}
	if st.Skipped != 0 {
		t.Errorf("no message should be skipped, got %d", st.Skipped)
	}
	if ps := pub.Stats(); ps.Retransmits == 0 {
		t.Error("publisher should have retransmitted")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	netCfg := fastNet()
	netCfg.DupProb = 0.5
	r := newRig(t, 2, netCfg, fastProto())
	pub, sub := r.conns[0], r.conns[1]
	const n = 100
	for i := 0; i < n; i++ {
		if err := pub.Publish([]byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	msgs := collect(t, sub, n, 10*time.Second)
	seen := map[string]bool{}
	for _, m := range msgs {
		if seen[string(m.Payload)] {
			t.Fatalf("duplicate delivered: %q", m.Payload)
		}
		seen[string(m.Payload)] = true
	}
	// No extra deliveries arrive afterwards.
	select {
	case m := <-sub.Recv():
		t.Fatalf("extra delivery: %q", m.Payload)
	case <-time.After(50 * time.Millisecond):
	}
	if sub.Stats().Duplicates == 0 {
		t.Error("expected suppressed duplicates in stats")
	}
}

func TestReorderingRepaired(t *testing.T) {
	netCfg := fastNet()
	netCfg.ReorderProb = 0.3
	r := newRig(t, 2, netCfg, fastProto())
	pub, sub := r.conns[0], r.conns[1]
	const n = 150
	for i := 0; i < n; i++ {
		if err := pub.Publish([]byte(fmt.Sprintf("%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	msgs := collect(t, sub, n, 10*time.Second)
	for i, m := range msgs {
		if want := fmt.Sprintf("%04d", i); string(m.Payload) != want {
			t.Fatalf("message %d = %q, want %q", i, m.Payload, want)
		}
	}
}

func TestGapSkipAfterTimeout(t *testing.T) {
	// A message whose every copy is lost and that has left the publisher's
	// window is eventually skipped: at-most-once, but progress resumes.
	netCfg := fastNet()
	r := newRig(t, 2, netCfg, Config{
		Window:             4, // tiny window: lost messages leave it quickly
		NakInterval:        2 * time.Millisecond,
		GapTimeout:         50 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
	})
	pub, sub := r.conns[0], r.conns[1]

	// Deliver one message normally to establish the stream.
	if err := pub.Publish([]byte("first")); err != nil {
		t.Fatal(err)
	}
	first := collect(t, sub, 1, 5*time.Second)
	if string(first[0].Payload) != "first" {
		t.Fatalf("first = %q", first[0].Payload)
	}
	// Lose everything while we publish a burst that overflows the window.
	r.seg.Network().Partition(simID(t, sub.Addr()))
	for i := 0; i < 10; i++ {
		if err := pub.Publish([]byte(fmt.Sprintf("lost%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	r.seg.Network().Heal()
	if err := pub.Publish([]byte("after")); err != nil {
		t.Fatal(err)
	}
	// The receiver must eventually deliver "after" despite the permanent
	// hole (skipping the lost messages).
	deadline := time.After(10 * time.Second)
	for {
		select {
		case m := <-sub.Recv():
			if string(m.Payload) == "after" {
				if sub.Stats().Skipped == 0 {
					t.Error("expected skipped messages in stats")
				}
				return
			}
		case <-deadline:
			t.Fatalf("'after' never delivered; stats=%+v", sub.Stats())
		}
	}
}

func TestSenderRestartEpochReset(t *testing.T) {
	seg := transport.NewSimSegment(fastNet())
	defer seg.Close()
	subEp, _ := seg.NewEndpoint("sub")
	sub := New(subEp, fastProto())
	defer sub.Close()

	pubEp1, _ := seg.NewEndpoint("pub")
	pub1 := New(pubEp1, fastProto())
	if err := pub1.Publish([]byte("before-crash")); err != nil {
		t.Fatal(err)
	}
	msgs := collect(t, sub, 1, 5*time.Second)
	if string(msgs[0].Payload) != "before-crash" {
		t.Fatalf("got %q", msgs[0].Payload)
	}
	_ = pub1.Close() // crash

	// Restarted publisher: new endpoint, new epoch, sequence numbers reset.
	pubEp2, _ := seg.NewEndpoint("pub")
	pub2 := New(pubEp2, fastProto())
	defer pub2.Close()
	if err := pub2.Publish([]byte("after-restart")); err != nil {
		t.Fatal(err)
	}
	msgs = collect(t, sub, 1, 5*time.Second)
	if string(msgs[0].Payload) != "after-restart" {
		t.Fatalf("got %q", msgs[0].Payload)
	}
}

func TestBatchingGathersMessages(t *testing.T) {
	cfg := fastProto()
	cfg.Batching = true
	cfg.BatchDelay = 5 * time.Millisecond
	r := newRig(t, 2, fastNet(), cfg)
	pub, sub := r.conns[0], r.conns[1]
	const n = 20
	for i := 0; i < n; i++ {
		if err := pub.Publish([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, sub, n, 5*time.Second)
	st := pub.Stats()
	netStats := r.seg.Network().Stats()
	if st.BatchesFlushed == 0 {
		t.Error("no batches flushed")
	}
	// 20 tiny messages must ride in far fewer datagrams.
	if netStats.Sent >= n {
		t.Errorf("batching sent %d datagrams for %d messages", netStats.Sent, n)
	}
}

func TestBatchFlushOnSizeAndExplicit(t *testing.T) {
	cfg := fastProto()
	cfg.Batching = true
	cfg.BatchDelay = time.Hour // only size or explicit flush can trigger
	cfg.BatchMaxBytes = 100
	r := newRig(t, 2, fastNet(), cfg)
	pub, sub := r.conns[0], r.conns[1]
	// Size-based flush.
	for i := 0; i < 3; i++ {
		if err := pub.Publish(make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, sub, 3, 5*time.Second)
	// Explicit flush.
	if err := pub.Publish([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	msgs := collect(t, sub, 1, 5*time.Second)
	if string(msgs[0].Payload) != "tail" {
		t.Errorf("flushed message = %q", msgs[0].Payload)
	}
}

func TestUnicastReliable(t *testing.T) {
	netCfg := fastNet()
	netCfg.LossProb = 0.3
	netCfg.Seed = 5
	r := newRig(t, 2, netCfg, fastProto())
	a, b := r.conns[0], r.conns[1]
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.SendTo(b.Addr(), []byte(fmt.Sprintf("u%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	msgs := collect(t, b, n, 20*time.Second)
	for i, m := range msgs {
		if want := fmt.Sprintf("u%03d", i); string(m.Payload) != want {
			t.Fatalf("unicast %d = %q, want %q", i, m.Payload, want)
		}
	}
	// Eventually every message is acked and the unacked set drains.
	deadline := time.After(5 * time.Second)
	for {
		a.mu.Lock()
		pendingCount := len(a.uSend[b.Addr()].unacked)
		a.mu.Unlock()
		if pendingCount == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("unacked never drained: %d left", pendingCount)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestUnicastBackpressure(t *testing.T) {
	cfg := fastProto()
	cfg.Window = 4
	// Receiver is partitioned so nothing is ever acked.
	r := newRig(t, 2, fastNet(), cfg)
	a, b := r.conns[0], r.conns[1]
	r.seg.Network().Partition(simID(t, b.Addr()))
	var lastErr error
	for i := 0; i < 10; i++ {
		lastErr = a.SendTo(b.Addr(), []byte("x"))
	}
	if !errors.Is(lastErr, ErrBackpressure) {
		t.Errorf("error = %v, want ErrBackpressure", lastErr)
	}
}

func TestClosedConnErrors(t *testing.T) {
	r := newRig(t, 2, fastNet(), fastProto())
	c := r.conns[0]
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := c.Publish([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after close = %v", err)
	}
	if err := c.SendTo(r.conns[1].Addr(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("SendTo after close = %v", err)
	}
	if _, ok := <-c.Recv(); ok {
		t.Error("Recv channel should be closed")
	}
}

func TestInterleavedSendersIndependentFIFO(t *testing.T) {
	r := newRig(t, 3, fastNet(), fastProto())
	p1, p2, sub := r.conns[0], r.conns[1], r.conns[2]
	const n = 30
	for i := 0; i < n; i++ {
		if err := p1.Publish([]byte(fmt.Sprintf("a%03d", i))); err != nil {
			t.Fatal(err)
		}
		if err := p2.Publish([]byte(fmt.Sprintf("b%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	msgs := collect(t, sub, 2*n, 10*time.Second)
	var aSeq, bSeq int
	for _, m := range msgs {
		switch m.From {
		case p1.Addr():
			if want := fmt.Sprintf("a%03d", aSeq); string(m.Payload) != want {
				t.Fatalf("p1 stream: got %q want %q", m.Payload, want)
			}
			aSeq++
		case p2.Addr():
			if want := fmt.Sprintf("b%03d", bSeq); string(m.Payload) != want {
				t.Fatalf("p2 stream: got %q want %q", m.Payload, want)
			}
			bSeq++
		default:
			t.Fatalf("unknown sender %q", m.From)
		}
	}
	if aSeq != n || bSeq != n {
		t.Fatalf("per-sender counts: a=%d b=%d", aSeq, bSeq)
	}
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

func simID(t *testing.T, addr string) netsim.NodeID {
	t.Helper()
	var id int
	if _, err := fmt.Sscanf(addr, "sim:%d", &id); err != nil {
		t.Fatalf("bad sim addr %q", addr)
	}
	return netsim.NodeID(id)
}

// TestEpochSeeding covers the per-Conn epoch source: reproducible for a
// fixed seed, distinct for distinct seeds, and never zero (zero would
// collide with "no epoch" in frames).
func TestEpochSeeding(t *testing.T) {
	if newEpoch(42) != newEpoch(42) {
		t.Error("same seed produced different epochs")
	}
	if newEpoch(1) == newEpoch(2) {
		t.Error("distinct seeds collided")
	}
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		if e := newEpoch(seed); e == 0 {
			t.Errorf("newEpoch(%d) = 0", seed)
		}
	}
	// Auto-seeded (Seed == 0) epochs must differ across rapid successive
	// Conns — the salt counter disambiguates within one clock tick.
	if newEpoch(0) == newEpoch(0) {
		t.Error("auto-seeded epochs collided")
	}
}

// TestConfigSeedPlumbed checks that Config.Seed reaches the connection
// epoch, so tests can pin protocol runs.
func TestConfigSeedPlumbed(t *testing.T) {
	seg := transport.NewSimSegment(fastNet())
	t.Cleanup(func() { _ = seg.Close() })
	ep1, err := seg.NewEndpoint("s1")
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := seg.NewEndpoint("s2")
	if err != nil {
		t.Fatal(err)
	}
	c1 := New(ep1, Config{Seed: 7})
	defer c1.Close()
	c2 := New(ep2, Config{Seed: 7})
	defer c2.Close()
	if c1.epoch != c2.epoch {
		t.Error("equal seeds must give equal epochs")
	}
	if c1.epoch != newEpoch(7) {
		t.Error("Config.Seed not plumbed through to newEpoch")
	}
}

// stubEndpoint is a transport endpoint a test feeds by hand: whatever the
// Conn sends is discarded, what it receives is what inject queued.
type stubEndpoint struct {
	addr string
	in   chan transport.Datagram
}

func newStubEndpoint(addr string) *stubEndpoint {
	return &stubEndpoint{addr: addr, in: make(chan transport.Datagram, 4096)}
}

func (e *stubEndpoint) Addr() string                    { return e.addr }
func (e *stubEndpoint) Send(string, []byte) error       { return nil }
func (e *stubEndpoint) Broadcast([]byte) error          { return nil }
func (e *stubEndpoint) Recv() <-chan transport.Datagram { return e.in }
func (e *stubEndpoint) Close() error                    { return nil }

func (e *stubEndpoint) inject(from string, frame []byte) {
	e.in <- transport.Datagram{From: from, Payload: frame}
}

// TestJoinGraceReleaseKeepsOrder: a new sender's first messages are buffered
// for JoinGrace and released by the housekeeping goroutine, which blocks in
// the middle of the release when the consumer is slow; datagrams that arrive
// meanwhile are deliverable at once on the receive loop. They must still
// come out after the whole released buffer — per-sender FIFO — which they
// did not while both goroutines raced for the application channel.
func TestJoinGraceReleaseKeepsOrder(t *testing.T) {
	ep := newStubEndpoint("stub:recv")
	c := New(ep, Config{JoinGrace: 20 * time.Millisecond, NakInterval: 4 * time.Millisecond,
		GapTimeout: time.Minute, HeartbeatInterval: time.Hour})
	defer c.Close()
	const sender, epoch = "stub:sender", 77
	seqFrame := func(seq uint64) []byte {
		payload := make([]byte, 8)
		binary.BigEndian.PutUint64(payload, seq)
		return encodeData(dataFrame{typ: frameData, epoch: epoch, msgs: []msg{{seq: seq, payload: payload}}})
	}
	// More than the application channel holds, all inside the grace window.
	buffered := uint64(cap(c.out)) + 500
	for seq := uint64(1); seq <= buffered; seq++ {
		ep.inject(sender, seqFrame(seq))
	}
	// Nobody reads: the release fills the channel and blocks.
	deadline := time.Now().Add(5 * time.Second)
	for len(c.out) < cap(c.out) {
		if time.Now().After(deadline) {
			t.Fatalf("join-grace release never filled the channel (%d of %d)", len(c.out), cap(c.out))
		}
		time.Sleep(time.Millisecond)
	}
	// The stream is synced now, so these are in order and deliverable at once.
	const late = 20
	for seq := buffered + 1; seq <= buffered+late; seq++ {
		ep.inject(sender, seqFrame(seq))
	}
	time.Sleep(5 * time.Millisecond) // the receive loop reaches its emit and waits there
	for want := uint64(1); want <= buffered+late; want++ {
		select {
		case m := <-c.Recv():
			if got := binary.BigEndian.Uint64(m.Payload); got != want {
				t.Fatalf("delivery %d carries sequence %d: per-sender order broken", want, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for sequence %d", want)
		}
		if want%64 == 0 {
			time.Sleep(100 * time.Microsecond) // a slow consumer
		}
	}
}

// TestReceivePathAllocs: decoding a data datagram and delivering its messages
// uses the connection's own scratch.
func TestReceivePathAllocs(t *testing.T) {
	ep := newStubEndpoint("stub:recv")
	c := New(ep, Config{JoinGrace: time.Millisecond, NakInterval: time.Millisecond, HeartbeatInterval: time.Hour})
	defer c.Close()
	payload := make([]byte, 64)
	frames := make([][]byte, 300)
	for i := range frames {
		frames[i] = encodeData(dataFrame{typ: frameData, epoch: 5, msgs: []msg{{seq: uint64(i + 1), payload: payload}}})
	}
	next := 0
	deliver := func() {
		ep.inject("stub:sender", frames[next])
		next++
		<-c.Recv()
	}
	deliver() // the join grace, the peer state
	if got := testing.AllocsPerRun(200, deliver); got > 0 {
		t.Fatalf("receiving a datagram allocates %.1f times, want 0", got)
	}
}
