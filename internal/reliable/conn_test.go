package reliable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
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

// stubEndpoint is a transport endpoint a test feeds by hand: what the Conn
// receives is what inject queued, and what it sends is discarded — or, when
// sent is set, decoded and handed to the test.
type stubEndpoint struct {
	addr string
	in   chan transport.Datagram
	sent chan frame
}

func newStubEndpoint(addr string) *stubEndpoint {
	return &stubEndpoint{addr: addr, in: make(chan transport.Datagram, 4096)}
}

func (e *stubEndpoint) Addr() string                    { return e.addr }
func (e *stubEndpoint) Send(_ string, b []byte) error   { return e.Broadcast(b) }
func (e *stubEndpoint) Recv() <-chan transport.Datagram { return e.in }
func (e *stubEndpoint) Close() error                    { return nil }

func (e *stubEndpoint) Broadcast(b []byte) error {
	if e.sent != nil {
		if f, err := decodeFrame(append([]byte(nil), b...)); err == nil {
			e.sent <- f
		}
	}
	return nil
}

func (e *stubEndpoint) inject(from string, frame []byte) {
	e.in <- transport.Datagram{From: from, Payload: frame}
}

// awaitSent waits for the next frame of type typ the Conn sends.
func (e *stubEndpoint) awaitSent(t *testing.T, typ byte) frame {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case f := <-e.sent:
			if f.typ == typ {
				return f
			}
		case <-deadline:
			t.Fatalf("no frame of type %d sent", typ)
		}
	}
}

// seqFrame is a one-message data frame whose payload is its own sequence
// number, so a receiver's output can be checked for order.
func seqFrame(typ byte, epoch, seq uint64) []byte {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, seq)
	return encodeData(dataFrame{typ: typ, epoch: epoch, msgs: []msg{{seq: seq, payload: payload}}})
}

// sendersOnShards returns n sender addresses that c delivers on n distinct
// shards, indexed by shard.
func sendersOnShards(t *testing.T, c *Conn, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i, found := 0, 0; found < n; i++ {
		if i == 10000 {
			t.Fatalf("no senders for %d distinct shards", n)
		}
		addr := fmt.Sprintf("stub:sender%d", i)
		if sh := c.shardOf(addr); sh < n && out[sh] == "" {
			out[sh] = addr
			found++
		}
	}
	return out
}

// connGoroutines counts the live goroutines NewSharded started when the
// calling goroutine called it: other tests' connections, still winding
// down, do not count.
func connGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			stacks := string(buf[:n])
			self := strings.Fields(stacks)[1] // the caller's trace comes first: "goroutine 7 [running]:"
			return strings.Count(stacks, "created by infobus/internal/reliable.NewSharded in goroutine "+self+"\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestOneGoroutinePerConn: the connection is one event loop — New starts
// exactly one goroutine, Close returns when it has gone.
func TestOneGoroutinePerConn(t *testing.T) {
	c := New(newStubEndpoint("stub:one"), Config{})
	if got := connGoroutines(); got != 1 {
		t.Errorf("New started %d goroutines, want 1", got)
	}
	sharded := NewSharded(newStubEndpoint("stub:four"), Config{}, 4)
	if got := connGoroutines(); got != 2 {
		t.Errorf("New and NewSharded(4) started %d goroutines, want 2", got)
	}
	_, _ = c.Close(), sharded.Close()
	// Close has waited for the loops to close their shards; the last
	// instructions of a goroutine run after it says so.
	for deadline := time.Now().Add(5 * time.Second); connGoroutines() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after Close", connGoroutines())
		}
	}
	if _, ok := <-sharded.RecvShard(3); ok {
		t.Error("shard not closed by Close")
	}
}

// TestJoinGraceReleaseKeepsOrder: a new sender's first messages are buffered
// for JoinGrace and released on a tick, more of them than the shard holds, so
// the release stalls on a slow consumer; datagrams that arrive meanwhile are
// deliverable at once. They must still come out after the whole released
// buffer — per-sender FIFO — which they did not while a timer goroutine and
// the receive loop raced for the application channel.
func TestJoinGraceReleaseKeepsOrder(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ep := newStubEndpoint("stub:recv")
			c := NewSharded(ep, Config{JoinGrace: 20 * time.Millisecond, NakInterval: 4 * time.Millisecond,
				GapTimeout: time.Minute, HeartbeatInterval: time.Hour}, shards)
			defer c.Close()
			const sender, epoch = "stub:sender", 77
			out := c.outs[c.shardOf(sender)]
			// More than the application channel holds, all inside the grace window.
			buffered := uint64(cap(out)) + 500
			for seq := uint64(1); seq <= buffered; seq++ {
				ep.inject(sender, seqFrame(frameData, epoch, seq))
			}
			// Nobody reads: the release fills the channel and blocks.
			deadline := time.Now().Add(5 * time.Second)
			for len(out) < cap(out) {
				if time.Now().After(deadline) {
					t.Fatalf("join-grace release never filled the channel (%d of %d)", len(out), cap(out))
				}
				time.Sleep(time.Millisecond)
			}
			// The stream is synced now, so these are in order and deliverable at once.
			const late = 20
			for seq := buffered + 1; seq <= buffered+late; seq++ {
				ep.inject(sender, seqFrame(frameData, epoch, seq))
			}
			time.Sleep(5 * time.Millisecond) // the late datagrams wait behind the stalled release
			for want := uint64(1); want <= buffered+late; want++ {
				select {
				case m := <-out:
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
		})
	}
}

// TestTimersRunUnderStalledConsumer: with every shard full and nobody
// reading, the loop stops taking datagrams but not ticks — a batched Publish
// still reaches the wire and an idle publisher still heartbeats.
func TestTimersRunUnderStalledConsumer(t *testing.T) {
	ep := newStubEndpoint("stub:recv")
	c := NewSharded(ep, Config{Batching: true, BatchDelay: 2 * time.Millisecond, JoinGrace: time.Millisecond,
		NakInterval: 4 * time.Millisecond, GapTimeout: time.Minute, HeartbeatInterval: 10 * time.Millisecond}, 2)
	defer c.Close()
	senders := sendersOnShards(t, c, 2)
	// Sync both streams, then fill both shards alternately and leave a
	// message the loop cannot hand off.
	for sh, addr := range senders {
		ep.inject(addr, seqFrame(frameData, 9, 1))
		collectShard(t, c, sh, 1)
	}
	for seq := uint64(2); seq <= shardBuffer+2; seq++ {
		for _, addr := range senders {
			ep.inject(addr, seqFrame(frameData, 9, seq))
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(c.outs[0]) < shardBuffer || len(c.outs[1]) < shardBuffer {
		if time.Now().After(deadline) {
			t.Fatalf("shards never filled (%d, %d of %d)", len(c.outs[0]), len(c.outs[1]), shardBuffer)
		}
		time.Sleep(time.Millisecond)
	}
	ep.sent = make(chan frame, 16)
	if err := c.Publish([]byte("batched")); err != nil {
		t.Fatal(err)
	}
	if f := ep.awaitSent(t, frameData); len(f.data.msgs) != 1 || string(f.data.msgs[0].payload) != "batched" {
		t.Fatalf("flushed batch = %+v", f.data)
	}
	if f := ep.awaitSent(t, frameHeart); f.heart.maxSeq != 1 {
		t.Fatalf("heartbeat advertises seq %d, want 1", f.heart.maxSeq)
	}
}

// collectShard reads n messages from one shard.
func collectShard(t *testing.T, c *Conn, shard, n int) []Message {
	t.Helper()
	out := make([]Message, 0, n)
	for len(out) < n {
		select {
		case m := <-c.RecvShard(shard):
			out = append(out, m)
		case <-time.After(5 * time.Second):
			t.Fatalf("shard %d: timed out with %d of %d messages", shard, len(out), n)
		}
	}
	return out
}

// TestShardedPerSenderOrder: on a 4-shard connection every message of one
// address — broadcast and unicast, the join-grace release and what follows
// a skipped gap included — comes out of that address's one shard in
// sequence order, and senders on different shards are all delivered.
func TestShardedPerSenderOrder(t *testing.T) {
	ep := newStubEndpoint("stub:recv")
	c := NewSharded(ep, Config{JoinGrace: 5 * time.Millisecond, NakInterval: 2 * time.Millisecond,
		GapTimeout: 20 * time.Millisecond, HeartbeatInterval: time.Hour}, 4)
	defer c.Close()
	const bcasts, ucasts, gapFrom, gapTo = 60, 30, 21, 23
	frameOf := func(typ byte, seq uint64) []byte { // payload: stream kind, then the sequence number
		payload := binary.BigEndian.AppendUint64([]byte{typ}, seq)
		return encodeData(dataFrame{typ: typ, epoch: 3, msgs: []msg{{seq: seq, payload: payload}}})
	}
	senders := sendersOnShards(t, c, 4)
	for seq := uint64(1); seq <= bcasts; seq++ {
		for _, addr := range senders {
			if seq < gapFrom || seq > gapTo { // lost for good: skipped after GapTimeout
				ep.inject(addr, frameOf(frameData, seq))
			}
			if seq <= ucasts {
				ep.inject(addr, frameOf(frameUData, (seq-1)^1+1)) // pairwise swapped: 2, 1, 4, 3, ...
			}
		}
	}
	for sh, addr := range senders {
		next := map[byte]uint64{frameData: 1, frameUData: 1}
		for _, m := range collectShard(t, c, sh, bcasts-(gapTo-gapFrom+1)+ucasts) {
			if m.From != addr {
				t.Fatalf("shard %d delivered a message of %s, want only %s", sh, m.From, addr)
			}
			kind, seq := m.Payload[0], binary.BigEndian.Uint64(m.Payload[1:])
			if kind == frameData && next[kind] == gapFrom {
				next[kind] = gapTo + 1
			}
			if seq != next[kind] {
				t.Fatalf("%s: stream %d delivered sequence %d, want %d", addr, kind, seq, next[kind])
			}
			next[kind]++
		}
	}
	if got := c.Stats().Skipped; got != 4*(gapTo-gapFrom+1) {
		t.Errorf("skipped = %d, want %d", got, 4*(gapTo-gapFrom+1))
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
