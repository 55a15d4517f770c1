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
	"infobus/internal/telemetry"
	"infobus/internal/transport"
)

// The driver tests: what a Conn adds to the Machine is a goroutine, a
// ticker, the shard channels and Close, so these — and only these — run on
// the wall clock with goroutines. Every protocol assertion lives on the
// machine (machine_test.go, schedule_test.go).

// eventually spins until cond holds, yielding in between: the conditions
// here become true within microseconds of a goroutine being scheduled.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// collectShard reads n messages from one shard.
func collectShard(t *testing.T, c *Conn, shard, n int) []Message {
	t.Helper()
	out := make([]Message, 0, n)
	timeout := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case m, ok := <-c.RecvShard(shard):
			if !ok {
				t.Fatalf("shard %d closed after %d of %d messages", shard, len(out), n)
			}
			out = append(out, m)
		case <-timeout:
			t.Fatalf("shard %d: timed out with %d of %d messages", shard, len(out), n)
		}
	}
	return out
}

// TestConnEndToEnd is the one smoke test of the whole stack of this layer
// on the wall-clock segment: broadcast and unicast, lossy, batched, in order.
func TestConnEndToEnd(t *testing.T) {
	netCfg := netsim.DefaultConfig()
	netCfg.Speedup = 2000
	netCfg.LossProb = 0.1
	seg := transport.NewSimSegment(netCfg)
	defer seg.Close()
	cfg := Config{Batching: true, NakInterval: 2 * time.Millisecond, RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval: 5 * time.Millisecond}
	var conns []*Conn
	for i := 0; i < 2; i++ {
		ep, err := seg.NewEndpoint(fmt.Sprintf("host%d", i))
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, New(ep, cfg))
	}
	pub, sub := conns[0], conns[1]
	defer pub.Close()
	defer sub.Close()
	// One message first: a lost head of a stream is never asked for.
	if err := pub.Publish([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := collectShard(t, sub, 0, 1); string(got[0].Payload) != "hello" || got[0].From != pub.Addr() {
		t.Fatalf("first message = %+v", got[0])
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := pub.Publish([]byte(fmt.Sprintf("b%03d", i))); err != nil {
			t.Fatal(err)
		}
		if err := pub.SendTo(sub.Addr(), []byte(fmt.Sprintf("u%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	next := map[byte]int{'b': 0, 'u': 0}
	for _, m := range collectShard(t, sub, 0, 2*n) {
		kind := m.Payload[0]
		if want := fmt.Sprintf("%c%03d", kind, next[kind]); string(m.Payload) != want {
			t.Fatalf("delivered %q, want %q", m.Payload, want)
		}
		next[kind]++
	}
	if st := pub.Stats(); st.Published != n+1 || st.BatchesFlushed == 0 {
		t.Errorf("publisher stats = %+v", st)
	}
}

// TestCloseFlushesBatch: Close puts what the batch still holds on the wire
// before the endpoint goes.
func TestCloseFlushesBatch(t *testing.T) {
	ep := newStubEndpoint("stub:pub")
	ep.sent = make(chan frame, 4)
	c := New(ep, Config{Batching: true, BatchDelay: time.Hour, HeartbeatInterval: time.Hour})
	if err := c.Publish([]byte("pending")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-ep.sent:
		t.Fatalf("sent before the batch was due: %+v", f)
	default:
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if f := ep.awaitSent(t, frameData); len(f.data.msgs) != 1 || string(f.data.msgs[0].payload) != "pending" {
		t.Fatalf("flushed on close = %+v", f.data)
	}
}

func TestClosedConnErrors(t *testing.T) {
	c := New(newStubEndpoint("stub:closing"), Config{})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := c.Publish([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Publish after close = %v", err)
	}
	if err := c.SendTo("stub:peer", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("SendTo after close = %v", err)
	}
	if _, ok := <-c.Recv(); ok {
		t.Error("Recv channel should be closed")
	}
}

// stubEndpoint is a transport endpoint a test feeds by hand: what the Conn
// receives is what inject queued, and what it sends is discarded — or, when
// sent is set, decoded and handed to the test as long as sent has room (a
// send must not block the loop: it happens under the machine's lock).
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
			select {
			case e.sent <- f:
			default:
			}
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
	sharded := NewSharded(newStubEndpoint("stub:four"), Config{}, 4, telemetry.NewRegistry(), CounterPrefix, nil)
	if got := connGoroutines(); got != 2 {
		t.Errorf("New and NewSharded(4) started %d goroutines, want 2", got)
	}
	_, _ = c.Close(), sharded.Close()
	// Close has waited for the loops to close their shards; the last
	// instructions of a goroutine run after it says so.
	eventually(t, "the loops to exit", func() bool { return connGoroutines() == 0 })
	if _, ok := <-sharded.RecvShard(3); ok {
		t.Error("shard not closed by Close")
	}
}

// TestTimersRunUnderStalledConsumer: with every shard full and nobody
// reading, the loop stops taking datagrams but not ticks — a batched Publish
// still reaches the wire and an idle publisher still heartbeats — and when
// the consumers return, what queued behind the stall comes out in order.
func TestTimersRunUnderStalledConsumer(t *testing.T) {
	ep := newStubEndpoint("stub:recv")
	c := NewSharded(ep, Config{Batching: true, BatchDelay: 2 * time.Millisecond,
		NakInterval: 4 * time.Millisecond, GapTimeout: time.Minute, HeartbeatInterval: 10 * time.Millisecond}, 2, telemetry.NewRegistry(), CounterPrefix, nil)
	defer c.Close()
	senders := sendersOnShards(t, c.m, 2)
	// Sync both streams, then fill both shards alternately and leave
	// messages the loop cannot hand off.
	for sh, addr := range senders {
		ep.inject(addr, seqFrame(frameData, 9, 1))
		collectShard(t, c, sh, 1)
	}
	const last = shardBuffer + 40
	for seq := uint64(2); seq <= last; seq++ {
		for _, addr := range senders {
			ep.inject(addr, seqFrame(frameData, 9, seq))
		}
	}
	eventually(t, "both shards to fill", func() bool {
		return len(c.outs[0]) == shardBuffer && len(c.outs[1]) == shardBuffer
	})
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
	// The loop hands off in arrival order and a full shard holds up the
	// other, so the consumers take turns as the senders did.
	for seq := uint64(2); seq <= last; seq++ {
		for sh, addr := range senders {
			m := collectShard(t, c, sh, 1)[0]
			if got := binary.BigEndian.Uint64(m.Payload); got != seq || m.From != addr {
				t.Fatalf("shard %d delivered sequence %d of %s, want %d of %s: order broken across the stall", sh, got, m.From, seq, addr)
			}
		}
	}
}
