package reliable

import (
	"time"

	"infobus/internal/telemetry"
	"infobus/internal/transport"
)

// Conn layers the reliable protocol over one transport endpoint. A Conn
// carries one outbound broadcast stream (Publish), any number of outbound
// unicast streams (SendTo), and delivers all reliably received messages —
// broadcast and unicast — in per-sender FIFO order on its shards (Recv is
// shard 0, the only one New makes).
//
// The protocol is the Machine; the Conn is what a machine needs to run in
// wall-clock time: the endpoint, a ticker, one goroutine (loop) that feeds
// the machine the endpoint's datagrams and the ticks and is the only sender
// on the shard channels — so a sender's messages reach the application in
// the order of the state transitions that made them deliverable, by
// construction — and Close.
type Conn struct {
	ep     transport.Endpoint
	m      *Machine
	outs   []chan Message
	done   chan struct{}
	exited chan struct{} // closed when loop has returned
}

// shardBuffer is the capacity of each shard channel, the one queue between
// the loop and a consumer. Nothing is dropped when a shard is full: the
// loop stops reading datagrams (back-pressure on the transport, whose own
// bounded queue then applies its policy) and keeps ticking. Shards share
// the loop, so one full shard holds up the others.
const shardBuffer = 1024

// New layers a reliable connection over ep. The endpoint must not be used
// directly afterwards. The connection's counters live in a private registry
// (Stats reads them) and it records no events.
func New(ep transport.Endpoint, cfg Config) *Conn {
	return NewSharded(ep, cfg, 1, telemetry.NewRegistry(), CounterPrefix, nil)
}

// NewSharded is New with n delivery shards (RecvShard): every message of
// one sender address, broadcast and unicast, comes out of the same shard,
// so n consumers can work in parallel without reordering any sender. The
// protocol counters go under prefix in reg, the registry of the node that
// owns the connection, and its notable events into rec (nil records none).
func NewSharded(ep transport.Endpoint, cfg Config, n int, reg *telemetry.Registry, prefix string, rec *telemetry.Recorder) *Conn {
	c := &Conn{
		ep:     ep,
		m:      newMachine(ep, cfg, n, time.Now, reg, prefix, rec),
		outs:   make([]chan Message, n),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
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

// Stats returns a snapshot of the protocol counters.
func (c *Conn) Stats() Stats { return c.m.Stats() }

// Publish sends one message on the connection's broadcast stream.
func (c *Conn) Publish(payload []byte) error { return c.m.Publish(payload) }

// Flush forces any batched publications onto the wire immediately.
func (c *Conn) Flush() error { return c.m.Flush() }

// SendTo sends one message on the reliable unicast stream to addr; see
// Machine.SendTo.
func (c *Conn) SendTo(addr string, payload []byte) error { return c.m.SendTo(addr, payload) }

// Close tears the connection down. Pending batched messages are flushed
// best-effort; the loop has exited and the shards are closed on return.
func (c *Conn) Close() error {
	if c.m.Close() {
		close(c.done)
		_ = c.ep.Close()
	}
	<-c.exited
	return nil
}

// loop is the connection's one goroutine. Each turn it hands the shards
// what they take without waiting, then waits for the next event. While a
// shard refuses the oldest delivery no datagram is read, but the ticker
// case stays armed: batch flush, heartbeat, NAK, gap skip and unicast
// retransmission do not wait for a slow consumer, and what a tick makes
// deliverable queues behind the head.
func (c *Conn) loop() {
	defer func() {
		for _, ch := range c.outs {
			close(ch)
		}
		close(c.exited)
	}()
	ticker := time.NewTicker(c.m.TickInterval())
	defer ticker.Stop()
	datagrams := c.ep.Recv()
	for {
		in := datagrams
		var head Message
		var headCh chan Message
		if d := c.handOff(); d != nil {
			in, head, headCh = nil, d.Message, c.outs[d.Shard]
		}
		select {
		case <-c.done:
			return
		case dg, ok := <-in:
			if !ok {
				return
			}
			c.m.OnDatagram(dg.From, dg.Payload)
		case now := <-ticker.C:
			c.m.Tick(now)
		case headCh <- head:
			c.m.Pop()
		}
	}
}

// handOff sends the machine's deliveries to the shards, oldest first, until
// one would block; it returns that one, or nil when all are handed off.
func (c *Conn) handOff() *Delivery {
	for d := c.m.Next(); d != nil; d = c.m.Next() {
		select {
		case c.outs[d.Shard] <- d.Message:
			c.m.Pop()
		default:
			return d
		}
	}
	return nil
}
