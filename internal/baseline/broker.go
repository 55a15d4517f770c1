package baseline

import (
	"encoding/binary"
	"errors"
	"sync"

	"infobus/internal/subject"
	"infobus/internal/transport"
)

// Broker is a Zephyr-style centralized notification service: clients
// register subscriptions with the central server's location database; the
// server computes the recipient set for each publication and unicasts a
// copy to every subscriber ("subscription multicasting"). Contrast with
// the Information Bus, where one Ethernet broadcast reaches every host and
// filtering happens at the edges.
type Broker struct {
	ep transport.Endpoint

	mu     sync.Mutex
	subs   *subject.Trie[string] // pattern -> client addresses
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup

	stats BrokerStats
}

// BrokerStats counts broker-side work.
type BrokerStats struct {
	Publications uint64 // inbound publish requests
	Deliveries   uint64 // unicast copies sent (the fan-out cost)
	Subscribes   uint64
}

// Broker wire format (length-prefixed strings):
//
//	'S' pattern                -- subscribe (client addr from datagram)
//	'P' subject payload        -- publish
//	'D' subject payload        -- delivery to a client
const (
	brokerSub     = 'S'
	brokerPub     = 'P'
	brokerDeliver = 'D'
)

// Baseline errors.
var (
	ErrBrokerClosed = errors.New("baseline: broker closed")
	ErrBadMsg       = errors.New("baseline: malformed broker message")
)

// NewBroker starts the central server on a segment.
func NewBroker(seg transport.Segment) (*Broker, error) {
	ep, err := seg.NewEndpoint("zephyr-broker")
	if err != nil {
		return nil, err
	}
	b := &Broker{ep: ep, subs: subject.NewTrie[string](), done: make(chan struct{})}
	b.wg.Add(1)
	go b.serve()
	return b, nil
}

// Addr returns the broker's address; clients need it (a central service
// must be found out-of-band — exactly the bootstrap the bus avoids).
func (b *Broker) Addr() string { return b.ep.Addr() }

// Stats returns a snapshot of broker counters.
func (b *Broker) Stats() BrokerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Close stops the broker.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	close(b.done)
	b.mu.Unlock()
	err := b.ep.Close()
	b.wg.Wait()
	return err
}

func (b *Broker) serve() {
	defer b.wg.Done()
	for {
		select {
		case <-b.done:
			return
		case dg, ok := <-b.ep.Recv():
			if !ok {
				return
			}
			b.handle(dg)
		}
	}
}

func (b *Broker) handle(dg transport.Datagram) {
	kind, fields, err := decodeBrokerMsg(dg.Payload)
	if err != nil {
		return
	}
	switch kind {
	case brokerSub:
		pat, err := subject.ParsePattern(fields[0])
		if err != nil {
			return
		}
		b.mu.Lock()
		b.subs.Add(pat, dg.From)
		b.stats.Subscribes++
		b.mu.Unlock()
	case brokerPub:
		subj, err := subject.Parse(fields[0])
		if err != nil {
			return
		}
		b.mu.Lock()
		b.stats.Publications++
		dests := b.subs.Match(subj)
		b.mu.Unlock()
		out := encodeBrokerMsg(brokerDeliver, fields[0], fields[1])
		for _, dst := range dests {
			if err := b.ep.Send(dst, out); err != nil {
				continue
			}
			b.mu.Lock()
			b.stats.Deliveries++
			b.mu.Unlock()
		}
	}
}

// BrokerClient is one application talking to the central broker.
type BrokerClient struct {
	ep     transport.Endpoint
	broker string
}

// NewBrokerClient attaches a client to the segment and records the broker
// address.
func NewBrokerClient(seg transport.Segment, brokerAddr string) (*BrokerClient, error) {
	ep, err := seg.NewEndpoint("zephyr-client")
	if err != nil {
		return nil, err
	}
	return &BrokerClient{ep: ep, broker: brokerAddr}, nil
}

// Subscribe registers a pattern in the broker's location database.
func (c *BrokerClient) Subscribe(pattern string) error {
	if _, err := subject.ParsePattern(pattern); err != nil {
		return err
	}
	return c.ep.Send(c.broker, encodeBrokerMsg(brokerSub, pattern, ""))
}

// Publish sends a message to the broker for fan-out.
func (c *BrokerClient) Publish(subj string, payload []byte) error {
	if _, err := subject.Parse(subj); err != nil {
		return err
	}
	return c.ep.Send(c.broker, encodeBrokerMsg(brokerPub, subj, string(payload)))
}

// Recv yields deliveries as (subject, payload) pairs.
func (c *BrokerClient) Recv() (string, []byte, bool) {
	dg, ok := <-c.ep.Recv()
	if !ok {
		return "", nil, false
	}
	kind, fields, err := decodeBrokerMsg(dg.Payload)
	if err != nil || kind != brokerDeliver {
		return c.Recv()
	}
	return fields[0], []byte(fields[1]), true
}

// Close detaches the client.
func (c *BrokerClient) Close() error { return c.ep.Close() }

func encodeBrokerMsg(kind byte, a, b string) []byte {
	out := []byte{kind}
	out = binary.AppendUvarint(out, uint64(len(a)))
	out = append(out, a...)
	out = binary.AppendUvarint(out, uint64(len(b)))
	out = append(out, b...)
	return out
}

func decodeBrokerMsg(data []byte) (byte, [2]string, error) {
	var fields [2]string
	if len(data) < 1 {
		return 0, fields, ErrBadMsg
	}
	kind := data[0]
	pos := 1
	for i := 0; i < 2; i++ {
		n, used := binary.Uvarint(data[pos:])
		if used <= 0 || pos+used+int(n) > len(data) {
			return 0, fields, ErrBadMsg
		}
		pos += used
		fields[i] = string(data[pos : pos+int(n)])
		pos += int(n)
	}
	if pos != len(data) {
		return 0, fields, ErrBadMsg
	}
	return kind, fields, nil
}
