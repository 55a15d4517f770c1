// Package reliable implements the Information Bus reliable delivery
// protocol over unreliable datagrams (§3.1): "UDP packets in combination
// with a retransmission protocol".
//
// Semantics, matching the paper:
//
//   - Under normal operation (no crash, no long partition) messages are
//     delivered exactly once, in the order sent by the same sender;
//     messages from different senders are not ordered.
//   - If the sender or receiver crashes, or the network partitions for
//     longer than the gap timeout, messages are delivered at most once.
//
// Broadcast streams use per-sender sequence numbers with NAK-triggered
// retransmission: a receiver that observes a gap asks the sender (unicast)
// to retransmit the missing range; after GapTimeout the receiver gives up
// and skips, which is where "at most once" comes from. Unicast streams use
// positive cumulative ACKs with sender-side retransmission. Sender restarts
// are detected by a per-connection epoch that every frame carries: 32 bits,
// shifted left once and made odd, so at most 5 uvarint bytes (Config.Seed).
// A frame's whole header around a single message of up to 16 KB with a
// sequence number below 2^21 is then at most 12 bytes. The price of 32 bits:
// two incarnations on one address share an epoch with probability 2^-32
// per restart, about the odds of a TCP initial sequence number collision.
// If they do, a receiver that still remembers the old incarnation takes the
// new one's first messages for duplicates and drops them until the sequence
// passes where the old one stopped: the at-most-once case of a sender crash
// above. Decoders read any uvarint epoch, so a host of this build and one
// whose epochs were 64 bits share a segment, each detecting the other's
// restarts.
//
// The appendix's "batch parameter" lives here too: with batching on, small
// publications are gathered for up to BatchDelay (or until 32 KB) and sent
// as one datagram, trading latency for throughput (Figures 5-7).
//
// The package is two halves. Machine (machine.go) is the protocol: all the
// state and every transition as a function of its inputs and the time it is
// told, with no goroutine, ticker, socket or clock read of its own — which
// is what lets the test suite run any number of machines over a simulated
// segment on virtual time, single-threaded and repeatable to the byte. Conn
// (conn.go) is the driver that runs one machine in wall-clock time: a single
// goroutine (Conn.loop) reads the endpoint, ticks the machine and hands
// every deliverable message to the consumer, so per-sender order holds by
// construction. Inbound stream state belongs to that goroutine alone;
// Machine.mu guards only what Publish, SendTo and Flush share with it (the
// retransmit window, the batch, the unicast streams, the encode scratch).
// NewSharded gives the loop several output channels keyed by sender address,
// so several consumers — the daemon's inbound workers — can read one Conn
// without a relay.
package reliable

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame types.
const (
	frameData  = 1 // batch of broadcast-stream messages
	frameNak   = 2 // broadcast-stream gap report (unicast to sender)
	frameUData = 3 // batch of unicast-stream messages
	frameUAck  = 4 // unicast-stream cumulative ack
	frameHeart = 5 // broadcast-stream heartbeat advertising the max seq
)

// Frame-level errors.
var (
	ErrFrameTruncated = errors.New("reliable: truncated frame")
	ErrFrameCorrupt   = errors.New("reliable: corrupt frame")
	ErrFrameType      = errors.New("reliable: unknown frame type")
)

// msg is one sequenced message within a data frame.
type msg struct {
	seq     uint64
	payload []byte
}

// dataFrame is a batch of sequenced messages from one sender stream.
type dataFrame struct {
	typ   byte // frameData or frameUData
	epoch uint64
	msgs  []msg
}

// nakFrame asks the sender to retransmit [from, to] of its broadcast
// stream.
type nakFrame struct {
	epoch    uint64
	from, to uint64
}

// ackFrame acknowledges every unicast-stream message with seq <= cum.
type ackFrame struct {
	epoch uint64
	cum   uint64
}

// heartFrame advertises the sender's highest published broadcast seq so
// receivers can detect tail loss (a lost final message reveals no gap on
// its own).
type heartFrame struct {
	epoch  uint64
	maxSeq uint64
}

const maxFrameMsgs = 1 << 16

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// appendData appends the frame's encoding to dst and returns the extended
// slice. The send path reuses one scratch buffer per Conn through it, so
// steady-state framing allocates nothing.
func appendData(dst []byte, f dataFrame) []byte {
	b := append(dst, f.typ)
	b = appendUvarint(b, f.epoch)
	b = appendUvarint(b, uint64(len(f.msgs)))
	for _, m := range f.msgs {
		b = appendUvarint(b, m.seq)
		b = appendUvarint(b, uint64(len(m.payload)))
		b = append(b, m.payload...)
	}
	return b
}

// The control frames append to a scratch buffer too: a Wire copies before it
// returns, so the machine reuses one per half.

func appendNak(dst []byte, f nakFrame) []byte {
	b := append(dst, frameNak)
	b = appendUvarint(b, f.epoch)
	b = appendUvarint(b, f.from)
	return appendUvarint(b, f.to)
}

func appendAck(dst []byte, f ackFrame) []byte {
	b := append(dst, frameUAck)
	b = appendUvarint(b, f.epoch)
	return appendUvarint(b, f.cum)
}

func appendHeart(dst []byte, f heartFrame) []byte {
	b := append(dst, frameHeart)
	b = appendUvarint(b, f.epoch)
	return appendUvarint(b, f.maxSeq)
}

// DecodeDataPayloads extracts the message payloads from one encoded data
// frame (broadcast or unicast stream), in order. Non-data frames and
// corrupt input return nil. Wire-capture tooling and tests use it to see
// the published payload bytes without running a full Conn; the returned
// slices alias data.
func DecodeDataPayloads(data []byte) [][]byte {
	f, err := decodeFrame(data)
	if err != nil || f.data == nil {
		return nil
	}
	out := make([][]byte, len(f.data.msgs))
	for i, m := range f.data.msgs {
		out[i] = m.payload
	}
	return out
}

type frameReader struct {
	data []byte
	pos  int
}

func (r *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, ErrFrameTruncated
	}
	r.pos += n
	return v, nil
}

func (r *frameReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(r.data)-r.pos { // not r.pos+n: a crafted length overflows it
		return nil, ErrFrameTruncated
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

// frame is the sum of all decodable frame kinds: typ says which field a
// successful decode filled in (data for both frameData and frameUData).
type frame struct {
	typ   byte
	data  *dataFrame
	nak   nakFrame
	ack   ackFrame
	heart heartFrame
}

// decodeFrame parses any frame into freshly allocated storage.
func decodeFrame(data []byte) (frame, error) {
	return decodeFrameInto(data, new(dataFrame))
}

// decodeFrameInto parses any frame. A data frame is decoded into scratch,
// reusing its msgs from length zero, and returned as frame.data == scratch:
// the receive loop decodes every datagram into one dataFrame it owns, so a
// datagram costs no allocation. The message payloads alias data.
func decodeFrameInto(data []byte, scratch *dataFrame) (frame, error) {
	if len(data) == 0 {
		return frame{}, ErrFrameTruncated
	}
	r := frameReader{data: data, pos: 1}
	f := frame{typ: data[0]}
	var err error
	switch f.typ {
	case frameData, frameUData:
		scratch.typ, scratch.msgs = f.typ, scratch.msgs[:0]
		if scratch.epoch, err = r.uvarint(); err != nil {
			return frame{}, err
		}
		count, err := r.uvarint()
		if err != nil {
			return frame{}, err
		}
		if count > maxFrameMsgs {
			return frame{}, fmt.Errorf("%d messages: %w", count, ErrFrameCorrupt)
		}
		for i := uint64(0); i < count; i++ {
			var m msg
			if m.seq, err = r.uvarint(); err != nil {
				return frame{}, err
			}
			if m.seq == 0 { // no sender numbers a message 0: a stream starts at 1
				return frame{}, fmt.Errorf("sequence 0: %w", ErrFrameCorrupt)
			}
			plen, err := r.uvarint()
			if err != nil {
				return frame{}, err
			}
			if m.payload, err = r.bytes(int(plen)); err != nil {
				return frame{}, err
			}
			scratch.msgs = append(scratch.msgs, m)
		}
		if r.pos != len(data) {
			return frame{}, ErrFrameCorrupt
		}
		f.data = scratch
	case frameNak:
		if f.nak.epoch, err = r.uvarint(); err != nil {
			return frame{}, err
		}
		if f.nak.from, err = r.uvarint(); err != nil {
			return frame{}, err
		}
		if f.nak.to, err = r.uvarint(); err != nil {
			return frame{}, err
		}
		if f.nak.to < f.nak.from {
			return frame{}, ErrFrameCorrupt
		}
	case frameUAck:
		if f.ack.epoch, err = r.uvarint(); err != nil {
			return frame{}, err
		}
		if f.ack.cum, err = r.uvarint(); err != nil {
			return frame{}, err
		}
	case frameHeart:
		if f.heart.epoch, err = r.uvarint(); err != nil {
			return frame{}, err
		}
		if f.heart.maxSeq, err = r.uvarint(); err != nil {
			return frame{}, err
		}
	default:
		return frame{}, fmt.Errorf("type %d: %w", data[0], ErrFrameType)
	}
	return f, nil
}
