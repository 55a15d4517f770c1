// Package qledger replicates the guaranteed-delivery ledger across bus
// peers: each batch the publisher's write-ahead ledger commits is mirrored
// to N replica hosts over "_sys.repl.>" subjects, and PublishGuaranteed
// returns only once a majority of the replication group holds the batch
// durably. When a publisher dies, an elected recovery coordinator
// (internal/rmi election over the bus itself) reads a majority of the
// replicas, stores the union of their pending sets, and replays the
// unacknowledged publications through the host's retrier (core.Retrier),
// preserving the original (origin, id) identity — so consumer-side dedup
// absorbs the replay and delivery stays exactly-once under normal
// operation.
//
// The tier is a layer on a core.Host: Attach (infobus.Replicate) composes
// it, and a host it is never attached to keeps the single-node guaranteed
// path untouched.
package qledger

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame is one replication protocol message. The encoding is
// self-describing in the CRISTAL sense the paper motivates for stored
// data: a version byte plus tagged fields, so a newer node can add fields
// and an older one skips what it does not know instead of desynchronizing
// on a positional layout.
//
// Layout: 'Q' | version | type | fields, each field being
// uvarint tag | uvarint len | len bytes. Unknown tags are skipped.
type Frame struct {
	Type byte
	// Origin is the publisher identity the frame is about (the token
	// consumer-side dedup keys on).
	Origin string
	// Seq is the publisher-assigned chunk sequence number (FrameBatch) or
	// the sequence being acknowledged (FrameAck).
	Seq uint64
	// Replica identifies the responding replica (FrameAck, FrameReadRep) —
	// a stable per-store token, so a restarted replica is not counted as a
	// new group member.
	Replica string
	// Records is a run of ledger records (ledger.NextRecord format):
	// the mirrored batch (FrameBatch), a replica's pending set
	// (FrameReadRep), or ack records trimming recovered entries
	// (FrameRelease).
	Records []byte
	// Round correlates a FrameReadRep with its FrameReadReq.
	Round uint64
	// MaxSeq is the replica's contiguous high-water mark: every chunk with
	// Seq <= MaxSeq is applied on that replica, letting one ack close
	// straggling earlier waits.
	MaxSeq uint64
}

// Frame types.
const (
	// FrameBatch mirrors one committed ledger batch chunk to the replicas.
	FrameBatch = 1 + iota
	// FrameAck acknowledges durable application of a chunk.
	FrameAck
	// FrameBeat is the publisher's liveness beacon.
	FrameBeat
	// FrameReadReq asks the replicas for their pending set for an origin.
	FrameReadReq
	// FrameReadRep answers a FrameReadReq.
	FrameReadRep
	// FrameRelease distributes ack records for recovered entries so the
	// replicas can trim them.
	FrameRelease
)

// Field tags.
const (
	tagOrigin  = 1
	tagSeq     = 2
	tagReplica = 3
	tagRecords = 4
	tagRound   = 5
	tagMaxSeq  = 6
)

const (
	frameMagic   = 'Q'
	frameVersion = 1
	// maxFrameLen bounds a whole frame — mirrors the ledger's 16 MB record
	// cap, since a frame carries at most one batch.
	maxFrameLen = 1 << 24
	// maxTokenLen bounds identity tokens (origin, replica).
	maxTokenLen = 256
	// maxFields bounds the field count so a hostile frame of empty fields
	// cannot spin the parser.
	maxFields = 64
)

// Frame errors.
var (
	ErrBadFrame = errors.New("qledger: malformed frame")
)

func appendField(dst []byte, tag uint64, val []byte) []byte {
	dst = binary.AppendUvarint(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	return append(dst, val...)
}

func appendUintField(dst []byte, tag, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return appendField(dst, tag, tmp[:n])
}

// AppendFrame encodes f, appending to dst. Zero-valued fields are omitted.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = append(dst, frameMagic, frameVersion, f.Type)
	if f.Origin != "" {
		dst = appendField(dst, tagOrigin, []byte(f.Origin))
	}
	if f.Seq != 0 {
		dst = appendUintField(dst, tagSeq, f.Seq)
	}
	if f.Replica != "" {
		dst = appendField(dst, tagReplica, []byte(f.Replica))
	}
	if len(f.Records) != 0 {
		dst = appendField(dst, tagRecords, f.Records)
	}
	if f.Round != 0 {
		dst = appendUintField(dst, tagRound, f.Round)
	}
	if f.MaxSeq != 0 {
		dst = appendUintField(dst, tagMaxSeq, f.MaxSeq)
	}
	return dst
}

// ParseFrame decodes one frame. Records aliases data — callers that
// retain it past the delivery must copy. Every length is bounds-checked;
// arbitrary input returns ErrBadFrame, never panics.
func ParseFrame(data []byte) (Frame, error) {
	var f Frame
	if len(data) > maxFrameLen {
		return f, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(data))
	}
	if len(data) < 3 || data[0] != frameMagic {
		return f, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	if data[1] != frameVersion {
		return f, fmt.Errorf("%w: version %d", ErrBadFrame, data[1])
	}
	f.Type = data[2]
	if f.Type == 0 || f.Type > FrameRelease {
		return f, fmt.Errorf("%w: type %d", ErrBadFrame, f.Type)
	}
	rest := data[3:]
	for fields := 0; len(rest) > 0; fields++ {
		if fields >= maxFields {
			return f, fmt.Errorf("%w: too many fields", ErrBadFrame)
		}
		tag, n := binary.Uvarint(rest)
		if n <= 0 {
			return f, fmt.Errorf("%w: field tag", ErrBadFrame)
		}
		rest = rest[n:]
		ln, n := binary.Uvarint(rest)
		if n <= 0 || ln > uint64(len(rest[n:])) {
			return f, fmt.Errorf("%w: field length", ErrBadFrame)
		}
		val := rest[n : n+int(ln)]
		rest = rest[n+int(ln):]
		switch tag {
		case tagOrigin, tagReplica:
			if len(val) > maxTokenLen {
				return f, fmt.Errorf("%w: token %d bytes", ErrBadFrame, len(val))
			}
			if tag == tagOrigin {
				f.Origin = string(val)
			} else {
				f.Replica = string(val)
			}
		case tagSeq, tagRound, tagMaxSeq:
			v, n := binary.Uvarint(val)
			if n <= 0 || n != len(val) {
				return f, fmt.Errorf("%w: uint field", ErrBadFrame)
			}
			switch tag {
			case tagSeq:
				f.Seq = v
			case tagRound:
				f.Round = v
			default:
				f.MaxSeq = v
			}
		case tagRecords:
			f.Records = val
		default:
			// Unknown tag from a newer peer: skip (self-describing
			// forward compatibility).
		}
	}
	return f, nil
}
