package ledger

import (
	"cmp"
	"fmt"
	"slices"
)

// Replication surface. The quorum tier (internal/qledger) mirrors each
// committed batch to peer replicas; this file is everything it needs from
// the ledger: a commit hook exporting the raw batch bytes, record-level
// codec access so frames can reuse the on-disk format (one CRC-protected
// encoding end to end), and AppendBatch, the replica-side write path that
// rides the same group-commit pipeline as local appends — so a replica's
// fsync budget is per mirrored batch, not per message.

// Rec is one parsed ledger record as exposed to replication layers: a
// message entry or (Ack true) an acknowledgement.
type Rec struct {
	ID      uint64
	Subject string
	Payload []byte
	Ack     bool
}

// AppendMessageRecord encodes a message record in the ledger's on-disk
// format onto dst. Replication frames carry record runs in exactly this
// encoding, so the replica validates and stores them with the same parser
// (and the same CRC) that replay uses.
func AppendMessageRecord(dst []byte, id uint64, subject string, payload []byte) []byte {
	return appendRecord(dst, record{typ: recMessage, id: id, subject: subject, payload: payload})
}

// AppendAckRecord encodes an acknowledgement record onto dst.
func AppendAckRecord(dst []byte, id uint64) []byte {
	return appendRecord(dst, record{typ: recAck, id: id})
}

// NextRecord parses one record from the front of data, returning it and
// the bytes consumed. Its Payload is a view of data (capacity capped at its
// length), valid as long as data is. Errors are ErrCorrupt-wrapped (a truncated record
// included: replication frames are never legitimately torn, unlike a
// crashed segment tail).
func NextRecord(data []byte) (Rec, int, error) {
	r, n, err := parseRecord(data)
	if err != nil {
		return Rec{}, 0, fmt.Errorf("%v: %w", err, ErrCorrupt)
	}
	return Rec{ID: r.id, Subject: r.subject, Payload: r.payload, Ack: r.typ == recAck}, n, nil
}

// PendingRecords appends the committed records of the pending messages,
// oldest first, to dst as they are on disk (the encoding
// AppendMessageRecord writes), read back from the log. It stops before a
// record that would take what it appends past maxBytes, though it always
// appends the first. A message still in flight, or whose record does not
// read back intact, is left out.
func (l *Ledger) PendingRecords(dst []byte, maxBytes int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	sts := make([]entryState, 0, len(l.pending))
	for _, st := range l.pending {
		if st.seg != 0 {
			sts = append(sts, st)
		}
	}
	slices.SortFunc(sts, func(a, b entryState) int { return cmp.Compare(a.id, b.id) })
	start := len(dst)
	for _, st := range sts {
		if len(dst) > start && len(dst)-start+st.n > maxBytes {
			break
		}
		dst, _, _ = l.readRecordLocked(dst, st)
	}
	return dst
}

// CommitBatch describes one durably committed batch to the OnCommit hook.
type CommitBatch struct {
	// Seq numbers committed batches 1,2,3,... within this process. It is
	// not persisted: a restart starts over at 1 (and with a new origin
	// identity, so replication seq spaces never collide).
	Seq uint64
	// Records is the batch's raw record bytes, exactly as written to the
	// segment. Valid only during the hook call — the batch, buffers and
	// all, is reused.
	Records []byte
	// MsgIDs lists the ids of the message records in the batch (ack
	// records are not listed). Valid only during the hook call.
	MsgIDs []uint64
}

// SetOnCommit installs (or, with nil, removes) the commit hook: f runs
// after each non-empty batch is durably written — before any Append staged
// into it returns — so a caller observing Append's return can rely on the
// batch having been offered to the hook already. The hook runs on the
// thread that leads the commit: an Append, AppendBatch, Flush or Close
// caller, whichever found no commit in flight. It must not call back into
// the ledger (that caller is inside it) and must not retain cb's slices.
func (l *Ledger) SetOnCommit(f func(cb CommitBatch)) {
	l.mu.Lock()
	l.onCommit = f
	l.mu.Unlock()
}

// AppendBatch applies a run of records (the payload of a replication
// frame, validated here) to the ledger: message records join the pending
// set, ack records leave it, and the surviving records are staged into the
// current group-commit batch. It returns once the batch is committed —
// with Sync, once it is on disk. Records already applied (a retransmitted
// mirror frame) are skipped, so AppendBatch is idempotent.
func (l *Ledger) AppendBatch(records []byte) error {
	// Validate the whole run before staging anything: a frame from the
	// wire must not poison the log halfway.
	var recs []record
	for off := 0; off < len(records); {
		r, n, err := parseRecord(records[off:])
		if err != nil {
			return fmt.Errorf("ledger: batch record at %d: %v: %w", off, err, ErrCorrupt)
		}
		recs = append(recs, r)
		off += n
	}
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	if err := l.refuseLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	b := l.cur
	staged := 0
	for _, r := range recs {
		switch r.typ {
		case recMessage:
			if _, dup := l.pending[r.id]; dup {
				continue // already applied: retransmitted frame
			}
			off := len(b.buf)
			b.buf = appendRecord(b.buf, r)
			b.msgIDs = append(b.msgIDs, r.id)
			b.recs++
			staged++
			l.pending[r.id] = entryState{id: r.id, subject: r.subject, off: int64(off), n: len(b.buf) - off}
			l.ctr.appends.Inc()
		case recAck:
			st, ok := l.pending[r.id]
			if !ok {
				continue // already acked (or never seen): idempotent
			}
			delete(l.pending, r.id)
			if st.seg != 0 {
				if s := l.segBySeqLocked(st.seg); s != nil {
					s.live--
				}
			}
			b.buf = appendRecord(b.buf, r)
			b.recs++
			staged++
			l.ctr.acks.Inc()
		}
		if r.id >= l.nextID {
			l.nextID = r.id + 1
		}
	}
	l.ctr.pending.Set(int64(len(l.pending)))
	if staged == 0 {
		l.mu.Unlock()
		return nil // everything was a duplicate; nothing to commit
	}
	b.waiters++
	defer l.mu.Unlock()
	return l.awaitLocked(b, nil)
}
