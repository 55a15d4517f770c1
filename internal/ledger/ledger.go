// Package ledger implements the non-volatile message log behind the bus's
// guaranteed delivery semantics (§3.1): "the message is logged to
// non-volatile storage before it is sent. The message is guaranteed to be
// delivered at least once, regardless of failures. The publisher will
// retransmit the message at appropriate times until a reply is received."
//
// The log is a sequence of size-rotated segment files, each an append-only
// run of CRC-protected records. Records are either message entries (id,
// subject, payload) or acknowledgement entries (id). On open, the ledger
// replays the segments in order and reports every message that was logged
// but never acknowledged — exactly the set a restarted publisher must
// retransmit.
//
// Durability is group-committed on the callers' own threads: concurrent
// Append callers stage records into the current batch, and the first that
// finds no commit in flight writes the batch with a single write (and, with
// Sync, a single fsync) while the others wait for it. The ledger runs no
// goroutine. Under contention the fsync cost is paid once per batch instead
// of once per message; an uncontended Append commits at once with no added
// wait. Ack only stages its record: it rides the next batch, a Flush (the
// retrier calls one every walk), or Close. Losing an unflushed ack in
// a crash only means the message is retransmitted once more, and
// consumers' (origin, id) dedup absorbs it. A commit that fails leaves no
// trace: its messages leave the pending set and the segment is truncated
// back to what was committed before.
//
// The log holds every byte a retransmission needs, so memory holds none of
// them: a pending message is its id, its subject and the location of its
// committed record (segment, offset, length), and its payload is read back
// from the segment file where it is needed — the retrier's due entries
// (ReadPayloads), Pending, PendingRecords and the carry. Each read runs
// under the ledger's lock, so no carry moves the record meanwhile, and
// checks the record's CRC again. A message whose batch is still in flight
// has no location yet and is left out of such a read. After warm-up the
// append path allocates nothing: a flushed batch goes back on a small free
// list with its buffers once its last waiter has read the outcome, and the
// pending set holds its locations by value. A reopened or backlogged
// ledger holds O(pending) locations, not its pending payloads.
//
// Space is reclaimed at rotation, the way a log-structured file system's
// cleaner does it: fully-acknowledged leading segments are unlinked, and
// the oldest segments' pending records are carried (read back and written
// again as they are) into the new active segment, so the next rotation can
// unlink those too. The disk holds about three segments plus the pending
// messages.
package ledger

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"infobus/internal/telemetry"
)

// defaultSegmentBytes is the segment rotation threshold: the active segment
// is rolled once it grows past this.
const defaultSegmentBytes = 4 << 20

// linger bounds the extra wait a commit's leader spends letting a forming
// group reach the size of the previous one, once contention is proven (more
// than one Append or AppendBatch caller waited on the previous batch).
// Goroutine wake-up can be slower than a small fsync, so without this the
// groups degenerate into near-singleton batches that pay an fsync each with
// Sync, or a replication chunk each with a commit hook. With neither, a
// leader commits at once.
const linger = 100 * time.Microsecond

// maxFreeBatches bounds the flushed batches waiting on the free list for
// reuse.
const maxFreeBatches = 4

// Entry is one logged, possibly unacknowledged message. Payload is read
// back from the log: Pending and ReadPayloads fill it in, ForEachPending
// leaves it nil.
type Entry struct {
	ID      uint64
	Subject string
	Payload []byte
}

// Ledger errors.
var (
	ErrClosed  = errors.New("ledger: closed")
	ErrCorrupt = errors.New("ledger: corrupt record")
	ErrTooBig  = errors.New("ledger: record exceeds size limit")
)

// entryState is a pending message: its id and subject, and where its record
// is. Until the record's batch is committed seg is 0 and off is the
// record's offset in the batch; from then on they locate it in its segment.
type entryState struct {
	id      uint64
	subject string
	seg     uint64
	off     int64
	n       int // record length
}

// segment is one log file, open for reads (and, as segs[len-1], the active
// segment, for appends) until it is unlinked or the ledger closes. live
// counts the pending messages whose records it holds.
type segment struct {
	seq     uint64
	path    string
	f       *os.File
	size    int64
	carried int64 // bytes of size the carry wrote; they do not count toward rotation
	live    int
}

// batch is one group-commit unit: the staged record bytes of every caller
// that arrived while the previous batch was being committed. Batches are
// reused: once the commit's leader has set err and flushed, each of the
// waiters (the Append and AppendBatch callers that staged into it) reads
// the outcome under l.mu, and the last one puts the batch, buffers and all,
// on the ledger's free list. The leader frees a batch nobody waits on (one
// holding only acks, committed by Flush) itself.
type batch struct {
	buf     []byte
	msgIDs  []uint64 // ids of recMessage records staged in this batch
	recs    int
	waiters int
	flushed bool
	err     error
	cond    sync.Cond // L is the ledger's mu; broadcast once flushed, signalled to hand over the lead
	// Stage timestamps (unix nanoseconds), written by writeBatch before
	// flushed is set, so waiters read them under l.mu: commitAt after the
	// segment write, syncAt after the fsync (0 without Sync). They feed
	// the guaranteed-path trace hops (busproto.HopGroupCommit, HopFsync);
	// cost is two clock reads per batch, not per record.
	commitAt int64
	syncAt   int64
}

// Ledger is a crash-safe append-only message log. It is safe for
// concurrent use, and runs no goroutine of its own: each commit runs on the
// thread of a caller that waits for it (see commitLocked).
type Ledger struct {
	path   string // segment name prefix: <path>.<seq>.seg
	dir    string
	sync   bool
	segMax int64 // defaultSegmentBytes; in-package tests set it

	mu         sync.Mutex
	closed     bool
	committing bool                 // a leader is committing a batch taken from cur
	onCommit   func(cb CommitBatch) // replication hook; see SetOnCommit
	commitSeq  uint64               // batches committed so far (hook's Seq)
	lastCohort int                  // appenders waiting on the previous commit (linger target)
	broken     error                // a failed commit that could not be rewound; see rewindLocked
	nextID     uint64
	pending    map[uint64]entryState
	segs       []*segment
	f          *os.File // the active segment's f, which commits write to
	cur        *batch
	free       []*batch // flushed batches for reuse, at most maxFreeBatches
	iterBuf    []Entry  // ForEachPending's buffer; nil while a walk holds it

	ctr counters
}

// counters holds the ledger's telemetry handles.
type counters struct {
	appends, acks, recovered, compactions *telemetry.Counter
	commits, fsyncs, rotations            *telemetry.Counter
	pending, segments                     *telemetry.Gauge
	appendNs, commitNs                    *telemetry.Histogram
	groupSize                             *telemetry.Histogram
}

// Options configure Open.
type Options struct {
	// Sync makes a commit durable against machine crashes: each committed
	// batch is fsynced before its Append callers return. Without it the
	// ledger still survives process crashes. Group commit coalesces
	// concurrent appends so the cost is per batch, not per message.
	Sync bool
	// Metrics is the telemetry registry the ledger's counters live in
	// (the host shares its registry here); nil creates a private one.
	Metrics *telemetry.Registry
	// Recorder is the process flight recorder; a non-empty recovery at
	// Open is recorded into it so a post-restart dump shows how much
	// undelivered backlog the process came back with. Nil disables it.
	Recorder *telemetry.Recorder
}

// Open opens or creates a ledger, replaying any existing segments. path
// names the ledger; segment files live beside it as "<path>.<seq>.seg" (a
// pre-segmentation monolithic file at exactly path is migrated in place).
// A trailing partial record in the newest segment (from a crash
// mid-commit) is truncated away; corruption anywhere earlier is reported
// as ErrCorrupt.
func Open(path string, opts Options) (*Ledger, error) {
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	l := &Ledger{
		path:    path,
		dir:     filepath.Dir(path),
		sync:    opts.Sync,
		segMax:  defaultSegmentBytes,
		pending: make(map[uint64]entryState),
	}
	l.ctr = counters{
		appends:     reg.Counter("ledger.appends"),
		acks:        reg.Counter("ledger.acks"),
		recovered:   reg.Counter("ledger.recovered"),
		compactions: reg.Counter("ledger.compactions"),
		commits:     reg.Counter("ledger.commits"),
		fsyncs:      reg.Counter("ledger.fsyncs"),
		rotations:   reg.Counter("ledger.rotations"),
		pending:     reg.Gauge("ledger.pending"),
		segments:    reg.Gauge("ledger.segments"),
		appendNs:    reg.Histogram("ledger.append_ns"),
		commitNs:    reg.Histogram("ledger.commit_ns"),
		groupSize:   reg.Histogram("ledger.group_size"),
	}
	if err := l.openSegments(); err != nil {
		l.closeSegments()
		return nil, err
	}
	l.cur = l.newBatchLocked()
	l.ctr.recovered.Add(uint64(len(l.pending)))
	l.ctr.pending.Set(int64(len(l.pending)))
	l.ctr.segments.Set(int64(len(l.segs)))
	if opts.Recorder != nil && len(l.pending) > 0 {
		opts.Recorder.Record(telemetry.EventRecover, "ledger", int64(len(l.pending)), 0)
	}
	return l, nil
}

// Append logs a message before transmission and returns its ledger ID. It
// returns once the record is committed — with Sync, once it is on disk —
// sharing the write and fsync with every other Append staged into the
// same batch. The commit may run on this caller's thread, and with it the
// commit hook (SetOnCommit).
func (l *Ledger) Append(subject string, payload []byte) (uint64, error) {
	id, _, err := l.AppendTimed(subject, payload)
	return id, err
}

// AppendTimings are the intra-ledger stage timestamps of one append, in
// unix nanoseconds. They become the guaranteed-path trace hops
// (busproto.HopLedgerStage / HopGroupCommit / HopFsync) when the
// publication is sampled for tracing.
type AppendTimings struct {
	StagedAt int64 // record staged into the forming group-commit batch
	CommitAt int64 // batch write completed (0 if the write failed)
	SyncedAt int64 // batch fsync completed (0 without Options.Sync)
}

// AppendTimed is Append plus the stage timestamps of the batch the record
// committed in. The stamps are per batch (one clock read per stage per
// flush), so two appends sharing a batch report identical CommitAt.
func (l *Ledger) AppendTimed(subject string, payload []byte) (uint64, AppendTimings, error) {
	start := time.Now()
	tm := AppendTimings{StagedAt: start.UnixNano()}
	l.mu.Lock()
	if err := l.refuseLocked(); err != nil {
		l.mu.Unlock()
		return 0, tm, err
	}
	id := l.nextID
	l.nextID++
	b := l.cur
	off := len(b.buf)
	b.buf = appendRecord(b.buf, record{typ: recMessage, id: id, subject: subject, payload: payload})
	b.msgIDs = append(b.msgIDs, id)
	b.recs++
	b.waiters++
	l.pending[id] = entryState{id: id, subject: subject, off: int64(off), n: len(b.buf) - off}
	l.ctr.appends.Inc()
	l.ctr.pending.Set(int64(len(l.pending)))
	err := l.awaitLocked(b, &tm)
	l.mu.Unlock()
	l.ctr.appendNs.Observe(time.Since(start))
	return id, tm, err
}

// awaitLocked blocks one of b's waiters until b is flushed, and returns
// the batch's error (and, with tm, its stamps). A waiter that finds no
// commit in flight leads one; b is then the forming batch, since a batch
// taken by a leader is flushed before the lead is given up. The last
// waiter frees the batch. Caller holds l.mu.
func (l *Ledger) awaitLocked(b *batch, tm *AppendTimings) error {
	for !b.flushed {
		if !l.committing {
			l.commitLocked(true)
			continue
		}
		b.cond.Wait()
	}
	err := b.err
	if tm != nil {
		tm.CommitAt, tm.SyncedAt = b.commitAt, b.syncAt
	}
	if b.waiters--; b.waiters == 0 {
		l.freeLocked(b)
	}
	return err
}

// Ack records that the message with the given ID was acknowledged; it
// will not be reported as pending after a restart. Ack only stages the
// ack record: it never waits for the disk and starts no commit. The record
// rides the next batch, a Flush or Close. If a crash loses an unflushed
// ack, the message is retransmitted once more after replay and the
// consumer-side (origin, id) dedup absorbs it.
func (l *Ledger) Ack(id uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.refuseLocked(); err != nil {
		return err
	}
	st, ok := l.pending[id]
	if !ok {
		return nil // duplicate ack: idempotent
	}
	delete(l.pending, id)
	if st.seg != 0 {
		if s := l.segBySeqLocked(st.seg); s != nil {
			s.live--
		}
	}
	b := l.cur
	b.buf = appendRecord(b.buf, record{typ: recAck, id: id})
	b.recs++
	l.ctr.acks.Inc()
	l.ctr.pending.Set(int64(len(l.pending)))
	return nil
}

// Flush commits whatever is staged on the caller's thread; outside the
// ledger that is the ack records no append has carried yet. If a commit is
// already in flight it returns at once, and the staged records ride the
// next batch, a later Flush or Close. With Options.Sync the commit fsyncs.
func (l *Ledger) Flush() {
	l.mu.Lock()
	if !l.committing && l.cur.recs > 0 {
		l.commitLocked(false)
	}
	l.mu.Unlock()
}

// Pending returns every committed, unacknowledged message, oldest first,
// with its payload read back from the log into one buffer the entries
// share. Each payload's capacity ends at its length, so an append to one
// copies it. A message whose batch is still in flight, or whose record no
// longer reads back intact, is left out; after Close, every one is.
func (l *Ledger) Pending() []Entry {
	var out []Entry
	l.ForEachPending(func(e *Entry) bool {
		out = append(out, *e)
		return true
	})
	out, _, _ = l.ReadPayloads(out, nil)
	return out
}

// ForEachPending calls f for every pending message, oldest first, without
// allocating: the ids and subjects are copied into a reused internal
// buffer under the lock, then f runs with no ledger lock held (so it may
// Ack, Append, or publish). Payload is nil: ReadPayloads reads back the
// entries that need theirs. f returns false to stop early. The *Entry is
// only valid during the call; an entry acked concurrently may still be
// visited once (guaranteed delivery is at-least-once). Concurrent walks
// are safe: one takes the buffer, the others build their own.
func (l *Ledger) ForEachPending(f func(e *Entry) bool) {
	l.mu.Lock()
	if len(l.pending) == 0 {
		l.mu.Unlock()
		return
	}
	buf := l.iterBuf[:0]
	l.iterBuf = nil
	for _, st := range l.pending {
		buf = append(buf, Entry{ID: st.id, Subject: st.subject})
	}
	l.mu.Unlock()
	slices.SortFunc(buf, byID)
	for i := range buf {
		if !f(&buf[i]) {
			break
		}
	}
	clear(buf) // a walked entry pins no subject
	l.mu.Lock()
	if l.iterBuf == nil {
		l.iterBuf = buf
	}
	l.mu.Unlock()
}

// UnreadableError names the pending messages whose committed records a read
// refused: damaged on disk, or not read at all. Err is the first refusal's
// cause (ErrCorrupt for a damaged record), which errors.Is sees through.
type UnreadableError struct {
	IDs []uint64
	Err error
}

func (e *UnreadableError) Error() string {
	return fmt.Sprintf("ledger: %d pending message(s) unreadable, first: %v", len(e.IDs), e.Err)
}

func (e *UnreadableError) Unwrap() error { return e.Err }

// ReadPayloads fills in the payload of each entry in es, reading its
// committed record back from the log into buf, which it grows as needed
// and returns for reuse. It returns es less the entries it could not fill,
// in their order: those acknowledged since they were listed, those whose
// batch is still in flight (the next read finds them committed), and
// those whose record no longer reads back intact, which the returned
// *UnreadableError names. The payloads are views of buf, valid until buf
// is reused. Once buf is large enough it allocates nothing, unless it
// refuses a record.
func (l *Ledger) ReadPayloads(es []Entry, buf []byte) ([]Entry, []byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Size buf for every record first, so growing it never moves a payload
	// already read.
	total := 0
	for i := range es {
		if st, ok := l.pending[es[i].ID]; ok && st.seg != 0 {
			total += st.n
		}
	}
	buf = slices.Grow(buf[:0], total)
	var refused *UnreadableError
	k := 0
	for _, e := range es {
		st, ok := l.pending[e.ID]
		if !ok || st.seg == 0 {
			continue
		}
		var err error
		if buf, e.Payload, err = l.readRecordLocked(buf, st); err != nil {
			if refused == nil {
				refused = &UnreadableError{Err: err}
			}
			refused.IDs = append(refused.IDs, e.ID)
			continue
		}
		es[k] = e
		k++
	}
	clear(es[k:])
	if refused != nil {
		return es[:k], buf, refused
	}
	return es[:k], buf, nil
}

func byID(a, b Entry) int { return cmp.Compare(a.ID, b.ID) }

// Len returns the number of pending (unacknowledged) messages.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// Close waits for the commit in flight, commits what is still staged
// itself, and releases the active segment.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true // nothing stages into cur from here on
	b := l.cur
	b.waiters++
	_ = l.awaitLocked(b, nil)
	return l.closeSegments()
}

// closeSegments closes every segment's file and returns the first error.
func (l *Ledger) closeSegments() error {
	var err error
	for _, s := range l.segs {
		err = cmp.Or(err, s.f.Close())
	}
	return err
}

// refuseLocked returns why the ledger takes no more records, or nil.
func (l *Ledger) refuseLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.broken
}

func (l *Ledger) segBySeqLocked(seq uint64) *segment {
	for _, s := range l.segs {
		if s.seq == seq {
			return s
		}
	}
	return nil
}
