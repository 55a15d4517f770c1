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
// Durability is group-committed: concurrent Append callers stage records
// into the current batch and block only until a committer goroutine has
// flushed that batch with a single write (and, with Sync, a single fsync).
// Under contention the fsync cost is paid once per batch instead of once
// per message; an uncontended Append commits immediately with no added
// linger. Ack records ride the same pipeline but never block the caller:
// losing an unflushed ack in a crash only means the message is
// retransmitted once more, and consumers' (origin, id) dedup absorbs it.
//
// Compaction is incremental: fully-acknowledged leading segments are
// unlinked as soon as the log rotates past them, and Compact rewrites only
// the oldest partially-acknowledged segment — appends keep flowing to the
// active segment throughout.
package ledger

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"infobus/internal/telemetry"
)

// DefaultSegmentBytes is the segment rotation threshold when
// Options.SegmentBytes is zero.
const DefaultSegmentBytes = 4 << 20

// linger bounds the extra wait a commit spends letting a forming group
// reach the size of the previous one, once contention is proven (the
// previous batch carried more than one Append). Goroutine wake-up can be
// slower than a small fsync, so without this the pipeline can degenerate
// into near-singleton batches. An uncontended Append never waits.
const linger = 100 * time.Microsecond

// DefaultAckLinger is the deferred-commit window for batches holding only
// ack records when Options.AckLinger is zero; see Options.AckLinger.
const DefaultAckLinger = 2 * time.Millisecond

// Entry is one logged, possibly unacknowledged message.
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

// entryState is a pending message plus the segment its record lives in
// (seg == 0 until the record's batch has been committed).
type entryState struct {
	e   Entry
	seg uint64
}

// segment is one log file. segs[len-1] is the active (append) segment;
// live counts the pending messages whose records it holds.
type segment struct {
	seq  uint64
	path string
	size int64
	live int
}

// batch is one group-commit unit: the staged record bytes of every caller
// that arrived while the previous batch was being flushed. done is closed
// once the batch is durable (err set first).
type batch struct {
	buf    []byte
	msgIDs []uint64 // ids of recMessage records staged in this batch
	recs   int
	rotate bool // a Compact waiter asked for rotation after this batch
	err    error
	done   chan struct{}
	// Stage timestamps (unix nanoseconds), written by writeBatch before
	// done closes so AppendTimed waiters read them race-free: commitAt
	// after the segment write, syncAt after the fsync (0 without Sync).
	// They feed the guaranteed-path trace hops (busproto.HopGroupCommit,
	// HopFsync); cost is two clock reads per batch, not per record.
	commitAt int64
	syncAt   int64
}

// Ledger is a crash-safe append-only message log. It is safe for
// concurrent use.
type Ledger struct {
	path      string // segment name prefix: <path>.<seq>.seg
	dir       string
	sync      bool
	ackLinger time.Duration
	segMax    int64

	kick chan struct{} // committer wake-up (buffered, non-blocking send)
	stop chan struct{}
	wg   sync.WaitGroup

	mu         sync.Mutex
	closed     bool
	onCommit   func(cb CommitBatch) // replication hook; see SetOnCommit
	commitSeq  uint64               // batches committed so far (hook's Seq)
	lastCohort int                  // appenders woken by the previous flush (linger target)
	ackTimer   *time.Timer          // pending deferred-ack kick; see Options.AckLinger
	nextID     uint64
	pending    map[uint64]*entryState
	segs       []*segment
	f          *os.File // active segment, append position at EOF
	cur        *batch
	bufFree    [][]byte
	idsFree    [][]uint64
	iterBuf    []Entry
	compacting bool

	// compactHold, when non-nil, blocks Compact between writing the
	// rewritten segment and swapping it in — a test seam proving Append
	// never waits on a compaction in progress.
	compactHold chan struct{}

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
	// SegmentBytes is the rotation threshold for one segment file; the
	// active segment is rolled once it grows past this. <= 0 selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// AckLinger defers the commit kick when the staged batch holds only
	// ack records. Nothing waits on an ack commit and its durability is
	// advisory (a crash that loses recent acks causes re-deliveries that
	// consumers dedup), but under a steady ack trickle an immediate kick
	// buys each ack its own fsync and starves message appends of cohort
	// partners. Deferred acks ride the next message batch, the deferral
	// timer, or Close — they are never dropped while the process lives.
	// Zero selects DefaultAckLinger; negative disables deferral.
	AckLinger time.Duration
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
	segMax := opts.SegmentBytes
	if segMax <= 0 {
		segMax = DefaultSegmentBytes
	}
	ackLinger := opts.AckLinger
	if ackLinger == 0 {
		ackLinger = DefaultAckLinger
	} else if ackLinger < 0 {
		ackLinger = 0
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	l := &Ledger{
		path:      path,
		dir:       filepath.Dir(path),
		sync:      opts.Sync,
		ackLinger: ackLinger,
		segMax:    segMax,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		pending:   make(map[uint64]*entryState),
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
		return nil, err
	}
	l.cur = l.newBatchLocked()
	l.ctr.recovered.Add(uint64(len(l.pending)))
	l.ctr.pending.Set(int64(len(l.pending)))
	l.ctr.segments.Set(int64(len(l.segs)))
	if opts.Recorder != nil && len(l.pending) > 0 {
		opts.Recorder.Record(telemetry.EventRecover, "ledger", int64(len(l.pending)), 0)
	}
	l.wg.Add(1)
	go l.commitLoop()
	return l, nil
}

// Append logs a message before transmission and returns its ledger ID. It
// returns once the record is committed — with Sync, once it is on disk —
// sharing the write and fsync with every other Append staged into the
// same batch.
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
	if l.closed {
		l.mu.Unlock()
		return 0, tm, ErrClosed
	}
	id := l.nextID
	l.nextID++
	b := l.cur
	b.buf = appendRecord(b.buf, record{typ: recMessage, id: id, subject: subject, payload: payload})
	b.msgIDs = append(b.msgIDs, id)
	b.recs++
	l.pending[id] = &entryState{e: Entry{ID: id, Subject: subject, Payload: append([]byte(nil), payload...)}}
	l.ctr.appends.Inc()
	l.ctr.pending.Set(int64(len(l.pending)))
	l.mu.Unlock()
	l.kickCommitter()
	<-b.done // close(done) orders the committer's stamp writes before these reads
	tm.CommitAt, tm.SyncedAt = b.commitAt, b.syncAt
	l.ctr.appendNs.Observe(time.Since(start))
	return id, tm, b.err
}

// Ack records that the message with the given ID was acknowledged; it
// will not be reported as pending after a restart. The ack record rides
// the commit pipeline asynchronously: Ack never waits for the disk. If a
// crash loses an unflushed ack, the message is retransmitted once more
// after replay and the consumer-side (origin, id) dedup absorbs it.
func (l *Ledger) Ack(id uint64) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	st, ok := l.pending[id]
	if !ok {
		l.mu.Unlock()
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
	// A batch of nothing but ack records has no waiter: defer its kick so
	// the acks ride a message batch instead of buying their own fsync.
	if l.ackLinger > 0 && len(b.msgIDs) == 0 {
		if l.ackTimer == nil {
			l.ackTimer = time.AfterFunc(l.ackLinger, func() {
				l.mu.Lock()
				l.ackTimer = nil
				l.mu.Unlock()
				l.kickCommitter()
			})
		}
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	l.kickCommitter()
	return nil
}

// Pending returns every logged-but-unacknowledged message, oldest first.
// The returned payload slices are the ledger's own; callers must not
// mutate them.
func (l *Ledger) Pending() []Entry {
	l.mu.Lock()
	out := make([]Entry, 0, len(l.pending))
	for _, st := range l.pending {
		out = append(out, st.e)
	}
	l.mu.Unlock()
	slices.SortFunc(out, func(a, b Entry) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	return out
}

// ForEachPending calls f for every pending message, oldest first, without
// allocating: the entries are copied into a reused internal buffer under
// the lock, then f runs with no ledger lock held (so it may Ack, Append,
// or publish). f returns false to stop early. The *Entry and its payload
// are only valid during the call; an entry acked concurrently may still
// be visited once (guaranteed delivery is at-least-once).
func (l *Ledger) ForEachPending(f func(e *Entry) bool) {
	l.mu.Lock()
	if len(l.pending) == 0 {
		l.mu.Unlock()
		return
	}
	buf := l.iterBuf[:0]
	for _, st := range l.pending {
		buf = append(buf, st.e)
	}
	l.iterBuf = buf
	l.mu.Unlock()
	slices.SortFunc(buf, func(a, b Entry) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	for i := range buf {
		if !f(&buf[i]) {
			return
		}
	}
}

// Len returns the number of pending (unacknowledged) messages.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// Close flushes staged records and releases the active segment.
func (l *Ledger) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.ackTimer != nil {
		l.ackTimer.Stop() // a late firing is harmless; the drain below covers it
		l.ackTimer = nil
	}
	l.mu.Unlock()
	close(l.stop)
	l.wg.Wait() // the committer drains staged acks before exiting
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

func (l *Ledger) segBySeqLocked(seq uint64) *segment {
	for _, s := range l.segs {
		if s.seq == seq {
			return s
		}
	}
	return nil
}
