package ledger

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// Group-commit pipeline, leader/follower style with no thread of its own
// (the classic form is the MySQL binlog group commit). Append, AppendBatch
// and Ack stage encoded records into l.cur under l.mu. An appender that
// finds no commit in flight leads: it takes the forming batch, swaps in the
// next one, releases the lock, and writes the taken batch with one write
// and (with Sync) one fsync on its own thread. Every caller that staged into
// the batch becomes durable together. Callers that arrive meanwhile stage
// into the next batch and wait on it; when the write returns, the leader
// wakes one of them to lead that batch, and returns. So the group size
// adapts to contention by itself: an uncontended Append commits alone with
// no added wait, and N publishers racing a slow disk share one fsync per
// commit.

// newBatchLocked returns the next staging batch, from the free list when
// it has one. Caller holds l.mu (or is the only ledger reference, in Open).
func (l *Ledger) newBatchLocked() *batch {
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free = l.free[:n-1]
		return b
	}
	b := &batch{}
	b.cond.L = &l.mu
	return b
}

// freeLocked empties a flushed batch nobody waits on any more and puts it,
// with its buffers, on the free list if there is room.
func (l *Ledger) freeLocked(b *batch) {
	if len(l.free) == maxFreeBatches {
		return
	}
	b.buf, b.msgIDs, b.recs = b.buf[:0], b.msgIDs[:0], 0
	b.flushed, b.commitAt, b.syncAt = false, 0, 0
	l.free = append(l.free, b)
}

// commitLocked leads one commit: it takes the forming batch, writes it
// with l.mu released, then credits or drops it, wakes its waiters, and
// wakes one waiter of the batch that formed meanwhile to lead that one.
// Caller holds l.mu and has seen no commit in flight; l.mu is held again on
// return. An empty batch (a Close with nothing staged) is not written.
func (l *Ledger) commitLocked(mayLinger bool) {
	l.committing = true
	b := l.cur
	// Where a larger group saves work (see linger), an appender that leads
	// yields once, so appenders woken together (a quorum ack releases a
	// burst of publishers) join its batch, then lingers while the group is
	// short of the previous one's size. Flush (!mayLinger; it may run on the
	// host loop) and a closed ledger (nothing more can stage) commit at once.
	if mayLinger && !l.closed && (l.sync || l.onCommit != nil) {
		deadline := time.Now().Add(linger)
		for {
			l.mu.Unlock()
			runtime.Gosched()
			l.mu.Lock()
			if l.lastCohort <= 1 || b.waiters >= l.lastCohort || !time.Now().Before(deadline) {
				break
			}
		}
	}
	l.lastCohort = b.waiters
	l.cur = l.newBatchLocked()
	f := l.f
	seg := l.segs[len(l.segs)-1]
	hook := l.onCommit
	err := l.broken // nothing is committed behind bytes that could not be rewound
	l.mu.Unlock()

	if err == nil && b.recs > 0 {
		if err = l.writeBatch(f, b); err == nil && hook != nil {
			// Replication hook: the batch is durable but its Append callers
			// have not woken yet (flushed is set below), so a publisher
			// returning from Append can rely on the batch having been
			// mirrored already. Only the leader touches commitSeq.
			l.commitSeq++
			hook(CommitBatch{Seq: l.commitSeq, Records: b.buf, MsgIDs: b.msgIDs})
		}
	}

	l.mu.Lock()
	if err != nil {
		l.dropBatchLocked(b, seg)
	} else {
		l.creditBatchLocked(b, seg)
		if seg.size-seg.carried >= l.segMax {
			err = l.rotateLocked()
		}
	}
	b.err, b.flushed = err, true
	l.committing = false
	if b.waiters == 0 {
		l.freeLocked(b)
	} else {
		b.cond.Broadcast()
	}
	if l.cur.waiters > 0 {
		l.cur.cond.Signal()
	}
}

// writeBatch puts one batch on disk: a single write, then a single fsync
// when Sync is on. No ledger lock is held — this is the window in which
// the next group forms.
func (l *Ledger) writeBatch(f *os.File, b *batch) error {
	start := time.Now()
	var err error
	if _, err = f.Write(b.buf); err != nil {
		err = fmt.Errorf("ledger: appending: %w", err)
	} else {
		b.commitAt = time.Now().UnixNano()
		if l.sync {
			if serr := f.Sync(); serr != nil {
				err = fmt.Errorf("ledger: syncing: %w", serr)
			} else {
				b.syncAt = time.Now().UnixNano()
			}
			l.ctr.fsyncs.Inc()
		}
	}
	l.ctr.commits.Inc()
	l.ctr.commitNs.Observe(time.Since(start))
	l.ctr.groupSize.Observe(time.Duration(b.recs)) // count-valued, see DESIGN.md
	return err
}

// creditBatchLocked accounts a flushed batch to the segment it was
// written into: size growth plus the live count of its message records,
// each of which now has its location there (the batch started at the
// segment's old size). A message already acked while its batch was in
// flight stays uncounted — its ack record trails in a later batch and
// replay nets the two out.
func (l *Ledger) creditBatchLocked(b *batch, seg *segment) {
	base := seg.size
	seg.size += int64(len(b.buf))
	for _, id := range b.msgIDs {
		if st, ok := l.pending[id]; ok && st.seg == 0 {
			st.seg, st.off = seg.seq, base+st.off
			l.pending[id] = st
			seg.live++
		}
	}
}

// dropBatchLocked undoes a batch whose write failed: its messages leave
// the pending set (their Append callers get the error, so the retrier must
// not publish them, and a retransmitted replication chunk must be stored
// anew), and the segment is rewound to its credited size.
func (l *Ledger) dropBatchLocked(b *batch, seg *segment) {
	for _, id := range b.msgIDs {
		if st, ok := l.pending[id]; ok && st.seg == 0 {
			delete(l.pending, id)
		}
	}
	l.ctr.pending.Set(int64(len(l.pending)))
	l.rewindLocked(seg)
}

// rewindLocked truncates the active segment back to its credited size,
// removing whatever part of a failed write reached the file; the segment
// is opened O_APPEND, so the next write lands right after. If even the
// truncation fails the ledger is broken: every later Append, AppendBatch
// and Ack returns the error, because a record committed behind torn bytes
// would be cut away by replay.
func (l *Ledger) rewindLocked(seg *segment) {
	if l.broken != nil {
		return
	}
	if err := os.Truncate(seg.path, seg.size); err != nil {
		l.broken = fmt.Errorf("ledger: rewinding %s after a failed commit: %w", seg.path, err)
	}
}
