package ledger

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// Group-commit pipeline. Append and Ack stage encoded records into l.cur
// under l.mu and kick the committer; the committer swaps in a fresh batch,
// releases the lock, and flushes the taken batch with one write and (with
// Sync) one fsync. Every caller that staged into the batch becomes
// durable together — the leader/follower pattern with the committer
// goroutine as the permanent leader. While a flush is in progress new
// callers stage into the next batch, so the group size adapts to
// contention by itself: an uncontended Append commits alone with no added
// wait, and N publishers racing a slow disk share one fsync per flush.

// newBatchLocked builds the next staging batch, reusing recycled buffer
// backing arrays. Caller holds l.mu (or is the only ledger reference, in
// Open).
func (l *Ledger) newBatchLocked() *batch {
	b := &batch{done: make(chan struct{})}
	if n := len(l.bufFree); n > 0 {
		b.buf = l.bufFree[n-1]
		l.bufFree = l.bufFree[:n-1]
	}
	if n := len(l.idsFree); n > 0 {
		b.msgIDs = l.idsFree[n-1]
		l.idsFree = l.idsFree[:n-1]
	}
	return b
}

// recycleLocked returns a flushed batch's backing arrays to the free
// lists. The batch struct itself is not reused: late waiters may still be
// reading err after done closes.
func (l *Ledger) recycleLocked(b *batch) {
	if cap(b.buf) > 0 && len(l.bufFree) < 4 {
		l.bufFree = append(l.bufFree, b.buf[:0])
	}
	if cap(b.msgIDs) > 0 && len(l.idsFree) < 4 {
		l.idsFree = append(l.idsFree, b.msgIDs[:0])
	}
	b.buf, b.msgIDs = nil, nil
}

func (l *Ledger) kickCommitter() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

func (l *Ledger) commitLoop() {
	defer l.wg.Done()
	for {
		select {
		case <-l.kick:
		case <-l.stop:
			for l.flushOnce() {
			}
			return
		}
		for l.flushOnce() {
		}
	}
}

// flushOnce commits the currently staged batch, if any. It reports
// whether there was one (so the committer drains back-to-back batches
// without waiting for another kick).
func (l *Ledger) flushOnce() bool {
	l.mu.Lock()
	b := l.cur
	if b.recs == 0 && !b.rotate {
		l.mu.Unlock()
		return false
	}
	// Bounded linger: closing the previous batch's done channel woke its
	// cohort of appenders, who are re-staging right now — but goroutine
	// wake-up can be slower than a small fsync, and flushing before the
	// cohort lands degenerates the pipeline into near-singleton batches.
	// So when the previous batch proved contention (cohort > 1), give the
	// forming batch up to linger to reach that size again. Uncontended
	// appends (cohort <= 1) never wait.
	if l.lastCohort > 1 && len(b.msgIDs) < l.lastCohort {
		deadline := time.Now().Add(linger)
		for len(b.msgIDs) < l.lastCohort {
			l.mu.Unlock()
			runtime.Gosched()
			l.mu.Lock()
			if time.Now().After(deadline) {
				break
			}
		}
	}
	l.lastCohort = len(b.msgIDs)
	l.cur = l.newBatchLocked()
	f := l.f
	seg := l.segs[len(l.segs)-1]
	hook := l.onCommit
	l.mu.Unlock()

	err := l.writeBatch(f, b)
	if err == nil && hook != nil && b.recs > 0 {
		// Replication hook: the batch is durable but its Append callers
		// have not woken yet (done closes below), so a publisher returning
		// from Append can rely on the batch having been mirrored already.
		// Only the committer touches commitSeq.
		l.commitSeq++
		hook(CommitBatch{Seq: l.commitSeq, Records: b.buf, MsgIDs: b.msgIDs})
	}

	l.mu.Lock()
	l.creditBatchLocked(b, seg)
	needRotate := err == nil && (b.rotate || seg.size >= l.segMax)
	if needRotate {
		if rerr := l.rotateLocked(); rerr != nil {
			err = rerr
		}
	}
	l.recycleLocked(b)
	l.mu.Unlock()

	b.err = err
	close(b.done)
	return true
}

// writeBatch puts one batch on disk: a single write, then a single fsync
// when Sync is on. No ledger lock is held — this is the window in which
// the next group forms.
func (l *Ledger) writeBatch(f *os.File, b *batch) error {
	if len(b.buf) == 0 {
		return nil // rotation-only batch
	}
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
// written into: size growth plus the live count of its message records.
// A message already acked while its batch was in flight stays uncounted —
// its ack record trails in a later batch and replay nets the two out.
func (l *Ledger) creditBatchLocked(b *batch, seg *segment) {
	seg.size += int64(len(b.buf))
	for _, id := range b.msgIDs {
		if st, ok := l.pending[id]; ok && st.seg == 0 {
			st.seg = seg.seq
			seg.live++
		}
	}
}
