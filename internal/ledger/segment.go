package ledger

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Segment files live beside the configured path as "<path>.<seq>.seg"
// with an 8-digit monotonically increasing sequence number; replay order
// is sequence order. A pre-segmentation ledger (a monolithic file at
// exactly path) is adopted as the oldest segment on first open.
//
// Crash-safety rule: every rename, create, and unlink in this file is
// followed by an fsync of the containing directory. os.Rename alone only
// orders the change in the page cache — without the directory sync a
// crash can resurrect a pre-compaction file or lose a freshly created
// segment, and replay would then double-count or drop pending messages.

func segPath(base string, seq uint64) string {
	return fmt.Sprintf("%s.%08d.seg", base, seq)
}

// fsyncDir makes a directory-entry change (rename/create/unlink) durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("ledger: syncing directory %s: %w", dir, serr)
	}
	return cerr
}

// scanSegments lists the existing segment sequence numbers for base,
// sorted ascending.
func scanSegments(base string) ([]uint64, error) {
	dir := filepath.Dir(base)
	prefix := filepath.Base(base) + "."
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ledger: scanning %s: %w", dir, err)
	}
	var seqs []uint64
	for _, de := range names {
		name := de.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".seg") {
			continue
		}
		mid := name[len(prefix) : len(name)-len(".seg")]
		if len(mid) != 8 {
			continue
		}
		seq, err := strconv.ParseUint(mid, 10, 64)
		if err != nil || seq == 0 {
			continue
		}
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	return seqs, nil
}

// openSegments discovers (or creates) the segment files, replays them in
// order rebuilding the pending set, truncates a torn tail off the newest
// segment, and leaves l.f open at the append position. Called from Open
// before the committer starts, so no locking.
func (l *Ledger) openSegments() error {
	seqs, err := scanSegments(l.path)
	if err != nil {
		return err
	}
	// Adopt a pre-segmentation monolithic ledger as the oldest segment.
	if fi, err := os.Stat(l.path); err == nil && fi.Mode().IsRegular() {
		if len(seqs) > 0 {
			return fmt.Errorf("ledger: both %s and segment files exist: %w", l.path, ErrCorrupt)
		}
		if err := os.Rename(l.path, segPath(l.path, 1)); err != nil {
			return fmt.Errorf("ledger: migrating %s: %w", l.path, err)
		}
		if err := fsyncDir(l.dir); err != nil {
			return err
		}
		seqs = []uint64{1}
	}
	if len(seqs) == 0 {
		f, err := os.OpenFile(segPath(l.path, 1), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("ledger: creating %s: %w", segPath(l.path, 1), err)
		}
		if err := fsyncDir(l.dir); err != nil {
			_ = f.Close()
			return err
		}
		l.f = f
		l.segs = []*segment{{seq: 1, path: segPath(l.path, 1)}}
		return nil
	}
	tornTail := false
	for i, seq := range seqs {
		path := segPath(l.path, seq)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("ledger: reading %s: %w", path, err)
		}
		validEnd, err := l.replaySegment(seq, data, i == len(seqs)-1)
		if err != nil {
			return fmt.Errorf("ledger: %s: %w", path, err)
		}
		if i == len(seqs)-1 && validEnd < len(data) {
			tornTail = true
		}
		l.segs = append(l.segs, &segment{seq: seq, path: path, size: int64(validEnd)})
	}
	// Live counts: attribute each surviving pending entry to its segment.
	for _, st := range l.pending {
		if s := l.segBySeqLocked(st.seg); s != nil {
			s.live++
		}
	}
	active := l.segs[len(l.segs)-1]
	f, err := os.OpenFile(active.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: reopening %s: %w", active.path, err)
	}
	if err := f.Truncate(active.size); err != nil {
		_ = f.Close()
		return fmt.Errorf("ledger: truncating torn tail of %s: %w", active.path, err)
	}
	if tornTail {
		// Removing a torn tail is a recovery-time mutation and must be as
		// durable as the rename/create/unlink paths: fsync the file so the
		// truncation itself survives a crash right after replay, and the
		// directory so the metadata change does too. Without this a second
		// crash could resurrect the torn bytes mid-file once new appends
		// land beyond them, turning a tolerated tear into real corruption.
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("ledger: syncing truncated %s: %w", active.path, err)
		}
		l.ctr.fsyncs.Inc()
		if err := fsyncDir(l.dir); err != nil {
			_ = f.Close()
			return err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return err
	}
	l.f = f
	return nil
}

// replaySegment applies one segment's records to the pending set and
// returns the byte length of the valid prefix. A torn trailing record is
// tolerated only in the newest segment (a crash mid-commit); anywhere
// earlier the log was rotated past it, so the tear is real corruption.
func (l *Ledger) replaySegment(seq uint64, data []byte, newest bool) (int, error) {
	off := 0
	for off < len(data) {
		rec, n, err := parseRecord(data[off:])
		if err != nil {
			if errors.Is(err, errTorn) && newest {
				return off, nil
			}
			return 0, fmt.Errorf("at offset %d: %w", off, err)
		}
		switch rec.typ {
		case recMessage:
			l.pending[rec.id] = &entryState{
				e:   Entry{ID: rec.id, Subject: rec.subject, Payload: rec.payload},
				seg: seq,
			}
		case recAck:
			delete(l.pending, rec.id)
		}
		if rec.id >= l.nextID {
			l.nextID = rec.id + 1
		}
		off += n
	}
	return off, nil
}

// rotateLocked rolls the active segment: fsync it (so a non-newest
// segment is always complete on disk, whatever Options.Sync says), open
// the next sequence number, fsync the directory, and drop any leading
// fully-acked segments that rotation has made removable.
func (l *Ledger) rotateLocked() error {
	old := l.f
	if err := old.Sync(); err != nil {
		return fmt.Errorf("ledger: syncing before rotation: %w", err)
	}
	l.ctr.fsyncs.Inc()
	seq := l.segs[len(l.segs)-1].seq + 1
	path := segPath(l.path, seq)
	nf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: creating %s: %w", path, err)
	}
	if err := fsyncDir(l.dir); err != nil {
		_ = nf.Close()
		return err
	}
	_ = old.Close()
	l.f = nf
	l.segs = append(l.segs, &segment{seq: seq, path: path})
	l.ctr.rotations.Inc()
	l.dropAckedLocked()
	l.ctr.segments.Set(int64(len(l.segs)))
	return nil
}

// dropAckedLocked unlinks leading segments with no pending messages left.
// Their ack records can only reference their own (or earlier, already
// dropped) messages, so removing the whole file preserves the replayed
// pending set exactly.
func (l *Ledger) dropAckedLocked() {
	dropped := false
	for len(l.segs) > 1 && l.segs[0].live == 0 {
		s := l.segs[0]
		l.segs = l.segs[1:]
		_ = os.Remove(s.path)
		dropped = true
	}
	if dropped {
		_ = fsyncDir(l.dir)
		l.ctr.segments.Set(int64(len(l.segs)))
	}
}

// Compact runs one incremental compaction pass: rotate the active segment
// (so every record logged so far becomes compactable), unlink leading
// fully-acked segments, and rewrite the oldest partially-acked segment
// keeping only its pending messages. Appends are never blocked for the
// rewrite — they flow to the active segment throughout; only the brief
// metadata swaps take the ledger lock.
func (l *Ledger) Compact() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.compacting {
		l.mu.Unlock()
		return nil // one pass at a time; the running one covers this call
	}
	l.compacting = true
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.compacting = false
		l.mu.Unlock()
	}()

	if err := l.forceRotate(); err != nil {
		return err
	}

	// Snapshot the oldest segment's pending entries under the lock...
	l.mu.Lock()
	hold := l.compactHold
	var target *segment
	if len(l.segs) > 1 && l.segs[0] != l.segs[len(l.segs)-1] {
		target = l.segs[0]
	}
	var entries []Entry
	if target != nil {
		for _, st := range l.pending {
			if st.seg == target.seq {
				entries = append(entries, st.e)
			}
		}
	}
	l.mu.Unlock()
	if target == nil {
		l.ctr.compactions.Inc()
		return nil
	}
	slices.SortFunc(entries, func(a, b Entry) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})

	// ...and rewrite it with no ledger lock held. An entry acked during
	// the rewrite is still written as a message here, but its ack record
	// already rides a later segment, so replay nets the pair out.
	tmpPath := target.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: creating %s: %w", tmpPath, err)
	}
	var buf []byte
	for _, e := range entries {
		buf = appendRecord(buf[:0], record{typ: recMessage, id: e.ID, subject: e.Subject, payload: e.Payload})
		if _, err := tmp.Write(buf); err != nil {
			_ = tmp.Close()
			return fmt.Errorf("ledger: rewriting %s: %w", target.path, err)
		}
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	l.ctr.fsyncs.Inc()
	size, err := tmp.Seek(0, io.SeekEnd)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if hold != nil {
		<-hold // test seam: prove appends proceed while compaction stalls
	}
	if err := os.Rename(tmpPath, target.path); err != nil {
		return fmt.Errorf("ledger: swapping compacted segment: %w", err)
	}
	if err := fsyncDir(l.dir); err != nil {
		return err
	}
	l.mu.Lock()
	target.size = size
	l.mu.Unlock()
	l.ctr.compactions.Inc()
	return nil
}

// forceRotate rolls the active segment. The request rides the pipeline as
// a rotation marker so the committer (the only writer of l.f) performs it
// between batches.
func (l *Ledger) forceRotate() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	b := l.cur
	b.rotate = true
	l.mu.Unlock()
	l.kickCommitter()
	<-b.done
	return b.err
}
