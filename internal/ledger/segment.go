package ledger

import (
	"cmp"
	"errors"
	"fmt"
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
// Crash-safety rules. Every rename, create, and unlink in this file is
// followed by an fsync of the containing directory: without it a crash can
// resurrect an unlinked segment or lose a freshly created one. And a
// segment is unlinked only once every pending message it held has a synced
// copy in a later segment — the carry writes the copies, the rotation that
// unlinks fsyncs them first. Replay keeps the last copy of a repeated id,
// so a crash between the two leaves each pending message pending once.

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
// before the ledger is shared, so no locking.
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
		f, err := os.OpenFile(segPath(l.path, 1), segFlags|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("ledger: creating %s: %w", segPath(l.path, 1), err)
		}
		l.f = f
		l.segs = []*segment{{seq: 1, path: segPath(l.path, 1), f: f}}
		return fsyncDir(l.dir)
	}
	tornTail := false
	for i, seq := range seqs {
		path := segPath(l.path, seq)
		f, err := os.OpenFile(path, segFlags, 0o644)
		if err != nil {
			return fmt.Errorf("ledger: opening %s: %w", path, err)
		}
		s := &segment{seq: seq, path: path, f: f}
		l.segs = append(l.segs, s)
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
		s.size = int64(validEnd)
	}
	for _, st := range l.pending {
		if s := l.segBySeqLocked(st.seg); s != nil {
			s.live++
		}
	}
	active := l.segs[len(l.segs)-1]
	l.f = active.f
	if err := l.f.Truncate(active.size); err != nil {
		return fmt.Errorf("ledger: truncating torn tail of %s: %w", active.path, err)
	}
	if tornTail {
		// Removing a torn tail is a recovery-time mutation and must be as
		// durable as the rename/create/unlink paths: fsync the file so the
		// truncation itself survives a crash right after replay, and the
		// directory so the metadata change does too. Without this a second
		// crash could resurrect the torn bytes mid-file once new appends
		// land beyond them, turning a tolerated tear into real corruption.
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("ledger: syncing truncated %s: %w", active.path, err)
		}
		l.ctr.fsyncs.Inc()
		return fsyncDir(l.dir)
	}
	return nil
}

// segFlags open a segment for reads and appends: every segment is the
// active one once, and keeps its handle for reads after it rotates out.
const segFlags = os.O_RDWR | os.O_APPEND

// readRecordLocked reads st's committed record back from its segment onto
// dst, and returns dst and a view of the record's payload in it. The record
// goes through the parser again, so its CRC is checked, and must be st's
// message; otherwise dst comes back as it was, with ErrCorrupt. Caller
// holds l.mu, so no carry moves the record meanwhile.
func (l *Ledger) readRecordLocked(dst []byte, st entryState) ([]byte, []byte, error) {
	s := l.segBySeqLocked(st.seg)
	if s == nil {
		return dst, nil, fmt.Errorf("ledger: message %d: segment %d is gone: %w", st.id, st.seg, ErrCorrupt)
	}
	n := len(dst)
	dst = slices.Grow(dst, st.n)[:n+st.n]
	if _, err := s.f.ReadAt(dst[n:], st.off); err != nil {
		return dst[:n], nil, fmt.Errorf("ledger: reading message %d from %s: %w", st.id, s.path, err)
	}
	r, _, err := parseRaw(dst[n:])
	if err != nil || r.typ != recMessage || r.id != st.id || string(r.subject) != st.subject {
		return dst[:n], nil, fmt.Errorf("ledger: message %d in %s at offset %d: %w", st.id, s.path, st.off, ErrCorrupt)
	}
	return dst, r.payload, nil
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
			l.pending[rec.id] = entryState{id: rec.id, subject: rec.subject, seg: seq, off: int64(off), n: n}
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
// the next sequence number, fsync the directory, drop any leading
// fully-acked segments that rotation has made removable, and carry the
// oldest remaining segments' pending messages forward.
func (l *Ledger) rotateLocked() error {
	old := l.f
	if err := old.Sync(); err != nil {
		return fmt.Errorf("ledger: syncing before rotation: %w", err)
	}
	l.ctr.fsyncs.Inc()
	seq := l.segs[len(l.segs)-1].seq + 1
	path := segPath(l.path, seq)
	nf, err := os.OpenFile(path, segFlags|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: creating %s: %w", path, err)
	}
	if err := fsyncDir(l.dir); err != nil {
		_ = nf.Close()
		return err
	}
	l.f = nf
	l.segs = append(l.segs, &segment{seq: seq, path: path, f: nf})
	l.ctr.rotations.Inc()
	l.dropAckedLocked()
	l.carryLocked()
	l.ctr.segments.Set(int64(len(l.segs)))
	return nil
}

// dropAckedLocked unlinks leading segments with no pending messages left.
// Their ack records can only reference their own (or earlier, already
// dropped) messages, and the carry has copied forward every message they
// still held, so removing the whole file preserves the replayed pending
// set exactly.
func (l *Ledger) dropAckedLocked() {
	dropped := false
	for len(l.segs) > 1 && l.segs[0].live == 0 {
		s := l.segs[0]
		l.segs = l.segs[1:]
		_ = s.f.Close()
		_ = os.Remove(s.path)
		dropped = true
	}
	if dropped {
		_ = fsyncDir(l.dir)
	}
}

// carryLocked reads pending records back from the oldest segments and
// writes them again, byte for byte, into the new active segment, and moves
// their live counts there, so the next rotation, which fsyncs the active
// segment first, unlinks the segments they came from. It takes the oldest
// segment, then each next one while the copies are smaller than a segment,
// but never the segment just closed. So a small pending set is rewritten
// once every two rotations and leaves at most three segments on disk, and a
// large one costs about a segment of copies per rotation. The copies are
// not offered to the commit hook (replicas hold those ids already) and do
// not count toward rotation. A failed write is rewound and retried next
// rotation. A record that does not read back intact stays where it is, and
// keeps its segment on disk.
func (l *Ledger) carryLocked() {
	n := len(l.segs)
	if n < 3 { // dropAckedLocked left nothing older than the segment just closed
		return
	}
	closed, active := l.segs[n-2], l.segs[n-1]
	var old []entryState
	for _, st := range l.pending {
		if st.seg != 0 && st.seg < closed.seq {
			old = append(old, st)
		}
	}
	slices.SortFunc(old, func(a, b entryState) int { return cmp.Or(cmp.Compare(a.seg, b.seg), cmp.Compare(a.off, b.off)) })
	var buf []byte
	moved := old[:0]
	for k := 0; k < len(old) && (k == 0 || int64(len(buf)) < l.segMax); {
		for seq := old[k].seg; k < len(old) && old[k].seg == seq; k++ {
			st, off := old[k], len(buf)
			var err error
			if buf, _, err = l.readRecordLocked(buf, st); err == nil {
				st.off = int64(off) // in buf, until the write succeeds
				moved = append(moved, st)
			}
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		l.rewindLocked(active)
		return
	}
	for _, st := range moved {
		if s := l.segBySeqLocked(st.seg); s != nil {
			s.live--
		}
		st.seg, st.off = active.seq, active.size+st.off
		l.pending[st.id] = st
	}
	active.size += int64(len(buf))
	active.carried += int64(len(buf))
	active.live += len(moved)
	l.ctr.compactions.Inc()
}
