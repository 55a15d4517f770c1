package ledger

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"infobus/internal/telemetry"
)

func openTemp(t *testing.T) (*Ledger, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "guaranteed.log")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, path
}

// diskSize sums the on-disk size of every segment of the ledger at base.
func diskSize(t *testing.T, base string) int64 {
	t.Helper()
	seqs, err := scanSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, seq := range seqs {
		fi, err := os.Stat(segPath(base, seq))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

func TestAppendAckPending(t *testing.T) {
	l, _ := openTemp(t)
	id1, err := l.Append("fab5.wip", []byte("lot-42"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := l.Append("fab5.wip", []byte("lot-43"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("ids must be unique")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Ack(id1); err != nil {
		t.Fatal(err)
	}
	pending := l.Pending()
	if len(pending) != 1 || pending[0].ID != id2 || string(pending[0].Payload) != "lot-43" {
		t.Fatalf("Pending = %+v", pending)
	}
	// Duplicate ack is idempotent.
	if err := l.Ack(id1); err != nil {
		t.Fatal(err)
	}
	if err := l.Ack(99999); err != nil {
		t.Fatal("acking unknown id should be a no-op")
	}
}

func TestReplayAfterRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 5; i++ {
		id, err := l.Append("s.a", []byte(fmt.Sprintf("m%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := l.Ack(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := l.Ack(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen and check exactly the unacked set is pending —
	// Close must have flushed the asynchronously committed ack records.
	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	pending := l2.Pending()
	if len(pending) != 3 {
		t.Fatalf("pending after replay = %+v", pending)
	}
	want := map[uint64]string{ids[0]: "m0", ids[2]: "m2", ids[4]: "m4"}
	for _, e := range pending {
		if want[e.ID] != string(e.Payload) || e.Subject != "s.a" {
			t.Errorf("entry %+v unexpected", e)
		}
	}
	// IDs continue monotonically after restart.
	newID, err := l2.Append("s.a", []byte("post"))
	if err != nil {
		t.Fatal(err)
	}
	if newID <= ids[4] {
		t.Errorf("id %d not monotonic after restart (last was %d)", newID, ids[4])
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("s", []byte("whole")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-commit: write half a record onto the active
	// segment.
	f, err := os.OpenFile(segPath(path, 1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	full := encodeRecord(record{typ: recMessage, id: 9, subject: "s", payload: []byte("torn")})
	if _, err := f.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer l2.Close()
	pending := l2.Pending()
	if len(pending) != 1 || string(pending[0].Payload) != "whole" {
		t.Fatalf("pending = %+v", pending)
	}
	// The segment must have been truncated back to the valid prefix, so
	// appends go to the right place.
	if _, err := l2.Append("s", []byte("after")); err != nil {
		t.Fatal(err)
	}
}

// TestTornGroupBatchReplay cuts the log mid-record inside a
// group-committed batch: replay must recover exactly the durable prefix —
// messages and acks before the tear applied, the torn record gone — and
// the ledger must stay appendable.
func TestTornGroupBatchReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.log")
	// One batch of four records: m0, m1, ack(m0), m2.
	var batch []byte
	batch = appendRecord(batch, record{typ: recMessage, id: 0, subject: "s", payload: []byte("m0")})
	batch = appendRecord(batch, record{typ: recMessage, id: 1, subject: "s", payload: []byte("m1")})
	ackAt := len(batch)
	batch = appendRecord(batch, record{typ: recAck, id: 0})
	lastAt := len(batch)
	batch = appendRecord(batch, record{typ: recMessage, id: 2, subject: "s", payload: []byte("m2")})

	cases := []struct {
		name    string
		cut     int
		pending []uint64
	}{
		{"mid-last-message", lastAt + 5, []uint64{1}},
		{"mid-ack", ackAt + 3, []uint64{0, 1}},
		{"clean-batch", len(batch), []uint64{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "g.log")
			if err := os.WriteFile(segPath(base, 1), batch[:tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(base, Options{})
			if err != nil {
				t.Fatalf("open with cut at %d: %v", tc.cut, err)
			}
			defer l.Close()
			pending := l.Pending()
			var ids []uint64
			for _, e := range pending {
				ids = append(ids, e.ID)
			}
			if fmt.Sprint(ids) != fmt.Sprint(tc.pending) {
				t.Fatalf("pending ids = %v, want %v", ids, tc.pending)
			}
			if _, err := l.Append("s", []byte("post-tear")); err != nil {
				t.Fatal(err)
			}
		})
	}
	_ = path
}

func TestCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("s", []byte("aaaaaaaaaa")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("s", []byte("bbbbbbbbbb")); err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	// Flip a byte inside the first record's body.
	seg := segPath(path, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Open of corrupted ledger = %v, want ErrCorrupt", err)
	}
}

// A torn record in a non-newest segment is not a crash artifact (the log
// rotated past it) — it must be reported as corruption, not silently
// truncated.
func TestTornMiddleSegmentIsCorrupt(t *testing.T) {
	base := filepath.Join(t.TempDir(), "g.log")
	rec := encodeRecord(record{typ: recMessage, id: 0, subject: "s", payload: []byte("x")})
	if err := os.WriteFile(segPath(base, 1), rec[:len(rec)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(base, 2), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(base, Options{}); err == nil {
		t.Fatal("torn middle segment accepted")
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var keep uint64
	for i := 0; i < 100; i++ {
		id, err := l.Append("s", make([]byte, 100))
		if err != nil {
			t.Fatal(err)
		}
		if i == 50 {
			keep = id
		} else if err := l.Ack(id); err != nil {
			t.Fatal(err)
		}
	}
	before := diskSize(t, path)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	after := diskSize(t, path)
	if after >= before {
		t.Errorf("compaction did not shrink the log: %d -> %d", before, after)
	}
	pending := l.Pending()
	if len(pending) != 1 || pending[0].ID != keep {
		t.Fatalf("pending after compact = %+v", pending)
	}
	// Ledger still usable after compaction; state survives reopen.
	if _, err := l.Append("s", []byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	_ = l.Close()
	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 2 {
		t.Errorf("Len after reopen = %d, want 2", l2.Len())
	}
}

// TestSegmentRotationDropsAcked drives the log across many small
// segments and acks everything: rotation must unlink the fully-acked
// leading segments without any explicit Compact call.
func TestSegmentRotationDropsAcked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	reg := telemetry.NewRegistry()
	l, err := Open(path, Options{SegmentBytes: 2048, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 200; i++ {
		id, err := l.Append("s", make([]byte, 128))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Ack(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("ledger.rotations").Load(); got == 0 {
		t.Fatal("no rotations at a 2 KiB segment size")
	}
	seqs, err := scanSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) > 3 {
		t.Errorf("%d segments on disk; fully-acked ones should have been dropped", len(seqs))
	}
	// Everything acked: reopen comes back empty.
	_ = l.Close()
	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 0 {
		t.Errorf("Len after reopen = %d, want 0", l2.Len())
	}
}

// TestLegacyMigration opens a pre-segmentation monolithic ledger file and
// expects it to be adopted as the oldest segment with identical replay.
func TestLegacyMigration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	var raw []byte
	raw = appendRecord(raw, record{typ: recMessage, id: 0, subject: "s", payload: []byte("old-0")})
	raw = appendRecord(raw, record{typ: recMessage, id: 1, subject: "s", payload: []byte("old-1")})
	raw = appendRecord(raw, record{typ: recAck, id: 0})
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	pending := l.Pending()
	if len(pending) != 1 || pending[0].ID != 1 || string(pending[0].Payload) != "old-1" {
		t.Fatalf("pending after migration = %+v", pending)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("monolithic file still present after migration")
	}
	if id, err := l.Append("s", []byte("new")); err != nil || id != 2 {
		t.Fatalf("append after migration: id=%d err=%v", id, err)
	}
}

func TestClosedErrors(t *testing.T) {
	l, _ := openTemp(t)
	_ = l.Close()
	if _, err := l.Append("s", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after close = %v", err)
	}
	if err := l.Ack(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Ack after close = %v", err)
	}
	if err := l.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact after close = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestSyncOption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	l, err := Open(path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append("s", []byte("durable")); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAppendAck races producers against an acking consumer and
// checks the replayed state matches the in-memory one exactly.
func TestConcurrentAppendAck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	l, err := Open(path, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	acked := make(map[uint64]bool)
	var ackedMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id, err := l.Append("c.s", []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := l.Ack(id); err != nil {
						t.Error(err)
						return
					}
					ackedMu.Lock()
					acked[id] = true
					ackedMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	want := workers * per / 2
	if l.Len() != want {
		t.Fatalf("Len = %d, want %d", l.Len(), want)
	}
	live := l.Pending()
	_ = l.Close()
	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	replayed := l2.Pending()
	if len(replayed) != len(live) {
		t.Fatalf("replayed %d entries, live had %d", len(replayed), len(live))
	}
	for i := range replayed {
		if replayed[i].ID != live[i].ID || string(replayed[i].Payload) != string(live[i].Payload) {
			t.Fatalf("replayed[%d] = %+v, live = %+v", i, replayed[i], live[i])
		}
		if acked[replayed[i].ID] {
			t.Fatalf("acked id %d replayed as pending", replayed[i].ID)
		}
	}
}

// TestGroupCommitFsyncBudget is the scripts/check.sh gate: with Sync on
// and 8 concurrent publishers, group commit must coalesce flushes so the
// ledger averages well under one fsync per appended message.
func TestGroupCommitFsyncBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	reg := telemetry.NewRegistry()
	l, err := Open(path, Options{Sync: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 256)
			for i := 0; i < per; i++ {
				if _, err := l.Append("gate.s", payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	appends := float64(reg.Counter("ledger.appends").Load())
	fsyncs := float64(reg.Counter("ledger.fsyncs").Load())
	ratio := fsyncs / appends
	t.Logf("appends=%v fsyncs=%v fsyncs/msg=%.3f mean-group=%.1f",
		appends, fsyncs, ratio, appends/float64(reg.Counter("ledger.commits").Load()))
	if fsyncs == 0 {
		t.Fatal("Sync on but no fsyncs recorded")
	}
	if ratio > 0.75 {
		t.Fatalf("fsyncs/msg = %.3f; group commit must average well under one fsync per message", ratio)
	}
}

// TestCompactDoesNotBlockAppend holds a compaction at its slowest point
// (via the test seam) and proves Append still completes: the rewrite
// touches only the oldest segment while appends flow to the active one.
func TestCompactDoesNotBlockAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var ids []uint64
	for i := 0; i < 50; i++ {
		id, err := l.Append("s", make([]byte, 200))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:25] {
		if err := l.Ack(id); err != nil {
			t.Fatal(err)
		}
	}
	hold := make(chan struct{})
	l.mu.Lock()
	l.compactHold = hold
	l.mu.Unlock()
	compactDone := make(chan error, 1)
	go func() { compactDone <- l.Compact() }()

	// Appends (and acks) must complete while the compaction is stalled.
	appended := make(chan error, 1)
	go func() {
		for i := 0; i < 10; i++ {
			if _, err := l.Append("s", []byte("during-compact")); err != nil {
				appended <- err
				return
			}
		}
		appended <- nil
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append blocked behind a compaction in progress")
	}
	select {
	case err := <-compactDone:
		t.Fatalf("compaction finished before the hold was released: %v", err)
	default:
	}
	close(hold)
	if err := <-compactDone; err != nil {
		t.Fatal(err)
	}
	if l.Len() != 35 {
		t.Fatalf("Len = %d, want 35", l.Len())
	}
}

func TestForEachPending(t *testing.T) {
	l, _ := openTemp(t)
	// Empty: callback never runs.
	l.ForEachPending(func(e *Entry) bool {
		t.Fatal("callback on empty ledger")
		return true
	})
	var ids []uint64
	for i := 0; i < 10; i++ {
		id, err := l.Append("s", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := l.Ack(ids[4]); err != nil {
		t.Fatal(err)
	}
	var seen []uint64
	l.ForEachPending(func(e *Entry) bool {
		seen = append(seen, e.ID)
		// Re-entrancy: the callback runs lock-free and may Ack.
		if len(seen) == 1 {
			if err := l.Ack(ids[9]); err != nil {
				t.Error(err)
			}
		}
		return true
	})
	// Oldest-first, without the acked entry; ids[9] was acked mid-walk but
	// had already been snapshotted (at-least-once).
	want := []uint64{ids[0], ids[1], ids[2], ids[3], ids[5], ids[6], ids[7], ids[8], ids[9]}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("walk = %v, want %v", seen, want)
	}
	// Early stop.
	n := 0
	l.ForEachPending(func(e *Entry) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestForEachPendingSteadyStateAllocs pins the retrier's per-tick walk at
// zero allocations once the iteration buffer has warmed.
func TestForEachPendingSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	l, _ := openTemp(t)
	for i := 0; i < 64; i++ {
		if _, err := l.Append("s", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	walk := func() {
		l.ForEachPending(func(e *Entry) bool { return true })
	}
	walk() // warm iterBuf
	if got := testing.AllocsPerRun(100, walk); got > 0 {
		t.Fatalf("ForEachPending = %.1f allocs/op, want 0", got)
	}
	// And the idle walk (nothing pending) is also free.
	for _, e := range l.Pending() {
		if err := l.Ack(e.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, walk); got > 0 {
		t.Fatalf("idle ForEachPending = %.1f allocs/op, want 0", got)
	}
}

// Property: record encode/decode round-trips for arbitrary subjects and
// payloads, and parse never panics on arbitrary byte prefixes.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(id uint64, subject string, payload []byte) bool {
		enc := encodeRecord(record{typ: recMessage, id: id, subject: subject, payload: payload})
		rec, n, err := parseRecord(enc)
		if err != nil || n != len(enc) {
			return false
		}
		if rec.id != id || rec.subject != subject || len(rec.payload) != len(payload) {
			return false
		}
		// Any truncation must be reported torn, not panic.
		for cut := 0; cut < len(enc); cut += 7 {
			if _, _, err := parseRecord(enc[:cut]); err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAckLingerDefersCommit proves the deferred-ack pipeline: a lone ack
// record does not buy its own commit inside the linger window, rides the
// next message batch when one forms, and is never lost across Close. No
// assertion depends on how long the host stalls this test:
//
//   - the window is an hour, so the clock cannot close it — the only commit
//     that can carry the ack is the append's sweep (the deferral timer has
//     its own test below);
//   - the ack is staged on a freshly reopened ledger, whose committer has
//     never been kicked and is therefore parked. Right after an Append
//     returns the committer is still draining (it looks for a next batch
//     once more before parking) and legitimately sweeps an ack staged in
//     that instant, which is what made the eager-commit assertion fail
//     about one -race run in thirty.
func TestAckLingerDefersCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	l0, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := l0.Append("fab5.wip", []byte("lot-44"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l0.Close(); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	l, err := Open(path, Options{Metrics: reg, AckLinger: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	base := reg.Counter("ledger.commits").Load()
	if err := l.Ack(id); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // time for an eager commit to show itself
	if got := reg.Counter("ledger.commits").Load(); got != base {
		t.Fatalf("ack committed eagerly: %d commits (was %d)", got, base)
	}
	// A message append sweeps the staged ack along with it.
	if _, err := l.Append("fab5.wip", []byte("lot-45")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ledger.commits").Load(); got != base+1 {
		t.Fatalf("message batch did not sweep the ack: %d commits", got)
	}
	// Close drains a deferred ack staged moments earlier; a reopen must
	// not resurrect the acked message.
	id2 := uint64(0)
	if id2, err = l.Append("fab5.wip", []byte("lot-46")); err != nil {
		t.Fatal(err)
	}
	if err := l.Ack(id2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, e := range l2.Pending() {
		if e.ID == id2 {
			t.Fatal("deferred ack lost across Close: message resurrected")
		}
	}
}

// TestAckLingerTimerFlush proves a deferred ack reaches disk on its own
// once the linger timer expires, without any later append to ride.
func TestAckLingerTimerFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	reg := telemetry.NewRegistry()
	l, err := Open(path, Options{Metrics: reg, AckLinger: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	id, err := l.Append("fab5.wip", []byte("lot-47"))
	if err != nil {
		t.Fatal(err)
	}
	base := reg.Counter("ledger.commits").Load()
	if err := l.Ack(id); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("ledger.commits").Load() == base {
		if time.Now().After(deadline) {
			t.Fatal("deferred ack never committed after the linger window")
		}
		time.Sleep(time.Millisecond)
	}
}
