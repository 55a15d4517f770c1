package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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

// setSegMax sets an open ledger's segment rotation threshold
// (defaultSegmentBytes otherwise).
func setSegMax(l *Ledger, n int64) {
	l.mu.Lock()
	l.segMax = n
	l.mu.Unlock()
}

// TestSegmentRotationDropsAcked drives the log across many small
// segments and acks everything: rotation must unlink the fully-acked
// leading segments.
func TestSegmentRotationDropsAcked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	reg := telemetry.NewRegistry()
	l, err := Open(path, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	setSegMax(l, 2048)
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

// TestConcurrentAppendAck races producers against an acking consumer and a
// reader of the payloads, which rotations and carries move meanwhile, and
// checks the replayed state matches the in-memory one exactly.
func TestConcurrentAppendAck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setSegMax(l, 4096)
	const workers, per = 8, 50
	acked := make(map[uint64]bool)
	var ackedMu sync.Mutex
	var appended sync.Map // id -> payload, once its Append has returned
	stop, read := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(read)
		for {
			for _, e := range l.Pending() {
				if p, ok := appended.Load(e.ID); ok && p.(string) != string(e.Payload) {
					t.Errorf("entry %d read back %q, appended %q", e.ID, e.Payload, p)
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				payload := fmt.Sprintf("w%d-%d", w, i)
				id, err := l.Append("c.s", []byte(payload))
				if err != nil {
					t.Error(err)
					return
				}
				appended.Store(id, payload)
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
	close(stop)
	<-read
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

// TestGroupCommitHookBudget is the fsync budget's twin for a ledger
// without Sync but with a commit hook, which qledger turns into one
// replication chunk per batch: contended appenders must still share
// batches, so the hook runs well under once per message.
func TestGroupCommitHookBudget(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "h.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var hooks int
	l.SetOnCommit(func(cb CommitBatch) { hooks++ }) // leaders run one at a time
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 256)
			for i := 0; i < per; i++ {
				if _, err := l.Append("gate.h", payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	l.mu.Lock()
	ratio := float64(hooks) / (workers * per)
	l.mu.Unlock()
	t.Logf("hooks=%d hooks/msg=%.3f mean-group=%.1f", hooks, ratio, 1/ratio)
	if ratio > 0.75 {
		t.Fatalf("hooks/msg = %.3f; group commit must average well under one hook call per message", ratio)
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

// copyLedger copies every segment of the ledger at base into a fresh
// directory — what a crash at this instant would leave on disk — and
// returns the copy's base path.
func copyLedger(t *testing.T, base string) string {
	t.Helper()
	seqs, err := scanSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), filepath.Base(base))
	for _, seq := range seqs {
		data, err := os.ReadFile(segPath(base, seq))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(dst, seq), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// reopenPending opens the ledger at base and returns its pending set.
func reopenPending(t *testing.T, base string) []Entry {
	t.Helper()
	l, err := Open(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Pending()
}

// messageRecords counts the message records for id in every segment of
// the ledger at base.
func messageRecords(t *testing.T, base string, id uint64) int {
	t.Helper()
	seqs, err := scanSegments(base)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, seq := range seqs {
		data, err := os.ReadFile(segPath(base, seq))
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			rec, size, err := parseRecord(data[off:])
			if err != nil {
				t.Fatal(err)
			}
			if rec.typ == recMessage && rec.id == id {
				n++
			}
			off += size
		}
	}
	return n
}

// TestStuckMessageCarried: one message nobody acknowledges must not pin
// every later segment on disk. Rotation carries it forward, so the acked
// traffic behind it is reclaimed, and it survives a restart intact.
func TestStuckMessageCarried(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	setSegMax(l, 4096)
	stuck, err := l.Append("s.stuck", []byte("never acked"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		id, err := l.Append("s", make([]byte, 128))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Ack(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := scanSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) > 3 {
		t.Errorf("%d segment files on disk after 5000 acked appends; want at most 3", len(seqs))
	}
	pending := reopenPending(t, path)
	if len(pending) != 1 || pending[0].ID != stuck || pending[0].Subject != "s.stuck" ||
		string(pending[0].Payload) != "never acked" {
		t.Fatalf("pending after reopen = %+v, want the stuck message alone", pending)
	}
}

// TestStuckTrickleCarried: a steady trickle of messages nobody
// acknowledges (a subject with no subscriber) leaves some in nearly every
// segment, more than a segment's worth in all. The carry gathers them, so
// the disk still holds at most three segments and every one survives a
// restart. Carried copies do not count toward rotation: the log rotates
// once per segment of records its callers wrote, as with nothing pending.
func TestStuckTrickleCarried(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	reg := telemetry.NewRegistry()
	l, err := Open(path, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	setSegMax(l, 4096)
	var stuck []uint64
	written := 0 // bytes of the records Append and Ack stage
	for i := 0; i < 5000; i++ {
		payload := make([]byte, 128)
		id, err := l.Append("s", payload)
		if err != nil {
			t.Fatal(err)
		}
		written += len(encodeRecord(record{typ: recMessage, id: id, subject: "s", payload: payload}))
		if i%50 == 0 {
			stuck = append(stuck, id)
			continue
		}
		if err := l.Ack(id); err != nil {
			t.Fatal(err)
		}
		written += len(encodeRecord(record{typ: recAck, id: id}))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Counter("ledger.rotations").Load(), uint64(written/4096); got > want {
		t.Errorf("%d rotations for %d bytes of records at 4 KiB segments; want at most %d", got, written, want)
	}
	if seqs, err := scanSegments(path); err != nil || len(seqs) > 3 {
		t.Errorf("%d segment files on disk (%v); want at most 3", len(seqs), err)
	}
	var got []uint64
	for _, e := range reopenPending(t, path) {
		got = append(got, e.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(stuck) {
		t.Fatalf("pending after reopen = %v, want %v", got, stuck)
	}
}

// TestCarryClearsBacklog: a log an older build left, twenty segments each
// holding a message nobody acknowledged, is down to three segments two
// rotations after it is reopened, with every message still pending.
func TestCarryClearsBacklog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	var stuck []uint64
	for seq := uint64(1); seq <= 20; seq++ {
		id := seq * 100
		seg := appendRecord(nil, record{typ: recMessage, id: id, subject: "s", payload: []byte("old")})
		seg = appendRecord(seg, record{typ: recMessage, id: id + 1, subject: "s", payload: make([]byte, 1024)})
		seg = appendRecord(seg, record{typ: recAck, id: id + 1})
		if err := os.WriteFile(segPath(path, seq), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		stuck = append(stuck, id)
	}
	reg := telemetry.NewRegistry()
	l, err := Open(path, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	setSegMax(l, 1024)
	for rotations := reg.Counter("ledger.rotations"); rotations.Load() < 2; {
		id, err := l.Append("s", make([]byte, 128))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Ack(id); err != nil {
			t.Fatal(err)
		}
	}
	if seqs, err := scanSegments(path); err != nil || len(seqs) > 3 {
		t.Errorf("%d segment files on disk (%v) two rotations after reopening a 20-segment backlog; want at most 3", len(seqs), err)
	}
	var got []uint64
	for _, e := range l.Pending() {
		got = append(got, e.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint(stuck) {
		t.Fatalf("pending = %v, want %v", got, stuck)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(reopenPending(t, path)); n != len(stuck) {
		t.Fatalf("%d pending after reopen, want %d", n, len(stuck))
	}
}

// TestCarryCrashState opens what a crash would leave at two instants.
// Between a carry and the next rotation the stuck message is on disk twice
// and pending once; after the next rotation the segment it was carried out
// of is gone and it is still pending once.
func TestCarryCrashState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	reg := telemetry.NewRegistry()
	l, err := Open(path, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	setSegMax(l, 1024)
	stuck, err := l.Append("s.stuck", []byte("never acked"))
	if err != nil {
		t.Fatal(err)
	}
	// Acked traffic: each message rides one batch with its own ack, so
	// every commit is one the test waits for and none lands while the
	// files are being copied.
	next := stuck + 1
	ackedUntil := func(c *telemetry.Counter) {
		t.Helper()
		for from := c.Load(); c.Load() == from; next++ {
			if next > 1000 {
				t.Fatal("no carry or rotation after 1000 acked messages at 1 KiB segments")
			}
			chunk := AppendAckRecord(AppendMessageRecord(nil, next, "s", make([]byte, 128)), next)
			if err := l.AppendBatch(chunk); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(base string, copies int) {
		t.Helper()
		if n := messageRecords(t, base, stuck); n != copies {
			t.Errorf("%d records of the stuck message on disk, want %d", n, copies)
		}
		pending := reopenPending(t, base)
		if len(pending) != 1 || pending[0].ID != stuck || string(pending[0].Payload) != "never acked" {
			t.Fatalf("pending = %+v, want the stuck message once", pending)
		}
	}

	ackedUntil(reg.Counter("ledger.compactions"))
	check(copyLedger(t, path), 2)
	ackedUntil(reg.Counter("ledger.rotations"))
	if _, err := os.Stat(segPath(path, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("segment 1 still on disk after the rotation that follows its carry: %v", err)
	}
	check(copyLedger(t, path), 1)
}

// swapClosedFile makes the ledger's commit writes fail, as a full or failing
// disk would, by swapping the active segment's handle for a closed file.
// The returned func puts the real handle back.
func swapClosedFile(t *testing.T, l *Ledger) (restore func()) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "closed"))
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	l.mu.Lock()
	real := l.f
	l.f = f
	l.mu.Unlock()
	return func() {
		l.mu.Lock()
		l.f = real
		l.mu.Unlock()
	}
}

// TestFailedAppendLeavesNoTrace: an Append whose commit failed returned an
// error to its publisher, so the message must not stay pending — the
// retrier would publish it — and what the failed write left in the segment
// must go before anything else is written behind it.
func TestFailedAppendLeavesNoTrace(t *testing.T) {
	l, path := openTemp(t)
	if _, err := l.Append("s", []byte("before")); err != nil {
		t.Fatal(err)
	}
	restore := swapClosedFile(t, l)
	// A write that fails midway leaves part of its record behind.
	torn := encodeRecord(record{typ: recMessage, id: 1, subject: "s", payload: []byte("lost")})
	f, err := os.OpenFile(segPath(path, 1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if _, err := l.Append("s", []byte("lost")); err == nil {
		t.Fatal("Append succeeded on a failing disk")
	}
	if n := l.Len(); n != 1 {
		t.Fatalf("Len after a failed Append = %d, want 1", n)
	}
	restore()
	if _, err := l.Append("s", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range reopenPending(t, path) {
		got = append(got, string(e.Payload))
	}
	if fmt.Sprint(got) != "[before kept]" {
		t.Fatalf("pending payloads after reopen = %q, want the two committed messages", got)
	}
}

// TestFailedAppendBatchLeavesNoTrace: a replica whose write of a mirrored
// chunk failed must store the retransmitted chunk, not skip it as already
// applied and acknowledge a chunk it never stored.
func TestFailedAppendBatchLeavesNoTrace(t *testing.T) {
	l, path := openTemp(t)
	chunk := AppendMessageRecord(nil, 7, "s", []byte("chunk"))
	restore := swapClosedFile(t, l)
	if err := l.AppendBatch(chunk); err == nil {
		t.Fatal("AppendBatch succeeded on a failing disk")
	}
	restore()
	if err := l.AppendBatch(chunk); err != nil {
		t.Fatalf("retransmitted chunk: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if pending := reopenPending(t, path); len(pending) != 1 || pending[0].ID != 7 {
		t.Fatalf("pending after reopen = %+v, want the retransmitted chunk's message", pending)
	}
}

// TestFailedRewindBreaksLedger: when the segment cannot be truncated back
// after a failed write, torn bytes may remain, and replay cuts away
// whatever follows them. So the ledger refuses every later record, even
// once the disk works again.
func TestFailedRewindBreaksLedger(t *testing.T) {
	l, _ := openTemp(t)
	id, err := l.Append("s", []byte("before"))
	if err != nil {
		t.Fatal(err)
	}
	restore := swapClosedFile(t, l)
	l.mu.Lock()
	active := l.segs[len(l.segs)-1]
	realPath := active.path
	active.path = filepath.Join(t.TempDir(), "missing", "g.seg")
	l.mu.Unlock()
	if _, err := l.Append("s", []byte("torn")); err == nil {
		t.Fatal("Append succeeded on a failing disk")
	}
	restore()
	l.mu.Lock()
	active.path = realPath
	l.mu.Unlock()
	if _, err := l.Append("s", []byte("after")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Append after a failed rewind = %v, want the rewind's error", err)
	}
	if err := l.AppendBatch(AppendMessageRecord(nil, 99, "s", nil)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("AppendBatch after a failed rewind = %v, want the rewind's error", err)
	}
	if err := l.Ack(id); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("Ack after a failed rewind = %v, want the rewind's error", err)
	}
}

// reopenWithStagedAck logs one message and reopens the ledger, which
// commits nothing until a caller asks, then acks the message there: the
// ack record is staged and nothing else is, so every commit the test sees
// is one it caused.
func reopenWithStagedAck(t *testing.T) (l *Ledger, path string, id uint64, commits *telemetry.Counter) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "g.log")
	l0, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if id, err = l0.Append("fab5.wip", []byte("lot-44")); err != nil {
		t.Fatal(err)
	}
	if err := l0.Close(); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if l, err = Open(path, Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	if err := l.Ack(id); err != nil {
		t.Fatal(err)
	}
	return l, path, id, reg.Counter("ledger.commits")
}

// notPending fails the test if id is pending in the ledger at base.
func notPending(t *testing.T, base string, id uint64) {
	t.Helper()
	for _, e := range reopenPending(t, base) {
		if e.ID == id {
			t.Fatalf("acked message %d pending after reopen", id)
		}
	}
}

// TestAckRidesNextAppend: a staged ack buys no commit of its own; the next
// Append's batch carries it to disk.
func TestAckRidesNextAppend(t *testing.T) {
	l, path, id, commits := reopenWithStagedAck(t)
	base := commits.Load()
	if _, err := l.Append("fab5.wip", []byte("lot-45")); err != nil {
		t.Fatal(err)
	}
	if got := commits.Load(); got != base+1 {
		t.Fatalf("ack and append took %d commits, want 1", got-base)
	}
	notPending(t, copyLedger(t, path), id)
}

// TestFlushCommitsStagedAck: Flush commits a staged ack, with no append to
// carry it, before it returns.
func TestFlushCommitsStagedAck(t *testing.T) {
	l, path, id, commits := reopenWithStagedAck(t)
	base := commits.Load()
	l.Flush()
	if got := commits.Load(); got != base+1 {
		t.Fatalf("Flush took %d commits, want 1", got-base)
	}
	notPending(t, copyLedger(t, path), id)
}

// TestCloseDrainsStagedAck: Close commits a staged ack before it returns.
func TestCloseDrainsStagedAck(t *testing.T) {
	l, path, id, _ := reopenWithStagedAck(t)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	notPending(t, path, id)
}

// TestAppendSteadyStateAllocs: once warm, Append+Ack pairs allocate
// nothing. The pending set holds each message's location by value, the
// log keeps its payload, and the flushed batch is reused. The bound counts
// every allocation over the run, process-wide, so it is a slack of 8 for
// what other goroutines allocate, not a per-pair budget.
func TestAppendSteadyStateAllocs(t *testing.T) {
	l, _ := openTemp(t)
	payload := make([]byte, 200)
	pair := func() {
		id, err := l.Append("gate.s", payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Ack(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		pair()
	}
	const pairs = 4000
	var before, after runtime.MemStats
	runtime.GC() // a collection's own allocations land in the window less often
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	if raceEnabled {
		t.Logf("%d Append+Ack pairs = %d allocs under the race detector; not compared", pairs, got)
		return
	}
	if limit := uint64(8); got > limit {
		t.Fatalf("%d Append+Ack pairs = %d allocs, want at most %d (slack)", pairs, got, limit)
	}
	t.Logf("%d Append+Ack pairs = %d allocs", pairs, got)
}

// TestBatchOutcomeStaysWithItsWaiters: a reused batch reports each use's
// outcome to that use's waiters. Two appends staged into a batch whose
// write fails both get the error, and the same struct, reused, reports nil
// to its next waiter.
func TestBatchOutcomeStaysWithItsWaiters(t *testing.T) {
	l, _ := openTemp(t)
	id, err := l.Append("s", []byte("m0"))
	if err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	l.SetOnCommit(func(CommitBatch) {
		held <- struct{}{}
		<-release
	})
	// The ack's batch has no waiter: its leader frees it, so the batch the
	// two appends stage into is the one the next clean append reuses. Flush
	// leads that commit on its caller's thread, and so runs the held hook
	// there: it gets a goroutine of its own, or the test would block in it.
	if err := l.Ack(id); err != nil {
		t.Fatal(err)
	}
	go l.Flush()
	<-held
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := l.Append("s", []byte("lost"))
			errs <- err
		}()
	}
	var failing *batch
	for deadline := time.Now().Add(10 * time.Second); failing == nil; runtime.Gosched() {
		l.mu.Lock()
		if len(l.cur.msgIDs) == 2 {
			failing = l.cur
		}
		l.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the two appends never staged into one batch")
		}
	}
	restore := swapClosedFile(t, l)
	l.SetOnCommit(nil)
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Error("an append staged into the failed batch returned nil")
		}
	}
	restore()
	if _, err := l.Append("s", []byte("clean")); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	reused := l.cur == failing
	l.mu.Unlock()
	if !reused {
		t.Fatal("the failed batch was not reused")
	}
	if _, err := l.Append("s", []byte("reused")); err != nil {
		t.Fatalf("append staged into the reused batch: %v", err)
	}
}

// stageAndWait appends one message and reports the outcome: the goroutine
// of a test appender, named so a commit hook can tell from its stack that
// it runs on one.
func stageAndWait(l *Ledger, payload string, errs chan<- error) {
	_, err := l.Append("s", []byte(payload))
	errs <- err
}

// TestLeaderLeadsOnlyItsOwnBatch: an appender that leads a commit returns
// once its own batch is flushed. The batch that formed while it wrote is
// led by one of that batch's own appenders, not by the old leader, and not
// by a goroutine of the ledger's: there is none.
func TestLeaderLeadsOnlyItsOwnBatch(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := Open(filepath.Join(t.TempDir(), "g.log"), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	commits := reg.Counter("ledger.commits")
	base := commits.Load()
	// A failing run leaves a hook waiting; done lets it go, so the deferred
	// Close, which waits for the commit in flight, returns.
	held, release, done := make(chan string), make(chan struct{}), make(chan struct{})
	defer close(done)
	l.SetOnCommit(func(CommitBatch) {
		stack := make([]byte, 4096)
		select {
		case held <- string(stack[:runtime.Stack(stack, false)]):
			select {
			case <-release:
			case <-done:
			}
		case <-done:
		}
	})
	ledErr := make(chan error, 1)
	go func() {
		_, err := l.Append("s", []byte("leader"))
		ledErr <- err
	}()
	first := <-held
	if strings.Contains(first, "stageAndWait") {
		t.Fatalf("the first commit ran on a later appender:\n%s", first)
	}
	errs := make(chan error, 2)
	go stageAndWait(l, "a", errs)
	go stageAndWait(l, "b", errs)
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		l.mu.Lock()
		staged := len(l.cur.msgIDs)
		l.mu.Unlock()
		if staged == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the two appends never staged into one batch")
		}
	}
	release <- struct{}{}
	// The second commit's hook blocks until it is received from held: the
	// first leader must return without waiting for it.
	select {
	case err := <-ledErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the first leader did not return while the second commit's hook was held")
	}
	var second string
	select {
	case second = <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("nobody led the batch that formed during the first commit")
	}
	if !strings.Contains(second, "stageAndWait") {
		t.Errorf("the second commit did not run on one of its own appenders:\n%s", second)
	}
	release <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := commits.Load() - base; got != 2 {
		t.Fatalf("three appends took %d commits, want 2", got)
	}
}

// TestPendingPayloadIsCapped: Pending's payloads share one buffer, so each
// must end at its own length; an append to one copies it instead of
// writing over the next. A large payload is read back whole.
func TestPendingPayloadIsCapped(t *testing.T) {
	l, _ := openTemp(t)
	large := strings.Repeat("L", 8<<10+1)
	for _, p := range []string{"first", "second", large} {
		if _, err := l.Append("s", []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	p := l.Pending()
	_ = append(p[0].Payload, "XXXXXX"...)
	if got := string(p[1].Payload); got != "second" {
		t.Fatalf("next pending payload = %q after an append to the one before, want %q", got, "second")
	}
	if got := p[2].Payload; string(got) != large || cap(got) != len(got) {
		t.Fatalf("large pending payload: len %d cap %d, want the %d B payload capped", len(got), cap(got), len(large))
	}
}

// liveHeap returns the bytes of live heap after a collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPendingPinsNoPayload: memory holds the location of a pending
// message, not its payload. 1 000 pending appends of 8 KB, and a reopen
// of the same log, each grow the live heap by far less than the 8 MB of
// payload.
func TestPendingPinsNoPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	const n, size = 1000, 8 << 10
	limit := int64(n * size / 8)
	payload := bytes.Repeat([]byte{'p'}, size)
	before := liveHeap()
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append("s", payload); err != nil {
			t.Fatal(err)
		}
	}
	if grown := liveHeap() - before; grown > limit {
		t.Errorf("%d pending appends of %d B grow the heap by %d B, want at most %d", n, size, grown, limit)
	} else {
		t.Logf("%d pending appends of %d B grow the heap by %d B", n, size, grown)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before = liveHeap()
	l, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if grown := liveHeap() - before; grown > limit {
		t.Errorf("reopening %d pending messages of %d B grows the heap by %d B, want at most %d", n, size, grown, limit)
	} else {
		t.Logf("reopening %d pending messages of %d B grows the heap by %d B", n, size, grown)
	}
	if got := l.Len(); got != n {
		t.Fatalf("%d pending after reopen, want %d", got, n)
	}
}

// TestPayloadReadBack: a payload read back from the log is the one
// appended, byte for byte: after its commit, after a rotation carried it
// into a new segment, and after a reopen. A record damaged on disk is
// refused, not handed to the retrier, and named.
func TestPayloadReadBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	reg := telemetry.NewRegistry()
	l, err := Open(path, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	setSegMax(l, 4096)
	want := map[uint64][]byte{}
	var records []byte // what PendingRecords must return
	for i, p := range [][]byte{{}, []byte("x"), bytes.Repeat([]byte{0xA5}, 3000), []byte("last")} {
		id, err := l.Append(fmt.Sprint("s.", i), p)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = p
		records = AppendMessageRecord(records, id, fmt.Sprint("s.", i), p)
	}
	check := func(stage string, got []Entry) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries read back, want %d", stage, len(got), len(want))
		}
		for _, e := range got {
			if w, ok := want[e.ID]; !ok || !bytes.Equal(e.Payload, w) || e.Subject != fmt.Sprint("s.", e.ID) {
				t.Fatalf("%s: entry %d (%s) read back %d B, want %d B as appended", stage, e.ID, e.Subject, len(e.Payload), len(w))
			}
		}
	}
	check("committed", l.Pending())
	var listed []Entry
	l.ForEachPending(func(e *Entry) bool {
		if e.Payload != nil {
			t.Errorf("ForEachPending gave entry %d a payload", e.ID)
		}
		listed = append(listed, *e)
		return true
	})
	got, buf, err := l.ReadPayloads(listed, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("ReadPayloads", got)
	if got := l.PendingRecords(nil, 1<<20); !bytes.Equal(got, records) {
		t.Fatalf("PendingRecords = %d B, want the %d B of records appended", len(got), len(records))
	}
	if got := l.PendingRecords(nil, 1); len(got) != len(encodeRecord(record{typ: recMessage, id: 0, subject: "s.0"})) {
		t.Fatalf("PendingRecords under a 1-byte cap = %d B, want the first record alone", len(got))
	}

	for carries := reg.Counter("ledger.compactions"); carries.Load() == 0; {
		id, err := l.Append("acked", make([]byte, 128))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Ack(id); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	for id := range want {
		if seg := l.pending[id].seg; seg != l.segs[len(l.segs)-1].seq {
			t.Errorf("entry %d is in segment %d after the carry, want the active %d", id, seg, l.segs[len(l.segs)-1].seq)
		}
	}
	l.mu.Unlock()
	check("carried", l.Pending())
	got, _, err = l.ReadPayloads(listed, buf)
	if err != nil {
		t.Fatal(err)
	}
	check("carried ReadPayloads", got)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check("reopened", reopenPending(t, path))

	// Damage one payload byte on disk: the record no longer reads back.
	l, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.mu.Lock()
	st := l.pending[2]
	seg := l.segBySeqLocked(st.seg)
	l.mu.Unlock()
	f, err := os.OpenFile(seg.path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x5A}, st.off+int64(st.n)-1); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	got, _, err = l.ReadPayloads(listed, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadPayloads over a damaged record: %v, want ErrCorrupt", err)
	}
	if refused := (*UnreadableError)(nil); !errors.As(err, &refused) || !slices.Equal(refused.IDs, []uint64{2}) {
		t.Errorf("ReadPayloads over a damaged record: %v, want it to name entry 2 alone", err)
	}
	for _, e := range got {
		if e.ID == 2 {
			t.Fatal("the damaged record was read back")
		}
	}
	if len(got) != len(want)-1 || len(l.Pending()) != len(want)-1 {
		t.Fatalf("read back %d entries (Pending %d), want the %d intact ones", len(got), len(l.Pending()), len(want)-1)
	}
}

// TestForEachPendingConcurrent: walks from two goroutines at once share no
// buffer (run it under -race).
func TestForEachPendingConcurrent(t *testing.T) {
	l, _ := openTemp(t)
	for i := 0; i < 64; i++ {
		if _, err := l.Append("s", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var n int
				var last uint64
				l.ForEachPending(func(e *Entry) bool {
					if n > 0 && e.ID <= last {
						t.Errorf("walk visited %d after %d", e.ID, last)
					}
					n, last = n+1, e.ID
					return true
				})
				if n != 64 {
					t.Errorf("walk visited %d entries, want 64", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}
