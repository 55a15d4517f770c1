package ledger

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"infobus/internal/telemetry"
)

// TestOnCommitHook: the hook sees every committed batch — its raw bytes
// re-parse to the appended records, its MsgIDs match, Seq is monotonic —
// and it fires before the staging Append returns.
func TestOnCommitHook(t *testing.T) {
	l, _ := openTemp(t)
	var mu sync.Mutex
	var seqs []uint64
	var gotIDs []uint64
	var gotRecs []Rec
	fired := make(map[uint64]bool) // msg id -> hook had fired before Append returned
	l.SetOnCommit(func(cb CommitBatch) {
		mu.Lock()
		defer mu.Unlock()
		seqs = append(seqs, cb.Seq)
		gotIDs = append(gotIDs, cb.MsgIDs...)
		for off := 0; off < len(cb.Records); {
			rec, n, err := NextRecord(cb.Records[off:])
			if err != nil {
				t.Errorf("hook batch does not re-parse: %v", err)
				return
			}
			// Copy: the hook must not retain cb's slices.
			rec.Payload = append([]byte(nil), rec.Payload...)
			gotRecs = append(gotRecs, rec)
			off += n
		}
		for _, id := range cb.MsgIDs {
			fired[id] = true
		}
	})
	var ids []uint64
	for i := 0; i < 3; i++ {
		id, err := l.Append("repl.s", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if !fired[id] {
			t.Errorf("Append(%d) returned before its batch reached the hook", id)
		}
		mu.Unlock()
		ids = append(ids, id)
	}
	if err := l.Ack(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil { // drains the staged ack through the hook
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("hook seqs not monotonic: %v", seqs)
		}
	}
	if len(gotIDs) != 3 {
		t.Fatalf("hook MsgIDs = %v, want the 3 appended ids", gotIDs)
	}
	var msgs, acks int
	for _, r := range gotRecs {
		if r.Ack {
			acks++
			if r.ID != ids[0] {
				t.Errorf("ack record for %d, want %d", r.ID, ids[0])
			}
		} else {
			msgs++
			if r.Subject != "repl.s" {
				t.Errorf("message subject %q", r.Subject)
			}
		}
	}
	if msgs != 3 || acks != 1 {
		t.Fatalf("hook saw %d messages, %d acks; want 3, 1", msgs, acks)
	}
}

// TestAppendBatch: a replica applying exported record runs reaches the
// same pending set as the origin, survives a restart, and absorbs
// retransmitted (duplicate) frames without growing.
func TestAppendBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "replica.log")
	l, err := Open(path, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	frame = AppendMessageRecord(frame, 7, "q.a", []byte("seven"))
	frame = AppendMessageRecord(frame, 8, "q.b", []byte("eight"))
	frame = AppendAckRecord(frame, 7)
	if err := l.AppendBatch(frame); err != nil {
		t.Fatal(err)
	}
	if got := l.Pending(); len(got) != 1 || got[0].ID != 8 || string(got[0].Payload) != "eight" {
		t.Fatalf("pending after batch = %+v", got)
	}
	// A retransmitted frame is idempotent.
	if err := l.AppendBatch(frame); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("duplicate frame changed pending set: %d", l.Len())
	}
	// Later acks trim earlier batches' entries.
	if err := l.AppendBatch(AppendAckRecord(nil, 8)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatalf("pending after ack batch = %d", l.Len())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Replayable: the replica's log is an ordinary ledger.
	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 0 {
		t.Fatalf("replayed pending = %+v", l2.Pending())
	}
	// Corrupt frames are rejected whole: nothing is staged.
	bad := AppendMessageRecord(nil, 9, "q.c", []byte("nine"))
	bad[len(bad)-1] ^= 0xff
	if err := l2.AppendBatch(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame: err = %v", err)
	}
	if l2.Len() != 0 {
		t.Fatalf("corrupt frame staged records: %+v", l2.Pending())
	}
}

// TestAppendBatchIsOneAppender: a replica's AppendBatch of several message
// records is one caller, so the commit it leads proves no contention and
// the next AppendBatch on the host loop does not linger for appenders that
// never come.
func TestAppendBatchIsOneAppender(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "replica.log"), Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var frame []byte
	for id := uint64(1); id <= 5; id++ {
		frame = AppendMessageRecord(frame, id, "q.a", []byte("x"))
	}
	if err := l.AppendBatch(frame); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	cohort := l.lastCohort
	l.mu.Unlock()
	if cohort != 1 {
		t.Fatalf("a 5-record AppendBatch set the linger target to %d appenders, want 1", cohort)
	}
}

// TestTornTailTruncateFsync is the regression test for recovery-time
// durability: truncating a torn trailing record during replay must itself
// be fsynced (file and directory), like every other on-disk mutation.
func TestTornTailTruncateFsync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.log")
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
	valid, err := os.ReadFile(segPath(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	torn := encodeRecord(record{typ: recMessage, id: 9, subject: "s", payload: []byte("torn")})
	if err := os.WriteFile(segPath(path, 1), append(append([]byte(nil), valid...), torn[:len(torn)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	l2, err := Open(path, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// The truncation must have been made durable: before the fix, replay
	// truncated the tear but never fsynced, so this counter stayed 0.
	if got := reg.Counter("ledger.fsyncs").Load(); got == 0 {
		t.Fatal("torn-tail truncation was not fsynced during replay")
	}
	onDisk, err := os.ReadFile(segPath(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, valid) {
		t.Fatalf("segment not truncated back to valid prefix: %d bytes, want %d", len(onDisk), len(valid))
	}
	// A clean open performs no recovery fsync.
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	reg2 := telemetry.NewRegistry()
	l3, err := Open(path, Options{Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if got := reg2.Counter("ledger.fsyncs").Load(); got != 0 {
		t.Fatalf("clean open fsynced %d times; recovery fsync must be tear-only", got)
	}
}

// TestNextRecordPayloadIsAView: parsing a message record copies only its
// subject; the payload is a capped view of the input.
func TestNextRecordPayloadIsAView(t *testing.T) {
	data := AppendMessageRecord(nil, 42, "fab5.wip.lot", make([]byte, 250))
	if len(data) < 265 || len(data) > 275 {
		t.Fatalf("the message record is %d B, want about 270", len(data))
	}
	payloadAt := len(data) - 250
	data = AppendAckRecord(data, 42)
	var rec Rec
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if rec, _, err = NextRecord(data); err != nil {
			t.Fatal(err)
		}
	})
	if &rec.Payload[0] != &data[payloadAt] || cap(rec.Payload) != 250 {
		t.Fatal("Payload is not a capped view of the record")
	}
	if !raceEnabled && allocs > 1 {
		t.Fatalf("NextRecord = %.0f allocs/op, want at most 1 (the subject)", allocs)
	}
}
