package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"infobus/internal/ledger"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
)

// virtualStart is where the clock of every part ticked by hand begins.
var virtualStart = time.Unix(1000, 0)

// retrierLab is a retrier taken out of its host: a real ledger, a publish
// func that records (and can refuse), and a clock the test advances one
// retry interval at a time.
type retrierLab struct {
	led     *ledger.Ledger
	path    string // the ledger's
	rec     *telemetry.Recorder
	r       *Retrier
	now     time.Time
	sent    []string // "id@elapsed" per retransmission
	refuse  func(id uint64) bool
	retrans *telemetry.Counter
}

func newRetrierLab(t *testing.T, interval time.Duration) *retrierLab {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.log")
	led, err := ledger.Open(path, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = led.Close() })
	l := &retrierLab{led: led, path: path, rec: telemetry.NewRecorder(0), now: virtualStart,
		retrans: telemetry.NewRegistry().Counter("bus.guar_retransmits")}
	l.r = NewRetrier(led, interval, l.retrans, l.rec, func(_ subject.Subject, _ []byte, id uint64) error {
		if l.refuse != nil && l.refuse(id) {
			return errors.New("refused")
		}
		l.sent = append(l.sent, fmt.Sprintf("%d@%v", id, l.now.Sub(virtualStart)))
		return nil
	})
	l.r.Tick(l.now) // arms the cadence, as the host loop's first pass does
	return l
}

// walk advances the clock to the retrier's next deadline and ticks it there.
func (l *retrierLab) walk(t *testing.T) {
	t.Helper()
	next := l.r.every.At
	if !next.After(l.now) {
		t.Fatalf("deadline %v is not after %v", next, l.now)
	}
	l.now = next
	if got := l.r.Tick(l.now); !got.Equal(l.now.Add(l.r.every.D)) {
		t.Fatalf("tick(%v) = %v, want one interval on", l.now, got)
	}
}

func (l *retrierLab) append(t *testing.T, n int) []uint64 {
	t.Helper()
	var ids []uint64
	for i := 0; i < n; i++ {
		id, err := l.led.Append("g.s", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestUnreadableEntryReportedOnce: a pending entry whose record is damaged
// on disk (TestPayloadReadBack's damage: its last payload byte changed)
// stays pending and is never retransmitted; the first walk to meet it
// records one "guar-unreadable" drop event naming it, and the two walks
// after that record nothing, while its healthy sibling is still
// retransmitted.
func TestUnreadableEntryReportedOnce(t *testing.T) {
	l := newRetrierLab(t, time.Millisecond)
	body := []byte("damaged on disk")
	damaged, err := l.led.Append("g.s", body)
	if err != nil {
		t.Fatal(err)
	}
	healthy := l.append(t, 1)[0]
	segs, err := filepath.Glob(l.path + ".*.seg")
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v; want the one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, body)
	if at < 0 {
		t.Fatal("the damaged entry's payload is not in the segment")
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x5A}, int64(at+len(body)-1)); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	l.walk(t) // first sight: both due one interval out
	for walk := 1; walk <= 3; walk++ {
		l.walk(t)
		var events []telemetry.Event
		for _, ev := range l.rec.Events() {
			if ev.Kind == telemetry.EventDrop && ev.Target == "guar-unreadable" {
				events = append(events, ev)
			}
		}
		if len(events) != 1 || events[0].A != 1 || events[0].B != int64(damaged) {
			t.Fatalf("after %d walks meeting the damaged entry: events %+v, want one naming id %d", walk, events, damaged)
		}
	}
	want := fmt.Sprintf("%d@", healthy)
	if len(l.sent) == 0 {
		t.Fatal("the healthy sibling was not retransmitted")
	}
	for _, s := range l.sent {
		if !strings.HasPrefix(s, want) {
			t.Fatalf("retransmitted %v, want the healthy id %d alone", l.sent, healthy)
		}
	}
	if n := l.led.Len(); n != 2 {
		t.Fatalf("%d entries pending, want both: the damaged one stays", n)
	}
}

// TestGuaranteedRetransmitBackoff: a guaranteed publication nobody ever
// acknowledges is first retransmitted one interval after the retrier first
// saw it, then backs off exponentially to the cap instead of re-occupying
// the medium on every walk. Then the driver: a host's loop runs the same
// schedule, and a subscriber arriving after the publication is served off it.
func TestGuaranteedRetransmitBackoff(t *testing.T) {
	const interval = 5 * time.Millisecond
	l := newRetrierLab(t, interval)
	id := l.append(t, 1)[0]
	for l.now.Before(virtualStart.Add(16 * time.Second)) {
		l.walk(t)
	}
	// Seen by the walk at 5 ms, due one interval later; each wait doubles,
	// from twice the interval to the 5 s cap.
	want, at := []string{}, 2*interval
	for wait := 2 * interval; at <= 16*time.Second; at, wait = at+wait, min(2*wait, DefaultRetryBackoffCap) {
		want = append(want, fmt.Sprintf("%d@%v", id, at))
	}
	if !reflect.DeepEqual(l.sent, want) {
		t.Errorf("retransmitted at %v\nwant %v", l.sent, want)
	}
	if got := l.retrans.Load(); got != uint64(len(want)) {
		t.Errorf("bus.guar_retransmits = %d, want %d", got, len(want))
	}

	seg := fastSeg()
	defer seg.Close()
	pub := newHost(t, seg, "backoff-pub", HostConfig{
		LedgerPath:    filepath.Join(t.TempDir(), "pub.ledger"),
		RetryInterval: interval,
	})
	pubBus, err := pub.NewBus("producer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pubBus.PublishGuaranteed("g.backoff", "unheard"); err != nil {
		t.Fatal(err)
	}
	sub := newHost(t, seg, "backoff-sub", HostConfig{})
	subBus, err := sub.NewBus("consumer")
	if err != nil {
		t.Fatal(err)
	}
	late, err := subBus.Subscribe("g.backoff")
	if err != nil {
		t.Fatal(err)
	}
	if ev := recvEvent(t, late, 10*time.Second); ev.Value != "unheard" {
		t.Fatalf("late subscriber got %v", ev.Value)
	}
}

// TestRetrierRefusedWalkResumes: a publish the daemon refuses (closing, or
// a full window) stops the walk there; nothing it did not reach loses its
// schedule, and the next walk starts again at the refused entry.
func TestRetrierRefusedWalkResumes(t *testing.T) {
	l := newRetrierLab(t, 10*time.Millisecond)
	ids := l.append(t, 4)
	l.walk(t) // first sight of all four
	l.refuse = func(id uint64) bool { return id == ids[2] }
	l.walk(t)
	if want := []string{fmt.Sprintf("%d@20ms", ids[0]), fmt.Sprintf("%d@20ms", ids[1])}; !reflect.DeepEqual(l.sent, want) {
		t.Fatalf("a walk refused at the third entry sent %v, want %v", l.sent, want)
	}
	if len(l.r.state) != 4 {
		t.Fatalf("the cut-short walk kept %d schedules, want all 4", len(l.r.state))
	}
	l.refuse, l.sent = nil, nil
	l.walk(t)
	if want := []string{fmt.Sprintf("%d@30ms", ids[2]), fmt.Sprintf("%d@30ms", ids[3])}; !reflect.DeepEqual(l.sent, want) {
		t.Errorf("the next walk sent %v, want %v: the two it never reached, not yet the two backing off", l.sent, want)
	}
}

// TestRetransmitStormAlarmStillFires: backoff must not blind the
// retransmit-storm alarm — two hundred never-acked publications retried
// from a 1 ms interval are a real storm while their waits are still short,
// and the health tier must raise on it. The alarm is fed by the sum of the
// reliable stream's and the guaranteed retrier's retransmit counters.
func TestRetransmitStormAlarmStillFires(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	h := newHost(t, seg, "stormhost", HostConfig{
		LedgerPath:    filepath.Join(t.TempDir(), "pub.ledger"),
		RetryInterval: time.Millisecond,
		Telemetry:     TelemetryConfig{Health: telemetry.HealthConfig{Interval: 2 * time.Millisecond}},
	})
	b, err := h.NewBus("producer")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := b.PublishGuaranteed("g.storm", "again and again"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		for _, ev := range h.ActiveAlarms() {
			if ev.Kind == "retransmit-storm" {
				if !ev.Raised || ev.Value < telemetry.RetransmitStormRate {
					t.Fatalf("storm alarm edge = %+v", ev)
				}
				return
			}
		}
		select {
		case <-deadline:
			t.Fatalf("retransmit-storm never raised (retransmits=%d, active=%+v)",
				h.Metrics().Counter("bus.guar_retransmits").Load(), h.ActiveAlarms())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestIdleRetrierNoAllocs pins the retrier's steady state: a walk where
// nothing is due — pending entries merely waiting out their backoff, or
// an empty ledger — allocates nothing.
func TestIdleRetrierNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	l := newRetrierLab(t, time.Millisecond)
	l.append(t, 32)
	for len(l.sent) < 32*10 { // ten retransmissions each: waits of 1 s and more
		l.walk(t)
	}
	if got := testing.AllocsPerRun(200, func() { l.walk(t) }); got > 0 {
		t.Fatalf("pending-but-not-due walk = %.1f allocs/op, want 0", got)
	}
	if len(l.sent) != 32*10 {
		t.Fatalf("%d retransmissions during the measured walks; they were to be idle", len(l.sent)-32*10)
	}
	for _, e := range l.led.Pending() {
		if err := l.led.Ack(e.ID); err != nil {
			t.Fatal(err)
		}
	}
	l.walk(t) // sweep the acked entries' state
	if len(l.r.state) != 0 {
		t.Fatalf("%d stale retry states survived the sweep", len(l.r.state))
	}
	if got := testing.AllocsPerRun(200, func() { l.walk(t) }); got > 0 {
		t.Fatalf("empty-ledger walk = %.1f allocs/op, want 0", got)
	}
}

// TestDueRetrierWalkNoAllocs: a warm walk that retransmits one due entry
// allocates nothing either. Its payload is read back from the ledger into
// the retrier's reused buffer, byte for byte as it was appended.
func TestDueRetrierWalkNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	led, err := ledger.Open(filepath.Join(t.TempDir(), "g.log"), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	payload := []byte("due every walk")
	if _, err := led.Append("g.s", payload); err != nil {
		t.Fatal(err)
	}
	sent, wrong := 0, 0
	r := NewRetrier(led, time.Millisecond, telemetry.NewRegistry().Counter("bus.guar_retransmits"), nil,
		func(_ subject.Subject, p []byte, _ uint64) error {
			sent++
			if string(p) != string(payload) {
				wrong++
			}
			return nil
		})
	// Each tick lands past the longest backoff, so every walk finds the
	// entry due.
	now := virtualStart
	tick := func() {
		now = now.Add(DefaultRetryBackoffCap + time.Millisecond)
		r.Tick(now)
	}
	tick() // arms the cadence
	tick() // first sight
	tick() // first retransmission: the buffers grow
	if got := testing.AllocsPerRun(100, tick); got > 0 {
		t.Fatalf("a walk retransmitting one due entry = %.1f allocs/op, want 0", got)
	}
	if sent != 102 || wrong != 0 {
		t.Fatalf("%d retransmissions, %d with a payload other than the one appended; want 102 and 0", sent, wrong)
	}
}

// TestRetrierStatePruned: the per-entry backoff state must not leak once
// entries are acknowledged (mark-sweep by walk generation).
func TestRetrierStatePruned(t *testing.T) {
	l := newRetrierLab(t, time.Hour)
	ids := l.append(t, 10)
	l.walk(t)
	if len(l.r.state) != 10 {
		t.Fatalf("state = %d entries, want 10", len(l.r.state))
	}
	for _, id := range ids[:7] {
		if err := l.led.Ack(id); err != nil {
			t.Fatal(err)
		}
	}
	l.walk(t)
	if len(l.r.state) != 3 {
		t.Fatalf("state = %d entries after acking 7 of 10, want 3", len(l.r.state))
	}
}

// TestRetrierTickFlushesAcks: the ledger only stages an ack; a due walk
// commits it, so a host's acks reach its disk, and its replicas, with no
// append to carry them.
func TestRetrierTickFlushesAcks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.log")
	led, err := ledger.Open(path, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := led.Append("g.s", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopened, the ledger commits nothing until a caller asks: the only
	// commit can be the one the walk asks for.
	reg := telemetry.NewRegistry()
	if led, err = ledger.Open(path, ledger.Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	commits := reg.Counter("ledger.commits")
	const interval = time.Second
	r := NewRetrier(led, interval, reg.Counter("bus.guar_retransmits"), nil, func(subject.Subject, []byte, uint64) error { return nil })
	r.Tick(virtualStart) // arms the cadence
	if err := led.Ack(id); err != nil {
		t.Fatal(err)
	}
	r.Tick(virtualStart.Add(interval))
	if got := commits.Load(); got != 1 {
		t.Fatalf("a due walk took %d commits, want 1: the staged ack's", got)
	}
}
