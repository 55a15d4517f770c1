package qledger

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"infobus/internal/core"
	"infobus/internal/daemon"
	"infobus/internal/ledger"
	"infobus/internal/netsim"
	"infobus/internal/subject"
	"infobus/internal/transport"
)

var virtualStart = time.Unix(1000, 0)

// newLab returns a replica agent that is not on its host's loop: the test
// drives Tick and Hear on its own clock and plays every other replica. The
// host sits on a manual segment, so nothing the agent publishes leaves it;
// probe hears what the agent publishes on "_sys.repl.>".
func newLab(t *testing.T, cfg Config) (*core.Host, *Agent, *daemon.Client) {
	t.Helper()
	seg := transport.NewManualSimSegment(netsim.DefaultConfig(), virtualStart)
	t.Cleanup(func() { seg.Close() })
	h, err := core.NewHost(seg, "coord", core.HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	cfg.Dir, cfg.FsyncPolicy = filepath.Join(t.TempDir(), "store"), "lazy"
	a, err := newAgent(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	probe := subscribe(t, h, replPattern)
	return h, a, probe
}

// subscribe attaches a daemon client to h that hears pattern.
func subscribe(t *testing.T, h *core.Host, pattern string) *daemon.Client {
	t.Helper()
	c, err := h.Daemon().NewClient("test")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Subscribe(subject.MustParsePattern(pattern)); err != nil {
		t.Fatal(err)
	}
	return c
}

// published drains what probe heard and returns the frames of type typ.
func published(probe *daemon.Client, typ byte) []Frame {
	var out []Frame
	for dv, ok := probe.TryNext(); ok; dv, ok = probe.TryNext() {
		if f, err := ParseFrame(dv.Payload); err == nil && f.Type == typ {
			out = append(out, f)
		}
	}
	return out
}

// ackedIDs lists the ids a run of ack records acknowledges.
func ackedIDs(t *testing.T, records []byte) []uint64 {
	t.Helper()
	var ids []uint64
	for len(records) > 0 {
		rec, n, err := ledger.NextRecord(records)
		if err != nil || !rec.Ack {
			t.Fatalf("not a run of ack records: %v", err)
		}
		ids = append(ids, rec.ID)
		records = records[n:]
	}
	return ids
}

const deadOrigin = "sim:99#dead"

// twoEntries are the fostered origin's pending publications, one subject
// each.
var twoEntries = appendTestMessage(appendTestMessage(nil, 1, "orders.a", "one"), 2, "orders.b", "two")

// readReply is replica's answer to round of a read for deadOrigin.
func readReply(a *Agent, round uint64, replica string) []byte {
	return AppendFrame(nil, Frame{Type: FrameReadRep, Origin: deadOrigin, Round: round, Replica: replica,
		Records: a.store.PendingRecords(deadOrigin, maxReadRep)})
}

// TestRecoveryOnVirtualTime walks the coordinator's recovery of a silent
// origin: the crash timeout, a read round that times out short of the read
// quorum and repeats, the quorum, a replay that backs off while nobody
// listens, and the end once a consumer acknowledges everything — the last
// release, heard back, retiring the log.
func TestRecoveryOnVirtualTime(t *testing.T) {
	h, a, probe := newLab(t, Config{})
	a.readQ = 2 // this replica and one more
	if _, err := a.store.Apply(deadOrigin, 1, twoEntries); err != nil {
		t.Fatal(err)
	}
	_ = a.Promote()
	now := virtualStart
	tick := func(d time.Duration) {
		now = now.Add(d)
		a.Tick(now)
	}
	tick(0)                  // arms the cadences
	tick(a.cfg.BeatInterval) // the first scan starts the silence clock
	for i := 0; i < 3; i++ {
		tick(a.cfg.BeatInterval)
	}
	if reqs := published(probe, FrameReadReq); len(reqs) != 0 || a.recovering[deadOrigin] != nil {
		t.Fatalf("fostered after 3 silent beats (%d read requests), want 4", len(reqs))
	}
	tick(a.cfg.BeatInterval)
	if reqs := published(probe, FrameReadReq); len(reqs) != 1 || reqs[0].Round != 1 || reqs[0].Origin != deadOrigin {
		t.Fatalf("after 4 silent beats: read requests %+v, want round 1 for %s", reqs, deadOrigin)
	}

	a.Hear(nil, readReply(a, 1, "r-self")) // one of two
	tick(a.cfg.readTimeout - time.Millisecond)
	if reqs := published(probe, FrameReadReq); len(reqs) != 0 {
		t.Fatalf("a second round before the first timed out: %+v", reqs)
	}
	tick(time.Millisecond)
	if reqs := published(probe, FrameReadReq); len(reqs) != 1 || reqs[0].Round != 2 {
		t.Fatalf("the round that timed out short of the quorum did not repeat: %+v", reqs)
	}
	a.Hear(nil, readReply(a, 1, "r-other")) // late, for the round that timed out
	if r := a.recovering[deadOrigin]; len(r.seen) != 0 {
		t.Fatalf("a reply to a timed-out round counted: %v", r.seen)
	}
	a.Hear(nil, readReply(a, 2, "r-self"))
	a.Hear(nil, readReply(a, 2, "r-other"))
	tick(0) // the quorum: the replay starts

	// Nobody listens: the retrier's schedule, each wait twice the last.
	replayed := a.ctr.replayedMsgs
	var at []int
	for i := 1; i <= 16; i++ {
		before := replayed.Load()
		tick(a.cfg.RetryInterval)
		if n := replayed.Load() - before; n != 0 {
			if n != 2 {
				t.Fatalf("%d replays at interval %d, want both entries", n, i)
			}
			at = append(at, i)
		}
	}
	if fmt.Sprint(at) != "[2 4 8 16]" {
		t.Fatalf("replays at intervals %v, want [2 4 8 16]", at)
	}
	if rel := published(probe, FrameRelease); len(rel) != 0 {
		t.Fatalf("releases with nothing acknowledged: %+v", rel)
	}

	// A consumer appears: the next replay is acknowledged, the log drains and
	// the recovery ends with its last release.
	subscribe(t, h, "orders.>")
	for i := 17; i <= 32; i++ {
		tick(a.cfg.RetryInterval)
	}
	if a.recovering[deadOrigin] != nil {
		t.Fatal("the recovery outlived its drained log")
	}
	rel := published(probe, FrameRelease)
	if len(rel) != 1 || fmt.Sprint(ackedIDs(t, rel[0].Records)) != "[1 2]" {
		t.Fatalf("releases %+v, want one acknowledging 1 and 2", rel)
	}
	a.Hear(nil, AppendFrame(nil, rel[0])) // the release comes back over loopback
	if origins := a.store.Origins(); len(origins) != 0 {
		t.Fatalf("the release left %v pending", origins)
	}
}

// fosterNow has a fosters deadOrigin with twoEntries and answers its read
// round from a's own store, so the replay starts at the next tick.
func fosterNow(t *testing.T, a *Agent, now time.Time) {
	t.Helper()
	if _, err := a.store.Apply(deadOrigin, 1, twoEntries); err != nil {
		t.Fatal(err)
	}
	_ = a.Promote()
	a.foster(deadOrigin, now)
	a.Hear(nil, readReply(a, a.recovering[deadOrigin].round, a.replica))
}

// TestFosteredEntriesBackOff: the recovery coordinator retransmits a
// fostered entry nobody acknowledges on the host retrier's schedule —
// first one interval after its first walk sees it, then waits that double
// up to core.DefaultRetryBackoffCap — not once per RetryInterval for as
// long as it leads.
func TestFosteredEntriesBackOff(t *testing.T) {
	_, a, _ := newLab(t, Config{})
	now := virtualStart
	fosterNow(t, a, now)
	replayed := a.ctr.replayedMsgs
	var first time.Duration
	for i := 0; i < 200; i++ {
		now = now.Add(a.cfg.RetryInterval)
		if a.Tick(now); replayed.Load() > 0 {
			first = now.Sub(virtualStart)
			break
		}
	}
	if first == 0 {
		t.Fatal("the fostered entries were never replayed")
	}
	base := replayed.Load()
	for i := 0; i < 60; i++ {
		now = now.Add(a.cfg.RetryInterval)
		a.Tick(now)
	}
	// After the first replay the waits are 2, 4, 8, 16 and 32 intervals, so
	// sixty intervals hold four more of each entry; a replay per interval
	// would be sixty.
	if n := replayed.Load() - base; n != 2*4 {
		t.Fatalf("%d replays of two unacknowledged entries in 60 retry intervals, want 8", n)
	}
}

// TestCoordinatorRetiresMidReplay: a coordinator that retires while
// replaying sends the release of what was acknowledged and stops replaying.
func TestCoordinatorRetiresMidReplay(t *testing.T) {
	h, a, probe := newLab(t, Config{})
	subscribe(t, h, "orders.a") // acknowledges entry 1, never entry 2
	now := virtualStart
	fosterNow(t, a, now)
	for i := 0; i < 8 && a.ctr.replayedMsgs.Load() == 0; i++ {
		now = now.Add(a.cfg.RetryInterval)
		a.Tick(now)
	}
	replayed := a.ctr.replayedMsgs.Load()
	if replayed != 2 || a.recovering[deadOrigin] == nil {
		t.Fatalf("%d replays, recovering %v: want both entries replayed and the replay running", replayed, a.recovering[deadOrigin] != nil)
	}
	if rel := published(probe, FrameRelease); len(rel) != 0 {
		t.Fatalf("released before the next tick: %+v", rel)
	}
	a.Retire()
	rel := published(probe, FrameRelease)
	if len(rel) != 1 || fmt.Sprint(ackedIDs(t, rel[0].Records)) != "[1]" {
		t.Fatalf("releases on retiring %+v, want one acknowledging 1", rel)
	}
	for i := 0; i < 64; i++ {
		now = now.Add(a.cfg.RetryInterval)
		a.Tick(now)
	}
	if n := a.ctr.replayedMsgs.Load(); n != replayed || len(a.recovering) != 0 {
		t.Fatalf("a retired coordinator replayed %d more, recovering %d", n-replayed, len(a.recovering))
	}
}

// TestReplayAndRetireInEitherOrder: a FrameRelease that drains a replica's
// log for an origin retires the log (Store.Release), and the log may be the
// one the coordinator's replay walks. Either the replay ends first — it
// sends the release that drains the log, and the release comes back over
// loopback — or a release retires the log while the replay still ticks over
// it, and the replay ends on the closed, empty log.
func TestReplayAndRetireInEitherOrder(t *testing.T) {
	retired := func(a *Agent) bool {
		segs, _ := filepath.Glob(a.Store().logPath(deadOrigin) + ".*.seg")
		return len(a.Store().Origins()) == 0 && len(segs) == 0
	}
	t.Run("replay ends, then its release retires the log", func(t *testing.T) {
		h, a, probe := newLab(t, Config{})
		subscribe(t, h, "orders.>") // a local consumer acknowledges every replay
		now := virtualStart
		fosterNow(t, a, now)
		for i := 0; i < 4 && a.recovering[deadOrigin] != nil; i++ {
			now = now.Add(a.cfg.RetryInterval)
			a.Tick(now)
		}
		if a.recovering[deadOrigin] != nil {
			t.Fatal("the replay never ended")
		}
		rel := published(probe, FrameRelease)
		if len(rel) != 1 {
			t.Fatalf("%d releases, want the last one", len(rel))
		}
		a.Hear(nil, AppendFrame(nil, rel[0]))
		if !retired(a) {
			t.Fatal("the looped-back release did not retire the log")
		}
	})
	t.Run("a release retires the log under the replay", func(t *testing.T) {
		_, a, _ := newLab(t, Config{})
		now := virtualStart
		fosterNow(t, a, now)
		led := a.recovering[deadOrigin].led
		for a.ctr.replayedMsgs.Load() == 0 {
			now = now.Add(a.cfg.RetryInterval)
			a.Tick(now)
		}
		acks := ledger.AppendAckRecord(ledger.AppendAckRecord(nil, 1), 2)
		a.Hear(nil, AppendFrame(nil, Frame{Type: FrameRelease, Origin: deadOrigin, Records: acks}))
		if !retired(a) {
			t.Fatal("a release draining the log did not retire it")
		}
		a.Tick(now.Add(a.cfg.RetryInterval))
		if a.recovering[deadOrigin] != nil {
			t.Fatal("the replay outlived its retired log")
		}
		if err := led.Ack(1); !errors.Is(err, ledger.ErrClosed) {
			t.Fatalf("Ack on the retired log = %v, want ledger.ErrClosed", err)
		}
		if !retired(a) {
			t.Fatal("the replay resurrected the retired log")
		}
	})
}

// TestHeardOriginsBounded: every publisher restart is a new origin, and a
// replica hears each one beat. Origins its store does not hold are
// forgotten once silent for the crash timeout, so 1 000 publishers that beat
// once leave the map where they found it. A publisher-only agent, which
// never fosters, tracks nothing.
func TestHeardOriginsBounded(t *testing.T) {
	_, a, _ := newLab(t, Config{})
	const held = "sim:1#held"
	if _, err := a.store.Apply(held, 1, appendTestMessage(nil, 1, "orders.a", "one")); err != nil {
		t.Fatal(err)
	}
	beat := func(origin string) []byte { return AppendFrame(nil, Frame{Type: FrameBeat, Origin: origin}) }
	now := virtualStart
	a.Tick(now)
	a.Hear(nil, beat(held))
	for i := 0; i < 1000; i++ {
		a.Hear(nil, beat(fmt.Sprintf("sim:%d#gone", i+2)))
	}
	for i := 0; i < 5; i++ {
		now = now.Add(a.cfg.BeatInterval)
		a.Tick(now)
	}
	if len(a.heard) != 1 {
		t.Fatalf("%d origins heard after the silent ones timed out, want the store's 1", len(a.heard))
	}
	if _, ok := a.heard[held]; !ok {
		t.Fatal("the origin the store holds was forgotten")
	}

	seg := transport.NewManualSimSegment(netsim.DefaultConfig(), virtualStart)
	defer seg.Close()
	h, err := core.NewHost(seg, "pub", core.HostConfig{LedgerPath: filepath.Join(t.TempDir(), "ledger")})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	pub, err := newAgent(h, Config{Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	pub.Hear(nil, beat("sim:2#other"))
	if len(pub.heard) != 0 {
		t.Fatalf("a publisher-only agent tracks %d origins, want none", len(pub.heard))
	}
}

// TestReleaseHeardAfterBatches: frames keep arrival order. A release heard
// after two batches in one pass of the loop — queued for one group commit,
// and with a gather window still open — applies after them, so the acks it
// carries find their entries and the log drains.
func TestReleaseHeardAfterBatches(t *testing.T) {
	for _, gather := range []time.Duration{0, 5 * time.Millisecond} {
		t.Run(fmt.Sprintf("GatherDelay=%v", gather), func(t *testing.T) {
			_, a, probe := newLab(t, Config{GatherDelay: gather})
			const origin = "sim:7#pub"
			batch := func(seq, id uint64) []byte {
				return AppendFrame(nil, Frame{Type: FrameBatch, Origin: origin, Seq: seq,
					Records: appendTestMessage(nil, id, "orders.x", "x")})
			}
			acks := ledger.AppendAckRecord(ledger.AppendAckRecord(nil, 1), 2)
			a.Hear(nil, batch(1, 1))
			a.Hear(nil, batch(2, 2))
			a.Hear(nil, AppendFrame(nil, Frame{Type: FrameRelease, Origin: origin, Records: acks}))
			a.Tick(virtualStart)
			if n := a.store.PendingCount(origin); n != 0 || len(a.store.Origins()) != 0 {
				t.Fatalf("%d entries pending after the release (origins %v), want none", n, a.store.Origins())
			}
			if acked := published(probe, FrameAck); len(acked) == 0 {
				t.Fatal("the batches were not acknowledged")
			}
		})
	}
}
