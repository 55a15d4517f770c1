package qledger

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"infobus/internal/core"
	"infobus/internal/ledger"
	"infobus/internal/subject"
)

// TestFosteredEntriesBackOff: the recovery coordinator retransmits a
// fostered entry nobody acknowledges on the host retrier's schedule —
// first one interval after its first walk sees it, then waits that double
// up to core.DefaultRetryBackoffCap — not once per RetryInterval for as
// long as it leads.
func TestFosteredEntriesBackOff(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	dir := t.TempDir()
	qcfg := fastRepl(2, "")
	pub, _ := newReplHost(t, seg, "pub",
		core.HostConfig{LedgerPath: filepath.Join(dir, "pub.ledger")}, qcfg)
	r1, _ := newReplHost(t, seg, "r1", core.HostConfig{}, fastRepl(0, filepath.Join(dir, "r1")))
	r2, _ := newReplHost(t, seg, "r2", core.HostConfig{}, fastRepl(0, filepath.Join(dir, "r2")))

	pbus, err := pub.NewBus("producer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pbus.PublishGuaranteed("orders.unheard", "nobody subscribes"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := func() uint64 {
		return r1.Metrics().Counter("qledger.replayed_msgs").Load() +
			r2.Metrics().Counter("qledger.replayed_msgs").Load()
	}
	waitUntil(t, "the coordinator fostering the entry", 10*time.Second, func() bool { return replayed() > 0 })
	base := replayed()
	time.Sleep(60 * qcfg.RetryInterval)
	// After the first replay the waits are 2, 4, 8, 16 and 32 intervals, so
	// sixty intervals hold about four more; a replay per interval would be
	// about sixty.
	if n := replayed() - base; n > 8 {
		t.Fatalf("%d replays of one unacknowledged entry in 60 retry intervals, want at most 8", n)
	}
}

// TestReplayAndRetireInEitherOrder: a FrameRelease that drains a replica's
// log for an origin retires the log (Store.Release), and the log may be the
// one the coordinator's replay walks. Either the replay stops ticking first
// — it sends the release that drains the log, and the release comes back
// over loopback — or a release retires the log while the replay still
// ticks over it, and the replay ends on the closed, empty log.
func TestReplayAndRetireInEitherOrder(t *testing.T) {
	const origin = "sim:99#dead"
	records := appendTestMessage(nil, 1, "orders.fostered", "one")
	records = appendTestMessage(records, 2, "orders.fostered", "two")

	// foster puts the two entries in a fresh replica's log for origin and
	// starts its replay; done closes when the replay returns.
	foster := func(t *testing.T) (*core.Host, *Agent, *ledger.Ledger, chan struct{}) {
		seg := fastSeg()
		t.Cleanup(func() { seg.Close() })
		rcfg := fastRepl(0, filepath.Join(t.TempDir(), "r"))
		rcfg.DisableRecovery = true // the test is the coordinator
		h, a := newReplHost(t, seg, "r", core.HostConfig{}, rcfg)
		ol, err := a.Store().open(origin)
		if err != nil {
			t.Fatal(err)
		}
		led := ol.led
		if err := led.AppendBatch(records); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			a.replay(origin, led, make(chan struct{}))
		}()
		return h, a, led, done
	}
	retired := func(a *Agent) bool {
		segs, _ := filepath.Glob(a.Store().logPath(origin) + ".*.seg")
		return len(a.Store().Origins()) == 0 && len(segs) == 0
	}
	ended := func(t *testing.T, done chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("the replay never ended")
		}
	}

	t.Run("replay ends, then its release retires the log", func(t *testing.T) {
		h, a, led, done := foster(t)
		// A local consumer takes the replays, and its daemon acknowledges them
		// to the foster callback.
		c, err := h.Daemon().NewClient("consumer")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(subject.MustParsePattern("orders.>")); err != nil {
			t.Fatal(err)
		}
		ended(t, done)
		if led.Len() != 0 {
			t.Fatalf("replay ended with %d entries pending", led.Len())
		}
		waitUntil(t, "the looped-back release retiring the log", 5*time.Second, func() bool { return retired(a) })
	})

	t.Run("a release retires the log under the replay", func(t *testing.T) {
		_, a, led, done := foster(t)
		replayed := a.ctr.replayedMsgs
		waitUntil(t, "a first replay", 5*time.Second, func() bool { return replayed.Load() > 0 })
		acks := ledger.AppendAckRecord(ledger.AppendAckRecord(nil, 1), 2)
		if err := a.Store().Release(origin, acks); err != nil {
			t.Fatal(err)
		}
		if !retired(a) {
			t.Fatal("a release draining the log did not retire it")
		}
		ended(t, done)
		if err := led.Ack(1); !errors.Is(err, ledger.ErrClosed) {
			t.Fatalf("Ack on the retired log = %v, want ledger.ErrClosed", err)
		}
		if !retired(a) {
			t.Fatal("the replay resurrected the retired log")
		}
	})
}
