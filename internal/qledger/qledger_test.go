package qledger

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"infobus/internal/core"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/transport"
)

func fastReliable() reliable.Config {
	return reliable.Config{
		NakInterval:        2 * time.Millisecond,
		GapTimeout:         300 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  5 * time.Millisecond,
	}
}

func fastSeg() *transport.SimSegment {
	cfg := netsim.DefaultConfig()
	cfg.Speedup = 2000
	return transport.NewSimSegment(cfg)
}

// fastRepl returns ms-scale replication timers matched to the netsim test
// convention (wall-clock timers against a sped-up simulated network).
func fastRepl(factor int, dir string) Config {
	return Config{
		Factor:        factor,
		AckTimeout:    2 * time.Second,
		FsyncPolicy:   "lazy",
		Dir:           dir,
		BeatInterval:  10 * time.Millisecond,
		readTimeout:   150 * time.Millisecond,
		RetryInterval: 5 * time.Millisecond,
	}
}

// newReplHost builds a host with the replication tier attached — the
// wiring infobus.NewHost then infobus.Replicate perform, done by hand
// because this internal package cannot import the facade.
func newReplHost(t *testing.T, seg transport.Segment, name string, hcfg core.HostConfig, qcfg Config) (*core.Host, *Agent) {
	t.Helper()
	hcfg.Reliable = fastReliable()
	if hcfg.RetryInterval == 0 {
		hcfg.RetryInterval = 10 * time.Millisecond
	}
	h, err := core.NewHost(seg, name, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Attach(h, qcfg)
	if err != nil {
		_ = h.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h, a
}

func newPlainHost(t *testing.T, seg transport.Segment, name string) *core.Host {
	t.Helper()
	h, err := core.NewHost(seg, name, core.HostConfig{Reliable: fastReliable()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h
}

func waitUntil(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.After(d)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func simNodeID(t *testing.T, h *core.Host) netsim.NodeID {
	t.Helper()
	var id int
	if _, err := fmt.Sscanf(h.Addr(), "sim:%d", &id); err != nil {
		t.Fatalf("host addr %q: %v", h.Addr(), err)
	}
	return netsim.NodeID(id)
}

// TestQuorumAckAndTrim: the normal-operation path. Publishes reach quorum
// (the gate releases), the replicas hold the pending entries, and once
// consumers acknowledge, the publisher's mirrored ack records trim the
// replica logs back to empty — replicas track the pending set, not the
// full history.
func TestQuorumAckAndTrim(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	dir := t.TempDir()
	pub, pa := newReplHost(t, seg, "pub",
		core.HostConfig{LedgerPath: filepath.Join(dir, "pub.ledger")},
		fastRepl(2, ""))
	_, r1 := newReplHost(t, seg, "r1", core.HostConfig{}, fastRepl(0, filepath.Join(dir, "r1")))
	_, r2 := newReplHost(t, seg, "r2", core.HostConfig{}, fastRepl(0, filepath.Join(dir, "r2")))

	cons := newPlainHost(t, seg, "cons")
	cbus, err := cons.NewBus("consumer")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cbus.Subscribe("orders.>")
	if err != nil {
		t.Fatal(err)
	}

	pbus, err := pub.NewBus("producer")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := pbus.PublishGuaranteed("orders.new", fmt.Sprintf("o-%d", i)); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		select {
		case <-sub.C:
		case <-time.After(5 * time.Second):
			t.Fatalf("consumer got %d of 5", i)
		}
	}
	// Consumer acks drain the publisher ledger; the mirrored ack records
	// then drain the replicas.
	waitUntil(t, "publisher ledger drain", 5*time.Second, func() bool {
		return len(pub.PendingGuaranteed()) == 0
	})
	origin := pa.Origin()
	waitUntil(t, "replica trim", 5*time.Second, func() bool {
		return r1.Store().PendingCount(origin) == 0 && r2.Store().PendingCount(origin) == 0
	})
	if m := pub.Metrics().Gauge("qledger.repl_lag").Load(); m != 0 {
		t.Errorf("repl_lag = %d after full quorum", m)
	}
	if m := pub.Metrics().Gauge("qledger.quorum_lost").Load(); m != 0 {
		t.Errorf("quorum_lost = %d", m)
	}
}

// TestQuorumLiveness is the check.sh liveness gate: with a replication
// group of publisher + 3 replicas, publishing makes progress with one
// replica down (majority still reachable) and times out with two down.
func TestQuorumLiveness(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	dir := t.TempDir()
	qcfg := fastRepl(3, "")
	qcfg.AckTimeout = 150 * time.Millisecond // fail fast when quorum is gone
	pub, _ := newReplHost(t, seg, "pub",
		core.HostConfig{LedgerPath: filepath.Join(dir, "pub.ledger")}, qcfg)
	rcfg := func(name string) Config {
		c := fastRepl(0, filepath.Join(dir, name))
		c.DisableRecovery = true // liveness test: no coordinator interference
		return c
	}
	r1h, _ := newReplHost(t, seg, "r1", core.HostConfig{}, rcfg("r1"))
	r2h, _ := newReplHost(t, seg, "r2", core.HostConfig{}, rcfg("r2"))
	newReplHost(t, seg, "r3", core.HostConfig{}, rcfg("r3"))

	pbus, err := pub.NewBus("producer")
	if err != nil {
		t.Fatal(err)
	}
	// Full group: progress.
	if _, err := pbus.PublishGuaranteed("q.live", "all-up"); err != nil {
		t.Fatalf("publish with full group: %v", err)
	}
	// One of three replicas down: majority (publisher + 2 of 3) still
	// holds, publishing progresses.
	_ = r1h.Close()
	if _, err := pbus.PublishGuaranteed("q.live", "one-down"); err != nil {
		t.Fatalf("publish with 1 of 3 replicas down: %v", err)
	}
	// Majority of replicas down: the quorum gate must block and report.
	_ = r2h.Close()
	if _, err := pbus.PublishGuaranteed("q.live", "two-down"); !errors.Is(err, ErrQuorumTimeout) {
		t.Fatalf("publish with majority down: err = %v, want ErrQuorumTimeout", err)
	}
	if pub.Metrics().Gauge("qledger.quorum_lost").Load() != 1 {
		t.Error("quorum_lost gauge not raised")
	}
}

// TestCrashRecoveryExactlyOnce is the acceptance scenario: a publisher
// with replication factor 2 crashes with 10 majority-acked publications a
// partitioned consumer never saw. After the partition heals, the elected
// recovery coordinator majority-reads the replicas and replays under the
// dead publisher's identity: the consumer ends with exactly one copy of
// all 20 messages — none lost, none duplicated.
func TestCrashRecoveryExactlyOnce(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	dir := t.TempDir()
	qcfg := fastRepl(2, "")
	pub, pa := newReplHost(t, seg, "pub",
		core.HostConfig{LedgerPath: filepath.Join(dir, "pub.ledger")}, qcfg)
	_, r1 := newReplHost(t, seg, "r1", core.HostConfig{}, fastRepl(0, filepath.Join(dir, "r1")))
	_, r2 := newReplHost(t, seg, "r2", core.HostConfig{}, fastRepl(0, filepath.Join(dir, "r2")))
	origin := pa.Origin()

	cons := newPlainHost(t, seg, "cons")
	cbus, err := cons.NewBus("consumer")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cbus.Subscribe("orders.>")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.C {
			if s, ok := ev.Value.(string); ok {
				got[s]++
			}
		}
	}()

	pbus, err := pub.NewBus("producer")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := pbus.PublishGuaranteed("orders.new", fmt.Sprintf("m-%d", i)); err != nil {
			t.Fatalf("phase-1 publish %d: %v", i, err)
		}
	}
	waitUntil(t, "phase-1 delivery and acks", 5*time.Second, func() bool {
		return len(pub.PendingGuaranteed()) == 0
	})

	// Partition the consumer, then publish 10 more: quorum needs only the
	// replicas, so the gate still releases — these are majority-acked
	// publications no consumer has seen.
	seg.Network().Partition(simNodeID(t, cons))
	for i := 10; i < 20; i++ {
		if _, err := pbus.PublishGuaranteed("orders.new", fmt.Sprintf("m-%d", i)); err != nil {
			t.Fatalf("phase-2 publish %d: %v", i, err)
		}
	}
	waitUntil(t, "replicas holding phase-2 entries", 5*time.Second, func() bool {
		return r1.Store().PendingCount(origin) == 10 && r2.Store().PendingCount(origin) == 10
	})

	// The publisher dies; the partition heals. The coordinator elected
	// among the replicas must notice the silent origin, majority-read, and
	// replay — preserving (origin, id) so dedup absorbs any overlap with
	// the original transmissions.
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	seg.Network().Heal()

	waitUntil(t, "recovery replay to the consumer", 20*time.Second, func() bool {
		return r1.Store().PendingCount(origin) == 0 && r2.Store().PendingCount(origin) == 0
	})
	// Let any straggling duplicate arrive before asserting exactly-once.
	time.Sleep(50 * time.Millisecond)
	_ = cbus.Close()
	<-done

	if len(got) != 20 {
		t.Fatalf("consumer saw %d distinct messages, want 20 (%v)", len(got), got)
	}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("m-%d", i)
		if got[k] != 1 {
			t.Errorf("message %s delivered %d times, want exactly once", k, got[k])
		}
	}
	if r1.Store().PendingCount(origin) != 0 || r2.Store().PendingCount(origin) != 0 {
		t.Error("replica logs not released after recovery")
	}
}

// TestReplicaRestartStableIdentity: a replica that restarts keeps its
// replica token (and its on-disk pending set), so quorum arithmetic never
// counts one disk twice.
func TestReplicaRestartStableIdentity(t *testing.T) {
	dir := t.TempDir()
	tok1, err := stableReplicaToken(dir)
	if err != nil {
		t.Fatal(err)
	}
	tok2, err := stableReplicaToken(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tok1 != tok2 || tok1 == "" {
		t.Fatalf("replica token not stable: %q then %q", tok1, tok2)
	}

	// The store itself also survives: apply a batch, reopen, and the
	// pending set is still there.
	s, err := OpenStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := appendTestMessage(nil, 3, "a.b", "hello")
	if _, err := s.Apply("origin-x", 1, recs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.PendingCount("origin-x"); n != 1 {
		t.Fatalf("reopened store pending = %d, want 1", n)
	}
	origins := s2.Origins()
	if len(origins) != 1 || origins[0] != "origin-x" {
		t.Fatalf("reopened origins = %v", origins)
	}
}
