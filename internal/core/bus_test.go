package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"infobus/internal/mop"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/transport"
)

func fastSeg() *transport.SimSegment {
	cfg := netsim.DefaultConfig()
	cfg.Speedup = 5000
	return transport.NewSimSegment(cfg)
}

func fastReliable() reliable.Config {
	return reliable.Config{
		NakInterval:        2 * time.Millisecond,
		GapTimeout:         300 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  5 * time.Millisecond,
	}
}

func newHost(t *testing.T, seg transport.Segment, name string, cfg HostConfig) *Host {
	t.Helper()
	if cfg.Reliable.NakInterval == 0 {
		cfg.Reliable = fastReliable()
	}
	h, err := NewHost(seg, name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h
}

func recvEvent(t *testing.T, sub *Subscription, within time.Duration) Event {
	t.Helper()
	select {
	case ev, ok := <-sub.C:
		if !ok {
			t.Fatal("subscription closed")
		}
		return ev
	case <-time.After(within):
		t.Fatal("timed out waiting for event")
		return Event{}
	}
}

// thicknessType builds a small fab-telemetry class.
func thicknessType() *mop.Type {
	return mop.MustNewClass("WaferThickness", nil, []mop.Attr{
		{Name: "station", Type: mop.String},
		{Name: "microns", Type: mop.Float},
	}, nil)
}

func TestPublishSubscribeAcrossHosts(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	pubHost := newHost(t, seg, "fab-pub", HostConfig{})
	subHost := newHost(t, seg, "fab-sub", HostConfig{})

	pubBus, err := pubHost.NewBus("sensor")
	if err != nil {
		t.Fatal(err)
	}
	subBus, err := subHost.NewBus("monitor")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subBus.Subscribe("fab5.cc.litho8.thick")
	if err != nil {
		t.Fatal(err)
	}

	wt := thicknessType()
	obj := mop.MustNew(wt).MustSet("station", "litho8").MustSet("microns", 12.5)
	if err := pubBus.Publish("fab5.cc.litho8.thick", obj); err != nil {
		t.Fatal(err)
	}

	ev := recvEvent(t, sub, 5*time.Second)
	got := ev.Value.(*mop.Object)
	// The subscriber host had never seen WaferThickness: the type arrived
	// self-describing (P2) and was registered (P3).
	if got.Type().Name() != "WaferThickness" {
		t.Fatalf("type = %q", got.Type().Name())
	}
	if !subHost.Registry().Has("WaferThickness") {
		t.Error("type not registered on subscriber host")
	}
	if got.MustGet("microns") != 12.5 {
		t.Errorf("microns = %v", got.MustGet("microns"))
	}
	if ev.Subject.String() != "fab5.cc.litho8.thick" {
		t.Errorf("subject = %v", ev.Subject)
	}
}

func TestWildcardSubscriptionsAndLocalLoopback(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	h := newHost(t, seg, "solo", HostConfig{})
	pub, _ := h.NewBus("producer")
	con, _ := h.NewBus("consumer")

	star, err := con.Subscribe("news.equity.*")
	if err != nil {
		t.Fatal(err)
	}
	rest, err := con.Subscribe("news.>")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("news.equity.gmc", "story-1"); err != nil {
		t.Fatal(err)
	}
	// Local consumer on the same host receives via daemon loopback.
	if ev := recvEvent(t, star, 5*time.Second); ev.Value != "story-1" {
		t.Errorf("star event = %v", ev.Value)
	}
	if ev := recvEvent(t, rest, 5*time.Second); ev.Value != "story-1" {
		t.Errorf("rest event = %v", ev.Value)
	}
	// Non-matching subject.
	if err := pub.Publish("sports.scores", "nope"); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-star.C:
		t.Errorf("star received non-matching %v", ev.Value)
	case <-time.After(30 * time.Millisecond):
	}
}

func TestAnonymousProducerReplacement(t *testing.T) {
	// R1/P4: a subscriber keeps working, oblivious, while the producer is
	// replaced by a new implementation on a different host.
	seg := fastSeg()
	defer seg.Close()
	subHost := newHost(t, seg, "sub", HostConfig{})
	subBus, _ := subHost.NewBus("app")
	sub, _ := subBus.Subscribe("quotes.ibm")

	oldHost := newHost(t, seg, "serverV1", HostConfig{})
	oldBus, _ := oldHost.NewBus("v1")
	if err := oldBus.Publish("quotes.ibm", int64(101)); err != nil {
		t.Fatal(err)
	}
	if ev := recvEvent(t, sub, 5*time.Second); ev.Value != int64(101) {
		t.Fatalf("v1 event = %v", ev.Value)
	}
	// Old server goes away; new one takes over the subject.
	_ = oldHost.Close()
	newHostV2 := newHost(t, seg, "serverV2", HostConfig{})
	newBus, _ := newHostV2.NewBus("v2")
	if err := newBus.Publish("quotes.ibm", int64(202)); err != nil {
		t.Fatal(err)
	}
	if ev := recvEvent(t, sub, 5*time.Second); ev.Value != int64(202) {
		t.Fatalf("v2 event = %v", ev.Value)
	}
}

func TestSubscriptionCancel(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	h := newHost(t, seg, "h", HostConfig{})
	pub, _ := h.NewBus("p")
	con, _ := h.NewBus("c")
	sub, _ := con.Subscribe("a.b")
	if err := pub.Publish("a.b", int64(1)); err != nil {
		t.Fatal(err)
	}
	recvEvent(t, sub, 5*time.Second)
	sub.Cancel()
	if _, ok := <-sub.C; ok {
		t.Error("channel should be closed after Cancel")
	}
	if err := pub.Publish("a.b", int64(2)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// A second cancel is harmless.
	sub.Cancel()
}

// TestCancelOneOfTwoOnAPattern: two subscriptions of one bus on one pattern
// share the daemon-side subscription, which must outlive the first cancel
// and go with the second.
func TestCancelOneOfTwoOnAPattern(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	h := newHost(t, seg, "h", HostConfig{})
	pub, _ := h.NewBus("p")
	con, _ := h.NewBus("c")
	first, _ := con.Subscribe("a.*")
	second, _ := con.Subscribe("a.*")
	other, _ := con.Subscribe("b.>")
	first.Cancel()
	if got := con.client.Patterns(); len(got) != 2 {
		t.Fatalf("daemon-side patterns after the first cancel = %v, want a.* and b.>", got)
	}
	if err := pub.Publish("a.b", int64(1)); err != nil {
		t.Fatal(err)
	}
	if ev := recvEvent(t, second, 5*time.Second); ev.Value != int64(1) {
		t.Fatalf("surviving subscription received %v", ev.Value)
	}
	second.Cancel()
	if got := con.client.Patterns(); len(got) != 1 || got[0] != "b.>" {
		t.Fatalf("daemon-side patterns after the second cancel = %v, want only b.>", got)
	}
	other.Cancel()
	if got := con.client.Patterns(); len(got) != 0 || len(con.all) != 0 {
		t.Fatalf("after the last cancel: patterns %v, %d subscriptions", got, len(con.all))
	}
}

func TestGuaranteedDeliveryAckAndLedgerDrain(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	dir := t.TempDir()
	pubHost := newHost(t, seg, "pub", HostConfig{
		LedgerPath:    filepath.Join(dir, "pub.ledger"),
		RetryInterval: 10 * time.Millisecond,
	})
	subHost := newHost(t, seg, "sub", HostConfig{})
	pubBus, _ := pubHost.NewBus("wip")
	subBus, _ := subHost.NewBus("db")
	sub, _ := subBus.Subscribe("fab5.wip.>")

	id, err := pubBus.PublishGuaranteed("fab5.wip.lot42", "move-to-litho")
	if err != nil {
		t.Fatal(err)
	}
	ev := recvEvent(t, sub, 5*time.Second)
	if !ev.Guaranteed || ev.Value != "move-to-litho" {
		t.Fatalf("event = %+v", ev)
	}
	// The consumer's ack must drain the publisher's ledger.
	deadline := time.After(5 * time.Second)
	for len(pubHost.PendingGuaranteed()) > 0 {
		select {
		case <-deadline:
			t.Fatalf("ledger never drained; pending=%v id=%d", pubHost.PendingGuaranteed(), id)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestGuaranteedDeliveryRetriesAcrossPartition(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	dir := t.TempDir()
	pubHost := newHost(t, seg, "pub", HostConfig{
		LedgerPath:    filepath.Join(dir, "pub.ledger"),
		RetryInterval: 10 * time.Millisecond,
	})
	subHost := newHost(t, seg, "sub", HostConfig{})
	pubBus, _ := pubHost.NewBus("wip")
	subBus, _ := subHost.NewBus("db")
	sub, _ := subBus.Subscribe("g.data")

	// Cut the subscriber off BEFORE publishing.
	var subID netsim.NodeID
	if _, err := fmt.Sscanf(subHost.Addr(), "sim:%d", &subID); err != nil {
		t.Fatal(err)
	}
	seg.Network().Partition(subID)
	if _, err := pubBus.PublishGuaranteed("g.data", int64(7)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if len(pubHost.PendingGuaranteed()) != 1 {
		t.Fatalf("message should still be pending during partition")
	}
	// Heal: the retrier must push it through without any new Publish call.
	seg.Network().Heal()
	ev := recvEvent(t, sub, 10*time.Second)
	if ev.Value != int64(7) || !ev.Guaranteed {
		t.Fatalf("event = %+v", ev)
	}
	deadline := time.After(5 * time.Second)
	for len(pubHost.PendingGuaranteed()) > 0 {
		select {
		case <-deadline:
			t.Fatal("ledger never drained after heal")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestGuaranteedSurvivesPublisherRestart(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	path := filepath.Join(t.TempDir(), "host.ledger")

	// First life: publish with nobody subscribed, then crash.
	h1, err := NewHost(seg, "pub", HostConfig{
		Reliable: fastReliable(), LedgerPath: path, RetryInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := h1.NewBus("app")
	if _, err := b1.PublishGuaranteed("g.restart", "survives"); err != nil {
		t.Fatal(err)
	}
	_ = h1.Close() // crash

	// Consumer appears.
	subHost := newHost(t, seg, "sub", HostConfig{})
	subBus, _ := subHost.NewBus("db")
	sub, _ := subBus.Subscribe("g.restart")

	// Second life: the ledger replays and the retrier delivers.
	h2 := newHost(t, seg, "pub-reborn", HostConfig{
		LedgerPath: path, RetryInterval: 10 * time.Millisecond,
	})
	if len(h2.PendingGuaranteed()) != 1 {
		t.Fatalf("pending after restart = %v", h2.PendingGuaranteed())
	}
	ev := recvEvent(t, sub, 10*time.Second)
	if ev.Value != "survives" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestGuaranteedWithoutLedgerFails(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	h := newHost(t, seg, "h", HostConfig{})
	b, _ := h.NewBus("app")
	if _, err := b.PublishGuaranteed("a.b", "x"); !errors.Is(err, ErrNoLedger) {
		t.Errorf("error = %v, want ErrNoLedger", err)
	}
}

func TestPublishErrors(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	h := newHost(t, seg, "h", HostConfig{})
	b, _ := h.NewBus("app")
	if err := b.Publish("bad subject!", "x"); err == nil {
		t.Error("invalid subject accepted")
	}
	if err := b.Publish("a.*", "x"); err == nil {
		t.Error("wildcard in publish subject accepted")
	}
	if err := b.Publish("a.b", struct{}{}); !errors.Is(err, ErrNotDataObject) {
		t.Errorf("unmarshalable value error = %v", err)
	}
	if _, err := b.Subscribe("bad..pattern"); err == nil {
		t.Error("invalid pattern accepted")
	}
	_ = b.Close()
	if err := b.Publish("a.b", "x"); err == nil {
		t.Error("publish on closed bus accepted")
	}
	if _, err := b.Subscribe("a.b"); !errors.Is(err, ErrClosed) {
		t.Errorf("subscribe on closed bus error = %v", err)
	}
}

func TestManySubscribersFanout(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	pubHost := newHost(t, seg, "pub", HostConfig{})
	pubBus, _ := pubHost.NewBus("p")

	const nSubs = 14 // the paper's topology
	var subs []*Subscription
	for i := 0; i < nSubs; i++ {
		h := newHost(t, seg, fmt.Sprintf("sub%d", i), HostConfig{})
		b, _ := h.NewBus("c")
		s, err := b.Subscribe("bench.data")
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	const nMsgs = 20
	for i := 0; i < nMsgs; i++ {
		if err := pubBus.Publish("bench.data", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for si, s := range subs {
		for i := 0; i < nMsgs; i++ {
			ev := recvEvent(t, s, 10*time.Second)
			if ev.Value != int64(i) {
				t.Fatalf("subscriber %d message %d = %v (order broken)", si, i, ev.Value)
			}
		}
	}
}

func TestTDLTypeTravelsOnBus(t *testing.T) {
	// P3 end to end: a type defined at run time in TDL on one host is
	// instantiated, published, and reconstructed on another host.
	seg := fastSeg()
	defer seg.Close()
	pubHost := newHost(t, seg, "pub", HostConfig{})
	subHost := newHost(t, seg, "sub", HostConfig{})
	pubBus, _ := pubHost.NewBus("p")
	subBus, _ := subHost.NewBus("c")
	sub, _ := subBus.Subscribe("dyn.>")

	// Define the class dynamically on the publisher side only.
	alert := mop.MustNewClass("EquipAlert", nil, []mop.Attr{
		{Name: "station", Type: mop.String},
		{Name: "severity", Type: mop.Int},
	}, nil)
	if err := pubHost.Registry().Register(alert); err != nil {
		t.Fatal(err)
	}
	obj := mop.MustNew(alert).MustSet("station", "litho8").MustSet("severity", int64(3))
	if err := pubBus.Publish("dyn.alert", obj); err != nil {
		t.Fatal(err)
	}
	ev := recvEvent(t, sub, 5*time.Second)
	got := ev.Value.(*mop.Object)
	if got.Type().Name() != "EquipAlert" || got.MustGet("severity") != int64(3) {
		t.Fatalf("event = %s", mop.Sprint(got))
	}
}
