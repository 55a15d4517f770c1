package core

import (
	"path/filepath"
	"testing"
	"time"

	"infobus/internal/mop"
	"infobus/internal/transport"
)

// compactCfg is the host configuration for compact publishers in these
// tests: millisecond NAK timers to match the netsim speedup (see
// fastReliable).
func compactCfg() HostConfig {
	return HostConfig{CompactTypes: true, CompactNakInterval: 3 * time.Millisecond}
}

// warmPublisher starts a compact publisher and has it publish one instance
// of class wt before any other host exists: the class definitions ride that
// publication and reach nobody, so what a host attached afterwards receives
// of wt is reference-only.
func warmPublisher(t *testing.T, seg transport.Segment, cfg HostConfig, wt *mop.Type) (*Host, *Bus) {
	t.Helper()
	pubHost := newHost(t, seg, "fab-pub", cfg)
	pubBus, err := pubHost.NewBus("sensor")
	if err != nil {
		t.Fatal(err)
	}
	if err := pubBus.Publish("fab5.cc.litho8.thick",
		mop.MustNew(wt).MustSet("station", "litho8").MustSet("microns", 1.0)); err != nil {
		t.Fatal(err)
	}
	// The frame must leave the medium before the late host attaches —
	// otherwise it is not late, it just receives the defs directly.
	_ = pubBus.Flush()
	time.Sleep(30 * time.Millisecond)
	return pubHost, pubBus
}

func TestCompactPublishSubscribe(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	pubHost := newHost(t, seg, "fab-pub", compactCfg())
	subHost := newHost(t, seg, "fab-sub", HostConfig{}) // receivers need no config

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
	// Several publications so the second and later ones exercise the
	// steady-state reference-only path through the receiver's cache.
	for i := 0; i < 3; i++ {
		obj := mop.MustNew(wt).MustSet("station", "litho8").MustSet("microns", 12.5+float64(i))
		if err := pubBus.Publish("fab5.cc.litho8.thick", obj); err != nil {
			t.Fatal(err)
		}
		ev := recvEvent(t, sub, 5*time.Second)
		got := ev.Value.(*mop.Object)
		if got.Type().Name() != "WaferThickness" {
			t.Fatalf("type = %q", got.Type().Name())
		}
		if got.MustGet("microns") != 12.5+float64(i) {
			t.Fatalf("publication %d: microns = %v", i, got.MustGet("microns"))
		}
	}
	if !subHost.Registry().Has("WaferThickness") {
		t.Error("type not registered on subscriber host")
	}
	if n := pubHost.Metrics().Counter("bus.compact_published").Load(); n != 3 {
		t.Errorf("bus.compact_published = %d, want 3", n)
	}
	if n := subHost.Metrics().Counter("bus.compact_events").Load(); n != 3 {
		t.Errorf("bus.compact_events = %d, want 3", n)
	}
	// Same-segment, subscribed-from-the-start receivers never miss a
	// fingerprint: the first message carried the defs.
	if n := subHost.Metrics().Counter("bus.decode_deferred").Load(); n != 0 {
		t.Errorf("bus.decode_deferred = %d, want 0", n)
	}
}

// TestCompactLateSubscriberNak is the tentpole's recovery path on one
// segment: a host that joins after the class definitions crossed the
// medium receives a reference-only message, NAKs the unknown fingerprints
// on _sys.class.req, and decodes once the origin answers on
// _sys.class.def. The inline fallback is pushed out of reach so the test
// can only pass through the NAK protocol.
func TestCompactLateSubscriberNak(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	cfg := compactCfg()
	cfg.CompactResendEvery = 1 << 30 // never fall back inline
	wt := thicknessType()
	pubHost, pubBus := warmPublisher(t, seg, cfg, wt)

	subHost := newHost(t, seg, "fab-late", HostConfig{})
	subBus, err := subHost.NewBus("monitor")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subBus.Subscribe("fab5.cc.litho8.thick")
	if err != nil {
		t.Fatal(err)
	}
	// Let the subscriber's interest reach the publisher's daemon.
	time.Sleep(50 * time.Millisecond)

	if err := pubBus.Publish("fab5.cc.litho8.thick",
		mop.MustNew(wt).MustSet("station", "litho8").MustSet("microns", 2.0)); err != nil {
		t.Fatal(err)
	}

	ev := recvEvent(t, sub, 5*time.Second)
	got := ev.Value.(*mop.Object)
	if got.Type().Name() != "WaferThickness" || got.MustGet("microns") != 2.0 {
		t.Fatalf("late subscriber decoded %v", ev.Value)
	}
	if n := subHost.Metrics().Counter("bus.decode_deferred").Load(); n == 0 {
		t.Error("expected the reference-only delivery to be deferred")
	}
	if n := subHost.Metrics().Counter("bus.class_nak_sent").Load(); n == 0 {
		t.Error("expected the late subscriber to NAK on _sys.class.req")
	}
	if n := pubHost.Metrics().Counter("bus.class_nak_served").Load(); n == 0 {
		t.Error("expected the origin to serve the NAK on _sys.class.def")
	}
	if n := subHost.Metrics().Counter("bus.class_defs_harvested").Load(); n == 0 {
		t.Error("expected the late subscriber to harvest the reply")
	}
}

// TestClassNakThroughTheSlot: a reference-only publication fanned out to two
// buses of a host that holds none of its classes. Both stash their delivery,
// the host asks for the classes once (classSync keeps one wanted set per
// host, and with the re-request interval out of reach a second request would
// be a second miss), and once the definitions arrive each bus delivers the
// event exactly once, out of the one slot the two deliveries share.
func TestClassNakThroughTheSlot(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	cfg := compactCfg()
	cfg.CompactResendEvery = 1 << 30 // never fall back inline
	wt := thicknessType()
	_, pubBus := warmPublisher(t, seg, cfg, wt)

	late := newHost(t, seg, "fab-late", HostConfig{CompactNakInterval: time.Hour})
	var subs []*Subscription
	for _, app := range []string{"monitor", "logger"} {
		bus, err := late.NewBus(app)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := bus.Subscribe("fab5.cc.litho8.thick")
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	time.Sleep(50 * time.Millisecond)

	for i, microns := range []float64{2.0, 3.0} {
		if err := pubBus.Publish("fab5.cc.litho8.thick",
			mop.MustNew(wt).MustSet("station", "litho8").MustSet("microns", microns)); err != nil {
			t.Fatal(err)
		}
		var got []*mop.Object
		for _, sub := range subs {
			got = append(got, recvEvent(t, sub, 5*time.Second).Value.(*mop.Object))
		}
		if got[0].MustGet("microns") != microns || !got[0].Equal(got[1]) || got[0] == got[1] {
			t.Fatalf("publication %d: the two buses got %v and %v (same object: %v)", i, got[0], got[1], got[0] == got[1])
		}
	}
	for _, sub := range subs {
		select {
		case ev := <-sub.C:
			t.Fatalf("an event was delivered twice: %v", ev.Value)
		case <-time.After(20 * time.Millisecond):
		}
	}
	for name, want := range map[string]uint64{
		"bus.decode_deferred": 2, // the first publication, once per bus
		"bus.class_nak_sent":  1,
		"bus.events":          4,
		"bus.compact_events":  4,
	} {
		if n := late.Metrics().Counter(name).Load(); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
}

// TestCompactInlineFallback proves progress without the NAK path: with a
// small resend period, a late joiner decodes as soon as the next inline
// re-send of the definitions comes around, even though its earlier
// deliveries were deferred.
func TestCompactInlineFallback(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	cfg := compactCfg()
	cfg.CompactResendEvery = 2
	cfg.CompactNakInterval = time.Hour // NAKs effectively disabled
	wt := thicknessType()
	_, pubBus := warmPublisher(t, seg, cfg, wt)

	subHost := newHost(t, seg, "fab-late", HostConfig{})
	subBus, err := subHost.NewBus("monitor")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subBus.Subscribe("fab5.cc.litho8.thick")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// seq 2 is reference-only (deferred at the subscriber); seq 3 hits the
	// fallback period and carries the defs again, which also unlocks the
	// stashed seq-2 delivery.
	for i := 2; i <= 3; i++ {
		if err := pubBus.Publish("fab5.cc.litho8.thick",
			mop.MustNew(wt).MustSet("station", "litho8").MustSet("microns", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	first := recvEvent(t, sub, 5*time.Second)
	second := recvEvent(t, sub, 5*time.Second)
	mics := []any{first.Value.(*mop.Object).MustGet("microns"), second.Value.(*mop.Object).MustGet("microns")}
	// The defs-carrying seq-3 message dispatches first; the stashed seq-2
	// delivery is retried right after.
	if !((mics[0] == 2.0 && mics[1] == 3.0) || (mics[0] == 3.0 && mics[1] == 2.0)) {
		t.Fatalf("fallback delivered %v, want {2, 3} in some order", mics)
	}
	if n := subHost.Metrics().Counter("bus.decode_deferred").Load(); n == 0 {
		t.Error("expected the reference-only delivery to be deferred")
	}
}

func TestCompactGuaranteedDelivery(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	cfg := compactCfg()
	cfg.LedgerPath = filepath.Join(t.TempDir(), "pub.ledger")
	cfg.RetryInterval = 5 * time.Millisecond
	pubHost := newHost(t, seg, "fab-pub", cfg)
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
	for i := 0; i < 2; i++ {
		obj := mop.MustNew(wt).MustSet("station", "litho8").MustSet("microns", float64(i))
		if _, err := pubBus.PublishGuaranteed("fab5.cc.litho8.thick", obj); err != nil {
			t.Fatal(err)
		}
		ev := recvEvent(t, sub, 5*time.Second)
		if !ev.Guaranteed {
			t.Fatal("event not marked guaranteed")
		}
		if got := ev.Value.(*mop.Object).MustGet("microns"); got != float64(i) {
			t.Fatalf("publication %d: microns = %v", i, got)
		}
	}

	// The acks must drain the ledger even though the payloads travelled in
	// the compact format (the retrier re-detects it by header).
	deadline := time.Now().Add(5 * time.Second)
	for len(pubHost.PendingGuaranteed()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d guaranteed publications never acknowledged", len(pubHost.PendingGuaranteed()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
