package router

import (
	"testing"

	"infobus/internal/core"
	"infobus/internal/mop"
)

// TestCompactAcrossRouter drives the dictionary format over a segment
// boundary: the publisher's class definitions never cross the router inline
// (the test publishes fewer than wire.DefaultResendEvery messages, so the
// fallback period never comes round), so consumers on the far segment can
// only decode through the _sys.class.req NAK protocol.
// The router harvests every defs-carrying compact payload it forwards, so
// once the first reply has crossed, the router itself answers later NAKs
// from its own cache.
func TestCompactAcrossRouter(t *testing.T) {
	segA, segB := fastSeg(), fastSeg()
	defer segA.Close()
	defer segB.Close()
	r := newRouter(t, Options{Name: "r1"},
		Attachment{Segment: segA, Name: "A"},
		Attachment{Segment: segB, Name: "B"},
	)
	pub := newBus(t, segA, "pubhost", core.HostConfig{CompactTypes: true})
	con := newBus(t, segB, "conhost", core.HostConfig{})
	sub, err := con.Subscribe("fab5.>")
	if err != nil {
		t.Fatal(err)
	}

	wt := mop.MustNewClass("WaferThickness", nil, []mop.Attr{
		{Name: "station", Type: mop.String},
		{Name: "microns", Type: mop.Float},
	}, nil)
	obj := mop.MustNew(wt).MustSet("station", "litho8").MustSet("microns", 12.5)
	ev := publishUntil(t, pub, "fab5.cc.litho8.thick", obj, sub)
	got, ok := ev.Value.(*mop.Object)
	if !ok || got.Type().Name() != "WaferThickness" || got.MustGet("microns") != 12.5 {
		t.Fatalf("event across router = %v", ev.Value)
	}
	conHost := con.Host()
	if n := conHost.Metrics().Counter("bus.class_defs_harvested").Load(); n == 0 {
		t.Error("consumer never harvested a _sys.class.def reply")
	}
	// The reply crossed the router as a defs-carrying compact payload, so
	// the router's own fingerprint cache is warm now.
	if n := r.Metrics().Counter("router.class_defs_harvested").Load(); n == 0 {
		t.Error("router never harvested the forwarded definitions")
	}

	// A second late consumer on segment B: its NAK is answered on the
	// arriving segment by the router (it holds the definitions), not only
	// by the origin across the boundary.
	con2 := newBus(t, segB, "conhost2", core.HostConfig{})
	sub2, err := con2.Subscribe("fab5.>")
	if err != nil {
		t.Fatal(err)
	}
	obj2 := mop.MustNew(wt).MustSet("station", "litho8").MustSet("microns", 13.5)
	ev2 := publishUntil(t, pub, "fab5.cc.litho8.thick", obj2, sub2)
	if got := ev2.Value.(*mop.Object).MustGet("microns"); got != 13.5 {
		t.Fatalf("late consumer decoded %v", ev2.Value)
	}
	if n := r.Metrics().Counter("router.class_naks_served").Load(); n == 0 {
		t.Error("router never served a _sys.class.req from its cache")
	}
}
