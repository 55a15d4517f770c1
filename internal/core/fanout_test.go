package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"infobus/internal/mop"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
	"infobus/internal/wire"
)

// TestEventValueIsPrivateToItsBus: the applications of one host share the
// decode of a publication and nothing else. Three buses subscribe to "x.>";
// bus A overwrites every slot, byte, list element and nested slot of what it
// receives while B and C read theirs (run under -race), and B and C see what
// was published. Two subscriptions of one bus do share: they receive the
// identical object, as they always have.
func TestEventValueIsPrivateToItsBus(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	host := newHost(t, seg, "desk", HostConfig{})

	part := mop.MustNewClass("IsoPart", nil, []mop.Attr{
		{Name: "name", Type: mop.String},
		{Name: "blob", Type: mop.Bytes},
	}, nil)
	whole := mop.MustNewClass("IsoWhole", nil, []mop.Attr{
		{Name: "n", Type: mop.Int},
		{Name: "s", Type: mop.String},
		{Name: "blob", Type: mop.Bytes},
		{Name: "items", Type: mop.ListOf(mop.Any)},
		{Name: "part", Type: part},
	}, nil)
	// Registered up front, so a decoded IsoWhole is of this very class and
	// Object.Equal can compare it with a fresh one.
	if err := host.Registry().Register(whole); err != nil {
		t.Fatal(err)
	}
	published := func(i int) *mop.Object {
		return mop.MustNew(whole).
			MustSet("n", int64(i)).MustSet("s", "published").MustSet("blob", []byte("published bytes")).
			MustSet("items", mop.List{int64(i), "item", []byte("item bytes")}).
			MustSet("part", mop.MustNew(part).MustSet("name", "part").MustSet("blob", []byte("part bytes")))
	}
	scribble := func(o *mop.Object) {
		o.MustSet("n", int64(-1)).MustSet("s", "scribbled")
		for _, blob := range [][]byte{
			o.MustGet("blob").([]byte),
			o.MustGet("items").(mop.List)[2].([]byte),
			o.MustGet("part").(*mop.Object).MustGet("blob").([]byte),
		} {
			for i := range blob {
				blob[i] = 'X'
			}
		}
		items := o.MustGet("items").(mop.List)
		for i := range items {
			items[i] = "scribbled"
		}
		o.MustGet("part").(*mop.Object).MustSet("name", "scribbled").MustSet("blob", []byte("scribbled"))
	}

	const rounds = 50
	var subs [4]*Subscription // A; B twice; C
	var buses [3]*Bus
	for i, app := range []string{"A", "B", "C"} {
		bus, err := host.NewBus(app)
		if err != nil {
			t.Fatal(err)
		}
		buses[i] = bus
	}
	for i, bus := range []*Bus{buses[0], buses[1], buses[1], buses[2]} {
		sub, err := bus.Subscribe("x.>")
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}

	var wg sync.WaitGroup
	got := make([][]*mop.Object, len(subs))
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub *Subscription) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				select {
				case ev := <-sub.C:
					o := ev.Value.(*mop.Object)
					if i == 0 {
						scribble(o)
					} else if want := published(round); !o.Equal(want) {
						t.Errorf("subscription %d, round %d: got %v, want %v", i, round, o, want)
					}
					got[i] = append(got[i], o)
				case <-time.After(5 * time.Second):
					t.Errorf("subscription %d: no event in round %d", i, round)
					return
				}
			}
		}(i, sub)
	}
	for round := 0; round < rounds; round++ {
		if err := buses[0].Publish("x.y", published(round)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for round := 0; round < rounds; round++ {
		a, b1, b2, c := got[0][round], got[1][round], got[2][round], got[3][round]
		if b1 != b2 {
			t.Fatalf("round %d: two subscriptions of one bus got different objects", round)
		}
		if a == b1 || a == c || b1 == c {
			t.Fatalf("round %d: two buses got the same object", round)
		}
		// Read again now that A is done with every round.
		if want := published(round); !b1.Equal(want) || !c.Equal(want) {
			t.Fatalf("round %d: after A's writes B has %v and C has %v, want %v", round, b1, c, want)
		}
	}
}

// TestUndecodableDropsCountedAndRecorded: a payload no bus can decode is
// dropped, counted and recorded once per bus it was fanned out to — the slot
// holds nothing after an error — and a delivery pushed out of a full decode
// stash is counted and recorded under its own reason.
func TestUndecodableDropsCountedAndRecorded(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	host := newHost(t, seg, "desk", HostConfig{
		CompactNakInterval: time.Hour,
		Telemetry:          TelemetryConfig{Health: telemetry.HealthConfig{Interval: time.Hour}},
	})
	var subs []*Subscription
	for _, app := range []string{"A", "B"} {
		bus, err := host.NewBus(app)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := bus.Subscribe("x.>")
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	dropped := host.Metrics().Counter("bus.undecodable_dropped")
	drops := func(why string) (n int) {
		for _, ev := range host.Recorder().Events() {
			if ev.Kind == telemetry.EventDrop && ev.Target == why {
				n++
			}
		}
		return n
	}
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: undecodable_dropped = %d, recorder %+v", what, dropped.Load(), host.Recorder().Events())
			}
		}
	}

	if err := host.daemon.Publish(subject.MustParse("x.garbage"), []byte{0xff, 0xfe, 0xfd}); err != nil {
		t.Fatal(err)
	}
	await("garbage fanned out to two buses", func() bool { return dropped.Load() == 2 })
	if n := drops("undecodable-payload"); n != 2 {
		t.Fatalf("%d undecodable-payload events, want 2", n)
	}

	// One more reference-only delivery than the stash holds, of a class this
	// host will never be told: each bus evicts its oldest, once.
	dict := wire.NewSendDict(1 << 30)
	obj := mop.MustNew(thicknessType()).MustSet("station", "litho8").MustSet("microns", 2.0)
	if _, err := dict.AppendMarshal(nil, obj); err != nil { // the definitions ride this one
		t.Fatal(err)
	}
	refsOnly, err := dict.AppendMarshal(nil, obj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= maxPendingDecodes; i++ {
		if err := host.daemon.Publish(subject.MustParse("x.unknown"), bytes.Clone(refsOnly)); err != nil {
			t.Fatal(err)
		}
	}
	await("a full stash on two buses", func() bool { return dropped.Load() == 4 })
	if n := drops("decode-stash-full"); n != 2 {
		t.Fatalf("%d decode-stash-full events, want 2", n)
	}
	if n := host.Metrics().Counter("bus.decode_deferred").Load(); n != 2*(maxPendingDecodes+1) {
		t.Fatalf("decode_deferred = %d, want %d", n, 2*(maxPendingDecodes+1))
	}

	// Neither kind of drop reached a subscriber, and the buses still deliver.
	fine, err := wire.Marshal(int64(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := host.daemon.Publish(subject.MustParse("x.fine"), fine); err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if ev := recvEvent(t, sub, 5*time.Second); ev.Value != int64(7) {
			t.Fatalf("first event delivered = %v, want the one decodable publication", ev.Value)
		}
	}
}
