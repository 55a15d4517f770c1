package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"infobus/internal/mop"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
	"infobus/internal/wire"
)

// TestDeliveredObjectIsFrozen: the applications of one host share the decode
// of a publication, and what they are handed cannot be written. Three buses
// subscribe to "x.>". Bus A tries Set and SetAt on what it receives and on
// its nested part, which fail with ErrFrozen; edits a Clone of it; and
// overwrites every byte and list element, which Go cannot freeze. B and C
// read theirs meanwhile (run under -race) and see what was published. A
// class without a []byte or List part is one object for every bus; a class
// with one is a frozen copy per bus, whichever bus is handed the master. Two
// subscriptions of one bus receive the identical object, as they always have.
func TestDeliveredObjectIsFrozen(t *testing.T) {
	for _, withBytes := range []bool{false, true} {
		name := "shared"
		if withBytes {
			name = "bytes"
		}
		t.Run(name, func(t *testing.T) { deliveredObjectIsFrozen(t, withBytes) })
	}
}

func deliveredObjectIsFrozen(t *testing.T, withBytes bool) {
	seg := fastSeg()
	defer seg.Close()
	host := newHost(t, seg, "desk", HostConfig{})

	partAttrs := []mop.Attr{{Name: "name", Type: mop.String}}
	wholeAttrs := []mop.Attr{
		{Name: "n", Type: mop.Int},
		{Name: "s", Type: mop.String},
		{Name: "at", Type: mop.Time},
	}
	if withBytes {
		partAttrs = append(partAttrs, mop.Attr{Name: "blob", Type: mop.Bytes})
		wholeAttrs = append(wholeAttrs,
			mop.Attr{Name: "blob", Type: mop.Bytes},
			mop.Attr{Name: "items", Type: mop.ListOf(mop.Any)})
	}
	part := mop.MustNewClass("IsoPart", nil, partAttrs, nil)
	whole := mop.MustNewClass("IsoWhole", nil, append(wholeAttrs, mop.Attr{Name: "part", Type: part}), nil)
	// Registered up front, so a decoded IsoWhole is of this very class and
	// Object.Equal can compare it with a fresh one.
	if err := host.Registry().Register(whole); err != nil {
		t.Fatal(err)
	}
	published := func(i int) *mop.Object {
		o := mop.MustNew(whole).MustSet("n", int64(i)).MustSet("s", "published").
			MustSet("at", time.Unix(1_700_000_000, int64(i)).UTC())
		p := mop.MustNew(part).MustSet("name", "part")
		if withBytes {
			o.MustSet("blob", []byte("published bytes")).
				MustSet("items", mop.List{int64(i), "item", []byte("item bytes")})
			p.MustSet("blob", []byte("part bytes"))
		}
		return o.MustSet("part", p)
	}
	// frozen checks that o and its part refuse every write; the first
	// failure is reported as an error string.
	frozen := func(o *mop.Object) string {
		p := o.MustGet("part").(*mop.Object)
		for what, err := range map[string]error{
			"Set":        o.Set("n", int64(-1)),
			"SetAt":      o.SetAt(1, "scribbled"),
			"part Set":   p.Set("name", "scribbled"),
			"part SetAt": p.SetAt(0, "scribbled"),
		} {
			if !errors.Is(err, mop.ErrFrozen) {
				return fmt.Sprintf("%s on a delivered %s = %v, want ErrFrozen", what, o.Type().Name(), err)
			}
		}
		return ""
	}
	// edit clones o, edits the clone throughout and overwrites o's bytes
	// and list elements.
	edit := func(o *mop.Object) string {
		c := o.Clone()
		if err := c.Set("n", int64(-1)); err != nil {
			return fmt.Sprintf("Set on a clone: %v", err)
		}
		if err := c.MustGet("part").(*mop.Object).SetAt(0, "scribbled"); err != nil {
			return fmt.Sprintf("SetAt on a clone's part: %v", err)
		}
		if !withBytes {
			return ""
		}
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
		return ""
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
					if msg := frozen(o); msg != "" {
						t.Errorf("subscription %d, round %d: %s", i, round, msg)
					}
					if i == 0 {
						if msg := edit(o); msg != "" {
							t.Errorf("round %d: %s", round, msg)
						}
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
		if shared := a == b1 && b1 == c; shared == withBytes {
			t.Fatalf("round %d: one object for every bus is %v, want %v", round, shared, !withBytes)
		}
		if withBytes && (a == c || b1 == c) {
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
		Telemetry: TelemetryConfig{Health: telemetry.HealthConfig{Interval: time.Hour}},
	})
	nakEvery(host, time.Hour)
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
