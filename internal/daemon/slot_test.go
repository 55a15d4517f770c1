package daemon

import (
	"errors"
	"sync"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/mop"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/telemetry"
)

// slotValues is one value of every kind a payload decodes to, top-level nil
// included.
func slotValues() map[string]mop.Value {
	inner := mop.MustNewClass("SlotInner", nil, []mop.Attr{{Name: "tag", Type: mop.String}}, nil)
	outer := mop.MustNewClass("SlotOuter", nil, []mop.Attr{
		{Name: "n", Type: mop.Int},
		{Name: "raw", Type: mop.Bytes},
		{Name: "tags", Type: mop.ListOf(mop.String)},
		{Name: "in", Type: inner},
	}, nil)
	obj := mop.MustNew(outer).MustSet("n", int64(7)).MustSet("raw", []byte("raw")).
		MustSet("tags", mop.List{"a", "b"}).MustSet("in", mop.MustNew(inner).MustSet("tag", "t"))
	return map[string]mop.Value{
		"nil": nil, "bool": true, "int": int64(42), "float": 2.5, "string": "s",
		"time": time.Unix(1000, 0).UTC(), "bytes": []byte("bytes"),
		"list": mop.List{int64(1), []byte("x"), mop.List{"y"}}, "object": obj,
	}
}

// TestSlotTake: through a slot, every taker gets a value equal to the one a
// direct decode gives, for every kind of value; the payload is decoded once,
// a nil result included; the last taker outstanding gets the decoded value
// itself and every earlier one a copy that shares no byte, list or object
// with it.
func TestSlotTake(t *testing.T) {
	for name, want := range slotValues() {
		t.Run(name, func(t *testing.T) {
			decodes := 0
			var master mop.Value
			decode := func() (any, error) {
				decodes++
				master = mop.CloneValue(want)
				return master, nil
			}
			const takers = 3
			s := &Slot{takers: takers}
			for i := 1; i <= takers; i++ {
				got, err := s.Take(decode, mop.CloneValue)
				if err != nil || !mop.EqualValues(got, want) {
					t.Fatalf("take %d = %v, %v; want %v", i, got, err, want)
				}
				if a := aliases(got, master); a != (i == takers && aliases(master, master)) {
					t.Fatalf("take %d of %d: aliases the master = %v", i, takers, a)
				}
			}
			if decodes != 1 {
				t.Fatalf("decoded %d times, want 1", decodes)
			}
			if s.master != nil || s.decoded {
				t.Fatal("the slot kept the master it handed out")
			}
			if direct, _ := (*Slot)(nil).Take(decode, mop.CloneValue); !mop.EqualValues(direct, want) || decodes != 2 {
				t.Fatalf("nil slot = %v after %d decodes, want a direct decode", direct, decodes)
			}
		})
	}
}

// aliases reports whether two equal values share storage a holder of one
// could change under the holder of the other; scalars have none to share.
func aliases(a, b mop.Value) bool {
	switch x := a.(type) {
	case []byte:
		return &x[0] == &b.([]byte)[0]
	case mop.List:
		return &x[0] == &b.(mop.List)[0]
	case *mop.Object:
		return x == b.(*mop.Object)
	}
	return false
}

// TestSlotErrsTowardsCloning: a failed decode stores nothing, returns no
// value and uses up no turn, so the delivery that failed takes again; a
// delivery that never takes leaves the master with nobody.
func TestSlotErrsTowardsCloning(t *testing.T) {
	boom := errors.New("boom")
	fail := func() (any, error) { return []byte("never"), boom }
	master := []byte("payload")
	decodes := 0
	ok := func() (any, error) { decodes++; return master, nil }

	s := &Slot{takers: 3}
	for i := 0; i < 2; i++ {
		if v, err := s.Take(fail, mop.CloneValue); v != nil || !errors.Is(err, boom) {
			t.Fatalf("failed take = %v, %v", v, err)
		}
	}
	if s.decoded || s.takers != 3 {
		t.Fatalf("a failed decode left decoded=%v takers=%d", s.decoded, s.takers)
	}
	// Two of the three deliveries take; the third was evicted from a stash.
	for i := 0; i < 2; i++ {
		v, err := s.Take(ok, mop.CloneValue)
		if err != nil || string(v.([]byte)) != "payload" || aliases(v, master) {
			t.Fatalf("take %d = %q, %v, aliases=%v; want a clone", i, v, err, aliases(v, master))
		}
	}
	if decodes != 1 {
		t.Fatalf("decoded %d times, want 1", decodes)
	}
}

// TestSlotTakeAfterHandOverDoesNotAlias: only the value handed over uncloned
// may alias the payload. Takes the count did not foresee, after the master
// was handed over, decode once more between them but are handed clones, so
// the payload never has two holders of views in application hands. A nil
// slot hands the decoded value itself.
func TestSlotTakeAfterHandOverDoesNotAlias(t *testing.T) {
	payload := []byte("payload")
	decodes := 0
	decode := func() (any, error) {
		decodes++
		return payload[:len(payload):len(payload)], nil
	}
	s := &Slot{takers: 1}
	handed, _ := s.Take(decode, mop.CloneValue)
	late, _ := s.Take(decode, mop.CloneValue)
	later, _ := s.Take(decode, mop.CloneValue)
	direct, _ := (*Slot)(nil).Take(decode, mop.CloneValue)
	if !aliases(handed, payload) || aliases(late, payload) || aliases(later, payload) || !aliases(direct, payload) {
		t.Fatalf("aliasing the payload: handed over %v, late takes %v %v, nil slot %v; want true, false false, true",
			aliases(handed, payload), aliases(late, payload), aliases(later, payload), aliases(direct, payload))
	}
	if string(late.([]byte)) != "payload" || string(later.([]byte)) != "payload" {
		t.Fatalf("late takes = %q, %q", late, later)
	}
	if decodes != 3 {
		t.Fatalf("decoded %d times, want 3: the hand-over, the first late take, the nil slot", decodes)
	}
}

// TestSlotConcurrentTakers: takers on different goroutines decode once
// between them and exactly one is handed the master (run under -race).
func TestSlotConcurrentTakers(t *testing.T) {
	const takers = 8
	master := []byte("payload")
	var decodes int // guarded by the slot's lock, which is the claim
	s := &Slot{takers: takers}
	got := make([]mop.Value, takers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = s.Take(func() (any, error) { decodes++; return master, nil }, mop.CloneValue)
			got[i].([]byte)[0] ^= byte(i + 1) // every taker writes to what it was given
		}(i)
	}
	wg.Wait()
	masters := 0
	for _, v := range got {
		if aliases(v, master) {
			masters++
		}
	}
	if decodes != 1 || masters != 1 {
		t.Fatalf("%d decodes, %d takers holding the master; want 1 and 1", decodes, masters)
	}
}

// TestFanoutSharesOneSlot: a publication that reaches several clients carries
// one slot between them, local or inbound; one that reaches a single client
// carries none, so it costs no allocation.
func TestFanoutSharesOneSlot(t *testing.T) {
	da, db := newPair(t)
	var clients []*Client
	for _, name := range []string{"one", "two", "three"} {
		c, err := db.NewClient(name)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	pat := subject.MustParsePattern("fan.>")
	for _, c := range clients[:2] {
		if err := c.Subscribe(pat); err != nil {
			t.Fatal(err)
		}
	}
	if err := clients[2].Subscribe(subject.MustParsePattern("solo.x")); err != nil {
		t.Fatal(err)
	}
	publishUntilHeard := func(pub func() error, c *Client) Delivery {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if err := pub(); err != nil {
				t.Fatal(err)
			}
			if dv, ok := c.TryNext(); ok {
				return dv
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatal("no delivery")
		return Delivery{}
	}
	for _, pub := range []*Daemon{da, db} {
		fan := publishUntilHeard(func() error { return pub.Publish(subject.MustParse("fan.a"), []byte("p")) }, clients[0])
		twin := nextDelivery(t, clients[1], 5*time.Second)
		if fan.Slot == nil || fan.Slot != twin.Slot || fan.Slot.takers != 2 {
			t.Fatalf("publisher %s: slots %p and %p, want one slot for two takers", pub.Addr(), fan.Slot, twin.Slot)
		}
		solo := publishUntilHeard(func() error { return pub.Publish(subject.MustParse("solo.x"), []byte("p")) }, clients[2])
		if solo.Slot != nil {
			t.Fatalf("publisher %s: a single client's delivery carries a slot", pub.Addr())
		}
		for _, c := range clients {
			for _, ok := c.TryNext(); ok; _, ok = c.TryNext() {
			}
		}
	}
}

// TestInboundDropsCountedAndRecorded: a frame the daemon cannot route is
// counted and leaves one flight-recorder event naming what was wrong — a
// corrupt envelope and a well-formed envelope around a bad subject alike.
func TestInboundDropsCountedAndRecorded(t *testing.T) {
	seg, rcfg := newSegment(t)
	rec := telemetry.NewRecorder(8)
	d := New(newEndpoint(t, seg, "host"), rcfg, Options{Recorder: rec})
	defer d.Close()
	w := d.newWorker(d.lanes[0])
	for i, tc := range []struct {
		frame []byte
		want  string
	}{
		{[]byte{0xff, 1, 2}, "corrupt-envelope"},
		{busproto.Encode(busproto.Envelope{Kind: busproto.KindPublish, Subject: "bad..subject", Payload: []byte("p")}), "bad-subject"},
		{busproto.Encode(busproto.Envelope{Kind: busproto.KindGuaranteed, ID: 1, Origin: "o", Subject: "", Payload: []byte("p")}), "bad-subject"},
	} {
		d.handleMessage(w, reliable.Message{From: "peer", Payload: tc.frame})
		if got := d.Stats().CorruptDropped; got != uint64(i+1) {
			t.Fatalf("%s: corrupt_dropped = %d, want %d", tc.want, got, i+1)
		}
		evs := rec.Events()
		if len(evs) != i+1 || evs[i].Kind != telemetry.EventDrop || evs[i].Target != tc.want {
			t.Fatalf("recorder events = %+v, want a %s drop last", evs, tc.want)
		}
	}
	if got := d.Stats().Inbound; got != 0 {
		t.Fatalf("inbound = %d, want 0: a dropped frame is not a publication", got)
	}
}
