package daemon

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
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

// fanoutHost is one daemon on one lane with n clients subscribed to pat, and
// a worker state for lane 0: handleMessage on it is what the lane's inbound
// worker does with a datagram. The daemon is on a tap (newTapped), so none
// of its goroutines wakes while a test counts allocations.
func fanoutHost(t *testing.T, n int, pat string) (*Daemon, *worker, []*Client) {
	t.Helper()
	d, _ := newTapped(t)
	clients := make([]*Client, n)
	for i := range clients {
		c, err := d.NewClient(fmt.Sprintf("app%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe(subject.MustParsePattern(pat)); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	return d, d.newWorker(d.lanes[0]), clients
}

// inbound is a datagram carrying one publication from a peer.
func inbound(subj, payload string) reliable.Message {
	return reliable.Message{From: "peer", Payload: busproto.Encode(busproto.Envelope{
		Kind: busproto.KindPublish, Subject: subj, Payload: []byte(payload)})}
}

// TestSlotTurnsGivenBack: a slot's count is exact. A delivery its client's
// column refuses gives its turn back, so the last real taker is handed the
// master itself and share runs once for three matches, not twice; a backlog
// its client discards gives its turns back, so the slot lets the master go.
func TestSlotTurnsGivenBack(t *testing.T) {
	d, w, clients := fanoutHost(t, 3, "turns.>")
	shares := 0
	share := func(v any) any { shares++; return slices.Clone(v.([]byte)) }
	take := func(dv Delivery) {
		t.Helper()
		decode := func() (any, error) { return slices.Clone(dv.Payload), nil }
		if v, err := dv.Slot.Take(decode, share); err != nil || string(v.([]byte)) != string(dv.Payload) {
			t.Fatalf("take = %q, %v; want %q", v, err, dv.Payload)
		}
	}

	// The third client's columns close between the match and the enqueue,
	// as when its Close races the fan-out.
	clients[2].shutdown(false)
	d.handleMessage(w, inbound("turns.refused", "refused"))
	for _, c := range clients[:2] {
		dv, ok := c.TryNext()
		if !ok || dv.Slot == nil {
			t.Fatal("no fanned-out delivery")
		}
		take(dv)
	}
	if shares != 1 {
		t.Fatalf("share ran %d times for two real takers, want 1: the last is handed the master", shares)
	}

	d, w, clients = fanoutHost(t, 3, "turns.>")
	d.handleMessage(w, inbound("turns.discarded", "discarded"))
	dv, ok := clients[0].TryNext()
	if !ok || dv.Slot == nil {
		t.Fatal("no fanned-out delivery")
	}
	take(dv)
	for _, c := range clients[1:] {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dv.Slot.mu.Lock()
	defer dv.Slot.mu.Unlock()
	if dv.Slot.takers != 0 || dv.Slot.master != nil {
		t.Fatalf("after the other two backlogs were discarded: %d takers, master %v; want 0 and nil",
			dv.Slot.takers, dv.Slot.master)
	}
}

// TestSlotCarveConcurrent (run under -race): lane 0's slot chunk is carved
// at once by four local publishers and by the lane's inbound work, while
// three clients take what they are handed. Every delivery reaches each
// client once, through a slot of its own publication, and every value is
// intact.
func TestSlotCarveConcurrent(t *testing.T) {
	const publishers, per, nclients = 4, 300, 3
	d, w, clients := fanoutHost(t, nclients, "carve.>")
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			subj := subject.MustParse(fmt.Sprintf("carve.local%d", p))
			for i := 0; i < per; i++ {
				if err := d.Publish(subj, []byte(fmt.Sprintf("local%d-%d", p, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < per; i++ {
			d.handleMessage(w, inbound("carve.inbound", fmt.Sprintf("inbound-%d", i)))
		}
	}()

	const want = (publishers + 1) * per
	slots := make([]map[*Slot]string, nclients)
	stop := make(chan struct{})
	timer := time.AfterFunc(20*time.Second, func() { close(stop) })
	defer timer.Stop()
	var consumers sync.WaitGroup
	for k, c := range clients {
		slots[k] = make(map[*Slot]string, want)
		consumers.Add(1)
		go func(k int, c *Client) {
			defer consumers.Done()
			seen := make(map[string]bool, want)
			for len(seen) < want {
				dv, ok := c.Next(stop)
				if !ok {
					t.Errorf("client %d: %d of %d deliveries", k, len(seen), want)
					return
				}
				decode := func() (any, error) { return slices.Clone(dv.Payload), nil }
				v, err := dv.Slot.Take(decode, func(v any) any { return slices.Clone(v.([]byte)) })
				if err != nil || string(v.([]byte)) != string(dv.Payload) {
					t.Errorf("client %d: took %q, %v from a delivery of %q", k, v, err, dv.Payload)
					return
				}
				if seen[string(dv.Payload)] {
					t.Errorf("client %d: %q delivered twice", k, dv.Payload)
					return
				}
				seen[string(dv.Payload)] = true
				slots[k][dv.Slot] = string(dv.Payload)
			}
		}(k, c)
	}
	wg.Wait()
	consumers.Wait()
	if t.Failed() {
		return
	}
	for k := range slots {
		if len(slots[k]) != want {
			t.Fatalf("client %d took through %d slots, want one for each of %d publications", k, len(slots[k]), want)
		}
		for s, payload := range slots[k] {
			if slots[0][s] != payload {
				t.Fatalf("slot of %q at client 0 is the slot of %q at client %d", slots[0][s], payload, k)
			}
			if s.takers != 0 || s.master != nil {
				t.Fatalf("slot of %q: %d takers left, master %v; want 0 and nil", payload, s.takers, s.master)
			}
		}
	}
}

// TestFanoutCarvesSlots: once warm, an inbound publication fanned out to
// four clients allocates nothing of its own — its slot is carved from the
// lane's chunk — so 6 400 fan-outs make one chunk per 64 and a few
// allocations of slack. Counted by MemStats.Mallocs: AllocsPerRun would
// truncate the 1/64 per fan-out to 0. Mallocs counts every goroutine's
// allocations, so the window holds only the test's own: the daemon's
// goroutines stay parked (fanoutHost) and the window starts right after a
// collection. A cycle running in the window allocates on the runtime's
// goroutines (its mark workers, the unique-map cleanup), and a conn or a
// simulated network waking in it can allocate a sudog to park again; those
// made about one run in 15 read 101-162.
func TestFanoutCarvesSlots(t *testing.T) {
	d, w, clients := fanoutHost(t, 4, "fan.>")
	m := inbound("fan.x", "payload")
	fanout := func() {
		d.handleMessage(w, m)
		for _, c := range clients {
			if dv, ok := c.TryNext(); !ok || dv.Slot == nil {
				t.Fatal("no fanned-out delivery")
			}
		}
	}
	for i := 0; i < 1000; i++ {
		fanout()
	}
	const n = 6400
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fanout()
	}
	runtime.ReadMemStats(&after)
	got, budget := after.Mallocs-before.Mallocs, uint64(n/slotChunk+8)
	t.Logf("%d fan-outs to four clients: %d mallocs", n, got)
	if got > budget {
		t.Fatalf("%d fan-outs to four clients made %d mallocs, budget %d: one slot chunk per %d, +8",
			n, got, budget, slotChunk)
	}
}
