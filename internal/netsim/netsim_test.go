package netsim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

// manual returns a network on virtual time: nothing in these tests sleeps
// or polls, a run is a function of the configuration.
func manual(t *testing.T, cfg Config) *Network {
	t.Helper()
	net := NewManual(cfg, t0)
	t.Cleanup(net.Close)
	return net
}

func nodes(t *testing.T, net *Network, n int) []*Node {
	t.Helper()
	out := make([]*Node, n)
	for i := range out {
		nd, err := net.NewNode()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = nd
	}
	return out
}

// settle advances virtual time until nothing is in flight.
func settle(net *Network) {
	for at, ok := net.NextEvent(); ok; at, ok = net.NextEvent() {
		net.AdvanceTo(at)
	}
}

// drain empties a node's receive queue without waiting.
func drain(nd *Node) []Datagram {
	var out []Datagram
	for {
		select {
		case d, ok := <-nd.Recv():
			if !ok {
				return out
			}
			out = append(out, d)
		default:
			return out
		}
	}
}

func TestUnicastDelivery(t *testing.T) {
	net := manual(t, DefaultConfig())
	nd := nodes(t, net, 2)
	a, b := nd[0], nd[1]
	if err := a.Send(b.ID(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := drain(b); len(got) != 0 {
		t.Fatalf("delivered before time moved: %+v", got)
	}
	settle(net)
	got := drain(b)
	if len(got) != 1 || string(got[0].Payload) != "hello" || got[0].From != a.Addr() {
		t.Errorf("b received %+v", got)
	}
	if stray := drain(a); len(stray) != 0 {
		t.Errorf("sender received %+v", stray)
	}
	if id, ok := ParseAddr(a.Addr()); !ok || id != a.ID() {
		t.Errorf("ParseAddr(%q) = %d, %v", a.Addr(), id, ok)
	}
	// 5 bytes + one fragment's framing at 10 Mb/s, then at least BaseLatency.
	if min := t0.Add(net.transmissionTime(5) + DefaultConfig().BaseLatency); net.Now().Before(min) {
		t.Errorf("arrived at %v, before occupancy + latency (%v)", net.Now(), min)
	}
}

// TestWallClockDelivery is the same exchange on the wall-clock driver.
func TestWallClockDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Speedup = 2000
	net := NewNetwork(cfg)
	defer net.Close()
	nd := nodes(t, net, 2)
	for _, want := range []string{"one", "two"} { // the second finds the driver asleep
		if err := nd[0].Send(nd[1].ID(), []byte(want)); err != nil {
			t.Fatal(err)
		}
		select {
		case d := <-nd[1].Recv():
			if string(d.Payload) != want || d.From != nd[0].Addr() {
				t.Errorf("received %+v, want %q", d, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%q never arrived", want)
		}
	}
}

// TestConcurrentSenders: on the wall-clock driver senders, the driver and a
// reader share the model; every frame is accounted for.
func TestConcurrentSenders(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Speedup = 2000
	cfg.LossProb = 0.1
	net := NewNetwork(cfg)
	defer net.Close()
	nd := nodes(t, net, 5)
	const senders, each = 4, 200
	var wg sync.WaitGroup
	for _, src := range nd[:senders] {
		wg.Add(1)
		go func(src *Node) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := src.Send(nd[senders].ID(), []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	received := 0
	for deadline := time.After(10 * time.Second); ; {
		st := net.Stats()
		if st.Delivered+st.LostRandom+st.LostOverflow == senders*each && received == int(st.Delivered) {
			break
		}
		select {
		case <-nd[senders].Recv():
			received++
		case <-deadline:
			t.Fatalf("received %d; stats %+v", received, st)
		}
	}
	wg.Wait()
	if st := net.Stats(); st.Sent != senders*each || st.LostRandom == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBroadcastReachesAllButSender(t *testing.T) {
	net := manual(t, DefaultConfig())
	nd := nodes(t, net, 15) // the paper's 15-node subnet
	if err := nd[0].SendBroadcast([]byte("pub")); err != nil {
		t.Fatal(err)
	}
	settle(net)
	for i := 1; i < len(nd); i++ {
		if got := drain(nd[i]); len(got) != 1 || string(got[0].Payload) != "pub" {
			t.Errorf("node %d received %+v", i, got)
		}
	}
	if got := drain(nd[0]); len(got) != 0 {
		t.Errorf("sender received own broadcast: %+v", got)
	}
	if st := net.Stats(); st.Sent != 1 || st.Delivered != 14 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPayloadCopiedOnSend(t *testing.T) {
	net := manual(t, DefaultConfig())
	nd := nodes(t, net, 2)
	buf := []byte("original")
	if err := nd[0].Send(nd[1].ID(), buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXXX") // sender reuses its buffer immediately
	settle(net)
	if got := drain(nd[1]); len(got) != 1 || string(got[0].Payload) != "original" {
		t.Errorf("received %+v; send must copy", got)
	}
}

func TestOversizeRejected(t *testing.T) {
	net := manual(t, DefaultConfig())
	nd := nodes(t, net, 2)
	err := nd[0].Send(nd[1].ID(), make([]byte, MaxDatagram+1))
	if !errors.Is(err, ErrOversize) {
		t.Errorf("oversize error = %v", err)
	}
	if net.Stats().OversizeRejects != 1 {
		t.Error("oversize not counted")
	}
}

func TestLossModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossProb = 1.0
	net := manual(t, cfg)
	nd := nodes(t, net, 2)
	for i := 0; i < 10; i++ {
		if err := nd[0].Send(nd[1].ID(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	settle(net)
	if got := drain(nd[1]); len(got) != 0 {
		t.Errorf("delivered despite 100%% loss: %+v", got)
	}
	if st := net.Stats(); st.LostRandom != 10 {
		t.Errorf("loss not applied: %+v", st)
	}
}

func TestDuplicationModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupProb = 1.0
	net := manual(t, cfg)
	nd := nodes(t, net, 2)
	if err := nd[0].Send(nd[1].ID(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	settle(net)
	if got := drain(nd[1]); len(got) != 2 {
		t.Errorf("received %d copies, want 2", len(got))
	}
	if net.Stats().Duplicated != 1 {
		t.Errorf("stats = %+v", net.Stats())
	}
}

func TestPartitionAndHeal(t *testing.T) {
	net := manual(t, DefaultConfig())
	nd := nodes(t, net, 2)
	a, b := nd[0], nd[1]
	net.Partition(b.ID())
	if err := a.Send(b.ID(), []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBroadcast([]byte("alsoBlocked")); err != nil {
		t.Fatal(err)
	}
	settle(net)
	if got := drain(b); len(got) != 0 {
		t.Errorf("crossed the partition: %+v", got)
	}
	if st := net.Stats(); st.LostPartition != 2 {
		t.Errorf("stats = %+v", st)
	}
	net.Heal()
	if err := a.Send(b.ID(), []byte("after")); err != nil {
		t.Fatal(err)
	}
	settle(net)
	if got := drain(b); len(got) != 1 || string(got[0].Payload) != "after" {
		t.Errorf("post-heal received %+v", got)
	}
}

// TestReceiveBufferOverflow: the receive queue holds exactly RecvBuffer
// datagrams nobody has read; the next arrival is dropped and counted.
func TestReceiveBufferOverflow(t *testing.T) {
	for _, capacity := range []int{2, 0} { // 0: the documented default
		cfg := DefaultConfig()
		cfg.RecvBuffer = capacity
		if capacity == 0 {
			capacity = 1536
		}
		net := manual(t, cfg)
		nd := nodes(t, net, 2)
		for i := 0; i < capacity+5; i++ {
			if err := nd[0].Send(nd[1].ID(), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		settle(net)
		if st := net.Stats(); st.Delivered != uint64(capacity) || st.LostOverflow != 5 {
			t.Errorf("capacity %d: delivered %d, overflowed %d", capacity, st.Delivered, st.LostOverflow)
		}
		// The queue keeps the oldest: what overflowed is the tail.
		if got := drain(nd[1]); len(got) != capacity || got[capacity-1].Payload[0] != byte(capacity-1) {
			t.Errorf("capacity %d: queue held %d datagrams", capacity, len(got))
		}
	}
}

func TestTransmissionTimeModel(t *testing.T) {
	net := manual(t, Config{BandwidthBPS: 10e6})
	small := net.transmissionTime(100)
	big := net.transmissionTime(10000)
	if big <= small {
		t.Errorf("transmission time not increasing: %v vs %v", small, big)
	}
	// 10 KB at 10 Mb/s is at least 8 ms of wire time plus framing.
	if big < 8*time.Millisecond {
		t.Errorf("10KB occupancy = %v, want >= 8ms", big)
	}
	// Per-fragment overhead: 7 fragments for 10 KB.
	withOverhead := float64(10000+7*(ipUDPHeader+frameOverhead)) * 8 / 10e6
	want := time.Duration(withOverhead * float64(time.Second))
	if big != want {
		t.Errorf("occupancy = %v, want %v", big, want)
	}
}

func TestBackgroundLoadShrinksBandwidth(t *testing.T) {
	net := manual(t, Config{BandwidthBPS: 10e6})
	idle := net.transmissionTime(5000)
	net.SetBackgroundLoad(0.5)
	loaded := net.transmissionTime(5000)
	if loaded <= idle {
		t.Errorf("background load should stretch occupancy: %v vs %v", loaded, idle)
	}
}

func TestCloseIdempotentAndRejectsSends(t *testing.T) {
	for _, net := range []*Network{NewNetwork(DefaultConfig()), NewManual(DefaultConfig(), t0)} {
		nd := nodes(t, net, 3)
		a, b, c := nd[0], nd[1], nd[2]
		// A node that closes leaves the others talking.
		c.Close()
		c.Close()
		if _, ok := <-c.Recv(); ok {
			t.Error("closed node's receive channel should be closed")
		}
		if err := c.Send(a.ID(), []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("send from a closed node = %v", err)
		}
		if err := a.SendBroadcast([]byte("x")); err != nil {
			t.Errorf("broadcast past a closed node = %v", err)
		}
		net.Close()
		net.Close()
		if err := a.Send(b.ID(), []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("send after close error = %v", err)
		}
		for range b.Recv() { // the broadcast may have arrived first
		}
		if _, err := net.NewNode(); !errors.Is(err, ErrClosed) {
			t.Errorf("NewNode after close = %v", err)
		}
	}
}

func TestSharedMediumSerialises(t *testing.T) {
	// Two senders share the medium: the last arrival is no earlier than the
	// sum of their occupancy — the bandwidth ceiling.
	net := manual(t, Config{BandwidthBPS: 10e6, RecvBuffer: 64, Seed: 7})
	nd := nodes(t, net, 3)
	const n = 20
	for i := 0; i < n; i++ {
		for _, src := range nd[:2] {
			if err := src.Send(nd[2].ID(), make([]byte, 1000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	settle(net)
	if got := drain(nd[2]); len(got) != 2*n {
		t.Fatalf("received %d of %d", len(got), 2*n)
	}
	want := 2 * n * net.transmissionTime(1000) // 40 KB at 10 Mb/s: ~34 ms
	if elapsed := net.Now().Sub(t0); elapsed < want {
		t.Errorf("40 frames crossed in %v, want >= %v", elapsed, want)
	}
	if st := net.Stats(); st.WireTime() != want {
		t.Errorf("wire occupancy = %v, want %v", st.WireTime(), want)
	}
}

func TestCollisionModelUnderBackgroundLoad(t *testing.T) {
	net := manual(t, Config{BandwidthBPS: 10e6, BackgroundLoad: 0.9, Seed: 3, RecvBuffer: 256})
	nd := nodes(t, net, 2)
	const n = 200
	for i := 0; i < n; i++ {
		if err := nd[0].Send(nd[1].ID(), make([]byte, 500)); err != nil {
			t.Fatal(err)
		}
	}
	settle(net)
	st := net.Stats()
	if st.Delivered+st.LostCollision != n {
		t.Fatalf("packets unaccounted for: %+v", st)
	}
	if st.LostCollision == 0 {
		t.Errorf("no collision losses at 90%% background load: %+v", st)
	}
}

// exchange sends a fixed interleaving of unicasts and broadcasts among four
// nodes and returns every node's arrivals in order plus the counters.
func exchange(t *testing.T, cfg Config) ([][]string, Stats) {
	net := manual(t, cfg)
	nd := nodes(t, net, 4)
	for i := 0; i < 300; i++ {
		src := nd[i%3]
		body := []byte(fmt.Sprintf("%d:%03d", src.ID(), i))
		var err error
		if i%5 == 0 {
			err = src.SendBroadcast(body)
		} else {
			err = src.Send(nd[3].ID(), body)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			net.AdvanceTo(net.Now().Add(3 * time.Millisecond)) // sends at several instants
		}
	}
	settle(net)
	log := make([][]string, len(nd))
	for i, n := range nd {
		for _, d := range drain(n) {
			log[i] = append(log[i], d.From+" "+string(d.Payload))
		}
	}
	return log, net.Stats()
}

// TestSameSeedSameRun: the model draws everything from the seeded generator
// and iterates nothing in map order, so a seed fixes the delivery log.
func TestSameSeedSameRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossProb, cfg.DupProb, cfg.ReorderProb, cfg.Seed = 0.15, 0.05, 0.1, 42
	log1, st1 := exchange(t, cfg)
	log2, st2 := exchange(t, cfg)
	if !reflect.DeepEqual(log1, log2) || st1 != st2 {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", st1, st2)
	}
	if st1.LostRandom == 0 || st1.Duplicated == 0 || st1.Reordered == 0 {
		t.Errorf("the model was not exercised: %+v", st1)
	}
	cfg.Seed = 43
	if log3, _ := exchange(t, cfg); reflect.DeepEqual(log1, log3) {
		t.Error("a different seed gave the same run")
	}
}

func TestPerDestinationFIFO(t *testing.T) {
	// Packets to one destination arrive in send order whatever latencies
	// they drew — the property the reliable protocol's stream sync depends
	// on — except the ones the reorder model picked.
	cfg := DefaultConfig()
	cfg.JitterLatency = 300 * time.Microsecond // far above a small frame's occupancy
	cfg.ReorderProb = 0.1
	net := manual(t, cfg)
	nd := nodes(t, net, 2)
	const n = 300
	for i := 0; i < n; i++ {
		if err := nd[0].Send(nd[1].ID(), []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	settle(net)
	got := drain(nd[1])
	if len(got) != n {
		t.Fatalf("received %d of %d", len(got), n)
	}
	// An in-order packet raises the high-water mark; only a reordered one
	// can arrive below it.
	late, max := 0, -1
	for _, d := range got {
		if seq := int(d.Payload[0]) | int(d.Payload[1])<<8; seq > max {
			max = seq
		} else {
			late++
		}
	}
	if reordered := int(net.Stats().Reordered); late > reordered || reordered == 0 {
		t.Errorf("%d packets arrived late with %d reordered: FIFO violated", late, reordered)
	}
}

func TestExplicitReorderingBypassesFIFO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReorderProb = 0.5
	cfg.Seed = 77
	net := manual(t, cfg)
	nd := nodes(t, net, 2)
	const n = 200
	for i := 0; i < n; i++ {
		if err := nd[0].Send(nd[1].ID(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	settle(net)
	outOfOrder, last := false, -1
	for _, d := range drain(nd[1]) {
		if got := int(d.Payload[0]); got < last {
			outOfOrder = true
		} else {
			last = got
		}
	}
	if !outOfOrder {
		t.Error("ReorderProb=0.5 produced perfectly ordered delivery")
	}
	if net.Stats().Reordered == 0 {
		t.Error("no reordering counted")
	}
}

// TestSendBound: 4 096 frames may wait for the medium. A manual network
// drops the next and counts it; a wall-clock one holds the sender until a
// frame has left the wire.
func TestSendBound(t *testing.T) {
	cfg := Config{BandwidthBPS: 10e6, RecvBuffer: 2 * sendBound}
	net := manual(t, cfg)
	nd := nodes(t, net, 2)
	for i := 0; i < sendBound+3; i++ {
		if err := nd[0].Send(nd[1].ID(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	settle(net)
	if st := net.Stats(); st.Sent != sendBound || st.Delivered != sendBound || st.LostOverflow != 3 {
		t.Errorf("manual: %+v", st)
	}

	cfg.Speedup = 50
	wall := NewNetwork(cfg)
	defer wall.Close()
	nd = nodes(t, wall, 2)
	start := time.Now()
	const extra = 200
	for i := 0; i < sendBound+extra; i++ {
		if err := nd[0].Send(nd[1].ID(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// The last send returned once `extra` frames were off the wire.
	if min := time.Duration(float64(extra*wall.transmissionTime(1)) / cfg.Speedup); time.Since(start) < min {
		t.Errorf("%d sends past the bound returned in %v, want >= %v", extra, time.Since(start), min)
	}
}

// driverGoroutines counts the live goroutines NewNetwork started when the
// calling goroutine called it: other tests' networks, still winding down, do
// not count.
func driverGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			stacks := string(buf[:n])
			self := strings.Fields(stacks)[1] // the caller's trace comes first: "goroutine 7 [running]:"
			return strings.Count(stacks, "created by infobus/internal/netsim.NewNetwork in goroutine "+self+"\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestOneGoroutinePerNetwork: a wall-clock network is one goroutine however
// many nodes it has, gone when Close returns; a manual one is none.
func TestOneGoroutinePerNetwork(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewManual(DefaultConfig(), t0)
	nodes(t, m, 8)
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("a manual network with 8 nodes started %d goroutines", got-before)
	}
	m.Close()
	net := NewNetwork(DefaultConfig())
	nd := nodes(t, net, 8)
	if err := nd[0].SendBroadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	<-nd[7].Recv()
	if got := driverGoroutines(); got != 1 {
		t.Errorf("a network with 8 nodes runs %d goroutines, want 1", got)
	}
	net.Close()
	// Close has waited for the driver to say it is done; its last
	// instructions run after that.
	for deadline := time.Now().Add(5 * time.Second); driverGoroutines() != 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d driver goroutines left after Close", driverGoroutines())
		}
	}
}

// TestSendAllocatesThePayloadCopy: crossing the network costs the copy Send
// makes and nothing per destination.
func TestSendAllocatesThePayloadCopy(t *testing.T) {
	net := manual(t, DefaultConfig())
	nd := nodes(t, net, 5)
	payload := make([]byte, 200)
	cross := func() {
		if err := nd[0].SendBroadcast(payload); err != nil {
			t.Fatal(err)
		}
		settle(net)
		for _, n := range nd[1:] {
			<-n.Recv()
		}
	}
	cross() // the heap grows once
	if got := testing.AllocsPerRun(100, cross); got > 1 {
		t.Errorf("a broadcast to 4 nodes allocates %.1f times, want 1", got)
	}
}
