package core

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"infobus/internal/mop"
	"infobus/internal/netsim"
	"infobus/internal/telemetry"
	"infobus/internal/transport"
)

// spawned counts, by the function that started them, the live goroutines
// the calling goroutine's calls created: other tests' hosts, still winding
// down, do not count.
func spawned() (by map[string]int, total int) {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		stacks := string(buf[:n])
		self := " in goroutine " + strings.Fields(stacks)[1] + "\n" // the caller's trace comes first
		by = map[string]int{}
		for _, line := range strings.Split(stacks, "\n") {
			if creator, ok := strings.CutPrefix(line+"\n", "created by "); ok && strings.HasSuffix(creator, self) {
				by[strings.TrimSuffix(creator, self)]++
				total++
			}
		}
		return by, total
	}
}

// daemonClients reads how many clients the host's daemon holds.
func daemonClients(h *Host) int {
	return reflect.ValueOf(h.Daemon()).Elem().FieldByName("clients").Len()
}

// TestOneLoopPerHost: a host with the ledger, compact publishing and every
// telemetry tier on runs the daemon's lanes + 2 goroutines, the ledger's
// committer, one dispatcher per Bus and one housekeeping loop with one
// internal daemon client — not a goroutine per periodic duty — and Close
// leaves none. A host with none of them starts no loop and no client.
func TestOneLoopPerHost(t *testing.T) {
	seg := transport.NewManualSimSegment(netsim.DefaultConfig(), virtualStart) // no goroutine of its own
	defer seg.Close()
	const lanes, buses = 3, 2
	h, err := NewHost(seg, "full", HostConfig{
		DeliveryLanes: lanes,
		LedgerPath:    filepath.Join(t.TempDir(), "ledger"),
		CompactTypes:  true,
		Telemetry: TelemetryConfig{
			StatsInterval:   time.Second,
			Health:          telemetry.HealthConfig{Interval: time.Second},
			HistoryInterval: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < buses; i++ {
		if _, err := h.NewBus("app"); err != nil {
			t.Fatal(err)
		}
	}
	by, total := spawned()
	if want := lanes + 2 + 1 + 1 + buses; total != want || by["infobus/internal/core.(*Host).ensureLoop"] != 1 {
		t.Errorf("a fully configured host runs %d goroutines, want %d (lanes + 2, the loop, the committer, one per Bus): %v", total, want, by)
	}
	if got := daemonClients(h); got != buses+1 {
		t.Errorf("the daemon holds %d clients, want %d: one per Bus and \"_sys\"", got, buses+1)
	}
	_ = h.Close()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		if by, total = spawned(); total == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after Close: %v", total, by)
		}
	}

	bare, err := NewHost(seg, "bare", HostConfig{DeliveryLanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if by, total := spawned(); total != lanes+2 || bare.loop != nil || daemonClients(bare) != 0 {
		t.Errorf("a host with every tier off runs %d goroutines (%v), loop %v, %d clients; want the daemon's %d and nothing else",
			total, by, bare.loop != nil, daemonClients(bare), lanes+2)
	}
}

// TestStalledSubscriberDoesNotStopTheLoop: a subscriber that never drains
// its channel while class definitions arrive holds up its own bus, where the
// retried stash waits behind the full channel — and nothing else: the
// host's loop still answers "_sys.ping". The steps wait on deliveries, which
// per-sender FIFO orders after what was published before them.
func TestStalledSubscriberDoesNotStopTheLoop(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	cfg := compactCfg()
	cfg.CompactResendEvery = 1 << 30 // definitions travel once, then only by NAK
	pub := newHost(t, seg, "pub", cfg)
	rcv := newHost(t, seg, "rcv", HostConfig{Telemetry: TelemetryConfig{StatsInterval: time.Hour}})
	pubBus, err := pub.NewBus("sensor")
	if err != nil {
		t.Fatal(err)
	}
	probeBus, err := rcv.NewBus("probe")
	if err != nil {
		t.Fatal(err)
	}
	subscribe := func(b *Bus, pattern string) *Subscription {
		t.Helper()
		s, err := b.Subscribe(pattern)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	publish := func(b *Bus, subj string, v mop.Value) {
		t.Helper()
		if err := b.Publish(subj, v); err != nil {
			t.Fatal(err)
		}
	}
	mark, pong := subscribe(probeBus, "x.mark"), subscribe(probeBus, "_sys.pong.rcv")
	wt := thicknessType() // one class object: the send dictionary knows a class by identity
	reading := func(v float64) mop.Value {
		return mop.MustNew(wt).MustSet("station", "litho8").MustSet("microns", v)
	}

	// The definitions cross the medium while nobody on rcv wants x.a.
	publish(pubBus, "x.a", reading(1))
	publish(pubBus, "x.mark", "definitions passed")
	recvEvent(t, mark, 10*time.Second)

	appBus, err := rcv.NewBus("stalled")
	if err != nil {
		t.Fatal(err)
	}
	stalled := subscribe(appBus, "x.a")
	for i := 0; i < cap(stalled.ch); i++ {
		publish(pubBus, "x.a", "filler") // fills the channel nobody reads
	}
	publish(pubBus, "x.a", reading(2)) // references only: stashed, NAKed
	// The answer reaches rcv: its loop harvests it and has appBus retry.
	harvested := rcv.Metrics().Counter("bus.class_defs_harvested")
	for deadline := time.Now().Add(10 * time.Second); harvested.Load() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the class definitions never arrived")
		}
	}

	publish(probeBus, telemetry.PingSubject, int64(7))
	if ev := recvEvent(t, pong, 10*time.Second); ev.Value.(*mop.Object).MustGet("nonce") != int64(7) {
		t.Fatalf("pong = %v", ev.Value)
	}
	if n := rcv.Metrics().Counter("bus.decode_deferred").Load(); n == 0 {
		t.Fatal("nothing was stashed: the scenario did not happen")
	}
	// Drained at last, the subscriber gets the fillers and then the reading.
	for i := 0; i < cap(stalled.ch); i++ {
		if ev := recvEvent(t, stalled, 10*time.Second); ev.Value != "filler" {
			t.Fatalf("event %d = %v, want a filler", i, ev.Value)
		}
	}
	if ev := recvEvent(t, stalled, 10*time.Second); ev.Value.(*mop.Object).MustGet("microns") != 2.0 {
		t.Fatalf("after the fillers: %v, want the stashed reading", ev.Value)
	}
}
