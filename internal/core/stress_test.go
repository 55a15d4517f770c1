package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"infobus/internal/netsim"
	"infobus/internal/transport"
)

// TestStressLossyChurn soaks the full stack: several publisher hosts
// stream sequenced messages over a lossy, duplicating, reordering network
// while subscribers come and go. Invariants checked at every subscriber,
// per publisher stream:
//
//   - no duplicates (values strictly increase);
//   - FIFO order (never a smaller value after a larger one);
//   - subscribers that existed for the whole run converge to every
//     stream's final value.
//
// That such a subscriber also sees no interior gap is asserted where it can
// be, on virtual time (reliable.TestSoakLossyChurn): here a gap is one
// scheduler stall longer than the wall-clock GapTimeout away, which is how
// this test flaked under -race.
func TestStressLossyChurn(t *testing.T) {
	netCfg := netsim.DefaultConfig()
	netCfg.Speedup = 5000
	netCfg.LossProb = 0.15
	netCfg.DupProb = 0.05
	netCfg.ReorderProb = 0.1
	netCfg.Seed = 1234
	seg := transport.NewSimSegment(netCfg)
	defer seg.Close()

	const (
		nPublishers = 3
		nStable     = 3 // subscribers present for the whole run
		nMsgs       = 120
	)
	reliableCfg := fastReliable()

	// Stable subscribers first, so they see streams from the start.
	type tracker struct {
		mu   sync.Mutex
		last map[string]int64 // publisher addr -> last value seen
	}
	var trackers []*tracker
	for i := 0; i < nStable; i++ {
		h, err := NewHost(seg, fmt.Sprintf("stable%d", i), HostConfig{Reliable: reliableCfg})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		bus, _ := h.NewBus("stable")
		sub, err := bus.Subscribe("stress.>")
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracker{last: make(map[string]int64)}
		trackers = append(trackers, tr)
		go func(sub *Subscription, tr *tracker) {
			for ev := range sub.C {
				b, ok := ev.Value.([]byte)
				if !ok || len(b) < 8 {
					continue
				}
				v := int64(binary.BigEndian.Uint64(b))
				tr.mu.Lock()
				last, seen := tr.last[ev.From]
				switch {
				case !seen:
					tr.last[ev.From] = v
				case v <= last:
					t.Errorf("stream %s: value %d after %d (dup or reorder)", ev.From, v, last)
					tr.mu.Unlock()
					return
				default:
					tr.last[ev.From] = v
				}
				tr.mu.Unlock()
			}
		}(sub, tr)
	}

	// Churning subscribers: appear mid-run, consume a little, vanish.
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		rng := rand.New(rand.NewSource(7))
		n := 0
		for {
			select {
			case <-stopChurn:
				return
			case <-time.After(time.Duration(2+rng.Intn(5)) * time.Millisecond):
			}
			n++
			h, err := NewHost(seg, fmt.Sprintf("churn%d", n), HostConfig{Reliable: reliableCfg})
			if err != nil {
				return
			}
			bus, _ := h.NewBus("churner")
			sub, err := bus.Subscribe("stress.>")
			if err != nil {
				_ = h.Close()
				continue
			}
			go func() {
				for range sub.C {
				}
			}()
			time.Sleep(time.Duration(2+rng.Intn(6)) * time.Millisecond)
			_ = h.Close()
		}
	}()

	// Publishers stream concurrently.
	var pubWG sync.WaitGroup
	for p := 0; p < nPublishers; p++ {
		h, err := NewHost(seg, fmt.Sprintf("pub%d", p), HostConfig{Reliable: reliableCfg})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		bus, _ := h.NewBus("pub")
		pubWG.Add(1)
		go func(p int, bus *Bus) {
			defer pubWG.Done()
			for i := 1; i <= nMsgs; i++ {
				b := make([]byte, 8)
				binary.BigEndian.PutUint64(b, uint64(i))
				if err := bus.Publish(fmt.Sprintf("stress.p%d", p), b); err != nil {
					t.Errorf("publish: %v", err)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(p, bus)
	}
	pubWG.Wait()
	close(stopChurn)
	churnWG.Wait()

	// Every stable subscriber eventually converges to the final value on
	// every publisher stream.
	deadline := time.After(30 * time.Second)
	for _, tr := range trackers {
		for {
			tr.mu.Lock()
			doneStreams := 0
			for _, last := range tr.last {
				if last == nMsgs {
					doneStreams++
				}
			}
			total := len(tr.last)
			tr.mu.Unlock()
			if total == nPublishers && doneStreams == nPublishers {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("streams never converged: %d/%d complete", doneStreams, nPublishers)
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	// Reader goroutines (tracked by wg) exit when their hosts close during
	// test cleanup; wg is not waited here because cleanup runs afterwards.
}
