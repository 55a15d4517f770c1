package rmi

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"infobus/internal/netsim"
)

// testCandidate counts leadership transitions — the Candidate interface
// decoupled elections from *Server, so a bare counter is enough here.
type testCandidate struct {
	promotes atomic.Int32
	retires  atomic.Int32
}

func (c *testCandidate) Promote() error { c.promotes.Add(1); return nil }
func (c *testCandidate) Retire()        { c.retires.Add(1) }

// TestElectionPartitionHeal drives the election through a network
// partition: the leader's node is isolated, the surviving majority elects
// a replacement, and after healing the group converges back to a single
// leader with full membership. During the partition both sides have a
// leader (the protocol is availability-first, see §3.3); the invariant
// checked is convergence after heal, not mutual exclusion during it.
func TestElectionPartitionHeal(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	eopts := ElectionOptions{BeaconInterval: 5 * time.Millisecond}
	const n = 3
	cands := make([]*testCandidate, n)
	elections := make([]*Election, n)
	nodeIDs := make([]netsim.NodeID, n)
	for i := 0; i < n; i++ {
		bus := newBus(t, seg, fmt.Sprintf("member%d", i))
		var id int
		if _, err := fmt.Sscanf(bus.Host().Addr(), "sim:%d", &id); err != nil {
			t.Fatalf("host addr %q: %v", bus.Host().Addr(), err)
		}
		nodeIDs[i] = netsim.NodeID(id)
		cands[i] = &testCandidate{}
		e, err := NewElection(bus, cands[i], "part.svc", eopts)
		if err != nil {
			t.Fatal(err)
		}
		elections[i] = e
	}
	defer func() {
		for _, e := range elections {
			e.Close()
		}
	}()

	leaders := func() (count, idx int) {
		idx = -1
		for i, e := range elections {
			if e.Leading() {
				count++
				idx = i
			}
		}
		return count, idx
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for !cond() {
			select {
			case <-deadline:
				c, i := leaders()
				t.Fatalf("%s: leaders=%d(idx %d) members=%d/%d/%d", what, c, i,
					elections[0].Members(), elections[1].Members(), elections[2].Members())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	// Stable start: one leader, everyone sees everyone.
	waitFor("initial convergence", func() bool {
		c, _ := leaders()
		return c == 1 &&
			elections[0].Members() == n && elections[1].Members() == n && elections[2].Members() == n
	})
	_, leaderIdx := leaders()

	// Isolate the leader's node. The other two members lose its beacons,
	// expire it, and the smaller of their tokens takes over.
	seg.Network().Partition(nodeIDs[leaderIdx])
	waitFor("majority-side takeover", func() bool {
		for i, e := range elections {
			if i != leaderIdx && e.Leading() {
				return e.Members() == n-1
			}
		}
		return false
	})
	// The isolated old leader still leads its singleton side — split brain
	// is bounded by the partition itself. (It expires the other two on its
	// own timers, which may trail the majority side's takeover.)
	waitFor("isolated leader keeps its singleton side", func() bool {
		return elections[leaderIdx].Leading() && elections[leaderIdx].Members() == 1
	})

	// Heal: beacons flow again, membership recovers to 3, and exactly one
	// member (the globally smallest token) holds leadership.
	seg.Network().Heal()
	waitFor("post-heal convergence", func() bool {
		c, _ := leaders()
		return c == 1 &&
			elections[0].Members() == n && elections[1].Members() == n && elections[2].Members() == n
	})

	// Every transition was delivered to the candidates: whoever leads now
	// has one more promote than retire; everyone else is balanced.
	_, finalIdx := leaders()
	for i, c := range cands {
		p, r := c.promotes.Load(), c.retires.Load()
		want := int32(0)
		if i == finalIdx {
			want = 1
		}
		if p-r != want {
			t.Errorf("candidate %d: promotes=%d retires=%d (want diff %d)", i, p, r, want)
		}
	}
}
