package rmi

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"infobus/internal/mop"
)

// testCandidate counts leadership transitions — the Candidate interface
// decoupled elections from *Server, so a bare counter is enough here.
type testCandidate struct {
	promotes atomic.Int32
	retires  atomic.Int32
}

func (c *testCandidate) Promote() error { c.promotes.Add(1); return nil }
func (c *testCandidate) Retire()        { c.retires.Add(1) }

// virtualStart is where tests on virtual time start the clock.
var virtualStart = time.Unix(1000, 0)

// group is an election group on virtual time: members from newElection, on
// no loop and no segment. A beacon is heard when the test hands the bytes a
// member sent to the others' Hear; a partition is not handing them over.
type group struct {
	t       *testing.T
	now     time.Time
	members []*Election
	cands   []*testCandidate
	sent    [][]byte // what each member beaconed at its last tick, nil if nothing
}

const beaconInterval = 5 * time.Millisecond

func newGroup(t *testing.T, n int) *group {
	g := &group{t: t, now: virtualStart, sent: make([][]byte, n)}
	for i := 0; i < n; i++ {
		cand := &testCandidate{}
		e, err := newElection(mop.NewRegistry(), cand, fmt.Sprintf("member%d", i), beaconInterval,
			func(beacon []byte) { g.sent[i] = beacon })
		if err != nil {
			t.Fatal(err)
		}
		g.members = append(g.members, e)
		g.cands = append(g.cands, cand)
	}
	return g
}

// step advances the clock by dt and ticks every member; then each beacon a
// member sent reaches the members hears(from, to) allows.
func (g *group) step(dt time.Duration, hears func(from, to int) bool) {
	g.now = g.now.Add(dt)
	for i, e := range g.members {
		g.sent[i] = nil
		e.Tick(g.now)
	}
	for from, b := range g.sent {
		for to, e := range g.members {
			if b != nil && to != from && hears(from, to) {
				e.Hear(nil, b)
			}
		}
	}
}

// expect checks which members lead and how many members each one knows.
func (g *group) expect(what string, leading []bool, members []int) {
	g.t.Helper()
	for i, e := range g.members {
		if e.Leading() != leading[i] || e.Members() != members[i] {
			g.t.Fatalf("%s: member%d leading=%v members=%d, want %v and %d", what, i, e.Leading(), e.Members(), leading[i], members[i])
		}
	}
}

func everyone(_, _ int) bool { return true }

// TestElectionPartitionHeal drives the election through a network
// partition: the leader's node is isolated, the surviving majority elects
// a replacement, and after healing the group converges back to a single
// leader with full membership. During the partition both sides have a
// leader (the protocol is availability-first, see §3.3); the invariant
// checked is convergence after heal, not mutual exclusion during it.
func TestElectionPartitionHeal(t *testing.T) {
	g := newGroup(t, 3)
	g.step(0, everyone) // the first beacons: each member led alone when it sent its own
	g.expect("first tick", []bool{true, true, true}, []int{3, 3, 3})
	g.step(beaconInterval, everyone)
	g.expect("stable start", []bool{true, false, false}, []int{3, 3, 3})

	// Isolate member0, the smallest token. The other two lose its beacons,
	// expire it after the member lifetime, and member1 takes over; member0
	// expires them as fast and keeps its singleton side — split brain is
	// bounded by the partition itself.
	cut := func(from, to int) bool { return (from == 0) == (to == 0) }
	for i := 0; i < 5; i++ {
		g.step(beaconInterval, cut)
	}
	g.expect("five intervals into the partition", []bool{true, false, false}, []int{3, 3, 3})
	g.step(beaconInterval, cut)
	g.expect("six intervals into the partition", []bool{true, true, false}, []int{1, 2, 2})

	// Heal: beacons flow again, membership recovers to 3, and exactly one
	// member, the smallest token, leads.
	g.step(beaconInterval, everyone)
	g.step(beaconInterval, everyone)
	g.expect("healed", []bool{true, false, false}, []int{3, 3, 3})

	// Every transition was delivered to the candidates: member0 was promoted
	// once; member1 was promoted and retired twice, member2 once.
	for i, want := range [][2]int32{{1, 0}, {2, 2}, {1, 1}} {
		if p, r := g.cands[i].promotes.Load(), g.cands[i].retires.Load(); p != want[0] || r != want[1] {
			t.Errorf("member%d: promotes=%d retires=%d, want %d and %d", i, p, r, want[0], want[1])
		}
	}
}

// TestElectionLeaderExpiry: a member lives four beacon intervals from the
// tick that stamps its last heard beacon. The follower of a leader that
// falls silent still follows at exactly four intervals and takes over at the
// first tick after them.
func TestElectionLeaderExpiry(t *testing.T) {
	g := newGroup(t, 2)
	g.step(0, everyone)
	g.step(beaconInterval, everyone) // stamps member0's first beacon
	g.expect("stable start", []bool{true, false}, []int{2, 2})

	silent := func(from, _ int) bool { return from != 0 }
	g.step(beaconInterval, silent) // stamps member0's second beacon, the last one heard
	g.step(4*beaconInterval, silent)
	g.expect("four intervals after the last stamp", []bool{true, false}, []int{2, 2})
	g.step(time.Nanosecond, silent)
	g.expect("just after them", []bool{true, true}, []int{2, 1})
}
