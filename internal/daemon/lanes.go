package daemon

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"infobus/internal/telemetry"
)

// Delivery lanes.
//
// A lane is a shard of senders, and "lane i" means one thing from the wire
// to the application's queue: shard i of the reliable connection
// (reliable.NewSharded keys shards by sender address, once per stream), the
// one long-lived inbound worker that reads it, column i of every client's
// head-indexed delivery queue, and the "daemon.lane<i>" gauge, counter and
// subject-family table below. The daemon's own publications use lane 0: to
// its clients the local daemon is one more sender.
//
// Per-sender FIFO therefore holds by construction: one sender's deliveries
// reach one column of a client's queue, appended by one goroutine at a time
// in arrival order, and a column is popped from its head (no per-delivery
// goroutines anywhere; the qledger rule that an ack record never overtakes
// its message rides on the same worker-per-sender fact). Senders on
// different lanes share no queue lock. What is NOT ordered is the arrival
// of different senders' publications at one client: the paper promises
// order per sender only (§3.1), and Client.popLocked takes the columns
// round-robin.
//
// The subscription trie's match cache is the one thing still sharded by
// subject (subject.NewShardedTrie, one shard per lane): a cache wants a
// subject's repeats in one place whoever sent them, and no order depends on
// it.
//
// DeliveryLanes == 1 is the same engine at N = 1: one inbound worker, one
// cache shard, one queue column per client — and so total arrival order.

// maxAutoLanes caps the auto-selected lane count (Options.DeliveryLanes
// == 0 picks min(GOMAXPROCS, maxAutoLanes)). Lanes beyond the point where
// per-op fan-out work saturates memory bandwidth only add columns for a
// queue pop to look through.
const maxAutoLanes = 8

// maxLanes bounds an explicit Options.DeliveryLanes.
const maxLanes = 64

// resolveLanes turns the configured lane count into the effective one.
func resolveLanes(n int) int {
	if n == 0 {
		n = min(runtime.GOMAXPROCS(0), maxAutoLanes)
	}
	return min(max(n, 1), maxLanes)
}

// lane is one delivery lane's telemetry. The client queue columns it owns
// live inside each Client and its senders' shard inside the connection,
// both indexed by idx.
type lane struct {
	idx int
	// depth gauges the deliveries enqueued via this lane and not yet
	// consumed, summed over all clients ("daemon.lane<N>.depth"). The
	// per-client aggregate the slow-consumer alarm watches is Client.depth;
	// these per-lane gauges say which shard of senders a backlog came from
	// (topk names the subject families).
	depth *telemetry.Gauge
	// delivered counts fan-out deliveries routed via this lane
	// ("daemon.lane<N>.delivered").
	delivered *telemetry.Counter
	// topk is the lane's bounded subject-family accounting table
	// (telemetry.TopK): one Note per publication routed through the lane —
	// its senders' families — contending only with the lane's own
	// deliveries. A family several lanes see is summed by TopSubjects.
	topk *telemetry.TopK
}

// laneTopK bounds each lane's subject-family table. Families beyond the
// bound fold into the space-saving overestimate instead of growing state.
const laneTopK = 128

func newLanes(n int, metrics *telemetry.Registry) []*lane {
	lanes := make([]*lane, n)
	for i := range lanes {
		lanes[i] = &lane{
			idx:       i,
			depth:     metrics.Gauge(fmt.Sprintf("daemon.lane%d.depth", i)),
			delivered: metrics.Counter(fmt.Sprintf("daemon.lane%d.delivered", i)),
			topk:      telemetry.NewTopK(laneTopK),
		}
	}
	return lanes
}

// tokenSource is a per-daemon seeded splitmix64 stream replacing draws
// from the global math/rand source (identity tokens, trace-id bases,
// discovery round tokens). Seeded instances make multi-host netsim tests
// deterministic; the global source's lock is also off the path entirely.
// Safe for concurrent use: one atomic add per token.
type tokenSource struct{ state atomic.Uint64 }

// tokenSalt disambiguates auto-seeded daemons created within one clock
// tick (same pattern as the reliable epoch).
var tokenSalt atomic.Uint64

// newTokenSource seeds a stream. Zero derives a unique seed from the
// clock plus a process-wide counter; a fixed nonzero seed yields a
// reproducible stream, decorrelated (by a constant xor) from the reliable
// epoch that the same Config.Seed produces.
func newTokenSource(seed uint64) *tokenSource {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) + tokenSalt.Add(1)<<32
	} else {
		seed ^= 0xd6e8feb86659fd93
	}
	t := &tokenSource{}
	t.state.Store(seed)
	return t
}

// Next returns the next token (splitmix64: never zero-biased, full
// period).
func (t *tokenSource) Next() uint64 {
	z := t.state.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
