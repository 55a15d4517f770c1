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
// The daemon shards its fan-out state across a fixed pool of lanes keyed
// by subject-prefix hash (subject.LaneIndex): each lane has its own shard
// of the subscription trie's match cache (the trie is built with one shard
// per lane and picks the shard by the same hash) and one column of every
// client's head-indexed delivery queue. Publications on subjects hashing
// to different lanes touch disjoint mutexes end to end, so local
// publishers on separate goroutines — and the inbound workers below — fan
// out without sharing a lock.
//
// Ordering is NOT entrusted to the lane hash. Per-sender FIFO across
// subjects on different lanes is preserved by two mechanisms:
//
//   - every delivery enqueued to a client draws a ticket from the client's
//     arrival counter, and consumers pop in strict ticket order across the
//     lane columns (see Client.popLocked);
//   - inbound traffic is read by a fixed pool of long-lived workers, one
//     per shard of the reliable connection (reliable.NewSharded), which
//     keys shards by *sender* address: one sender's messages are always
//     handled by one worker, in arrival order (no per-delivery goroutines,
//     and the qledger rule that an ack record never overtakes its message
//     rides on exactly this).
//
// DeliveryLanes == 1 is the same engine at N = 1: one inbound worker, one
// cache shard, one queue column per client.

// maxAutoLanes caps the auto-selected lane count (Options.DeliveryLanes
// == 0 picks min(GOMAXPROCS, maxAutoLanes)). Lanes beyond the point where
// per-op fan-out work saturates memory bandwidth only add scan cost to
// every queue pop.
const maxAutoLanes = 8

// maxLanes bounds an explicit Options.DeliveryLanes.
const maxLanes = 64

// resolveLanes turns the configured lane count into the effective one.
func resolveLanes(n int) int {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
		if n > maxAutoLanes {
			n = maxAutoLanes
		}
	}
	if n < 1 {
		n = 1
	}
	if n > maxLanes {
		n = maxLanes
	}
	return n
}

// lane is one delivery lane's telemetry. The client queue columns it owns
// live inside each Client, and its match-cache shard inside the
// subscription trie, both indexed by idx.
type lane struct {
	idx int
	// depth gauges the deliveries enqueued via this lane and not yet
	// consumed, summed over all clients ("daemon.lane<N>.depth"). The
	// per-client aggregate the slow-consumer alarm watches is Client.depth;
	// these per-lane gauges expose *where* a backlog sits.
	depth *telemetry.Gauge
	// delivered counts fan-out deliveries routed via this lane
	// ("daemon.lane<N>.delivered").
	delivered *telemetry.Counter
	// topk is the lane's bounded subject-family accounting table
	// (telemetry.TopK): one Note per publication routed through the lane,
	// contending only with the lane's own deliveries.
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
