// Experiment A12: the sharded delivery engine. One daemon with many local
// subscriber clients receives broadcasts from several independent senders;
// the measurement is the aggregate local delivery rate (subject match +
// per-lane enqueue + client dequeue) as a function of DeliveryLanes.
//
// Unlike the figure experiments this one is CPU-bound by design: the
// simulated wire runs at a very high speedup so the medium never throttles
// the delivery engine, and the reported rates are wall-clock deliveries
// per second, not modelled network time (the lanes-vs-1-lane RATIO is the
// published quantity, and it is speedup-invariant either way). On a
// single-core host the lane pool degenerates gracefully: rates come out
// flat across lane counts, which is itself the correct answer.
package bench

import (
	"fmt"
	"io"
	"time"

	"infobus/internal/daemon"
	"infobus/internal/subject"
	"infobus/internal/transport"
)

// fanoutGroups is how many distinct subject families the publishers cycle
// over: each message fans out to subscribers/fanoutGroups clients, and the
// trie's match cache (sharded by family) has 16 to spread.
const fanoutGroups = 16

// fanoutSenders is how many independent publisher daemons drive the
// receiver. A lane is a shard of senders (keyed by sender address), so a
// single sender would use one lane whatever the lane count.
const fanoutSenders = 4

// FanoutLanesResult is one cell of experiment A12.
type FanoutLanesResult struct {
	Lanes       int
	Subscribers int
	Senders     int
	Messages    int // broadcast by the senders, total
	Deliveries  int // consumed by the subscriber clients, total
	// DeliveriesPerSec is the aggregate wall-clock delivery rate across
	// all subscriber clients.
	DeliveriesPerSec float64
}

// MeasureFanoutLanes runs one A12 cell: a receiver daemon with the given
// lane count and subscriber population, fanoutSenders publisher daemons
// broadcasting nMsgs messages round-robin over fanoutGroups subject
// families. Subscriber i subscribes to family i%fanoutGroups, so each
// message fans out to subscribers/fanoutGroups local clients.
func MeasureFanoutLanes(cfg Config, lanes, subscribers, nMsgs int) (FanoutLanesResult, error) {
	if subscribers < fanoutGroups {
		return FanoutLanesResult{}, fmt.Errorf("bench: need at least %d subscribers (one per subject family)", fanoutGroups)
	}
	netCfg := cfg.Net
	if netCfg.Speedup < 2000 {
		netCfg.Speedup = 2000 // keep the wire invisible: this experiment measures CPU
	}
	rcfg := cfg.Reliable
	rcfg.Batching = true
	seg := transport.NewSimSegment(netCfg)
	defer seg.Close()

	recvEP, err := seg.NewEndpoint("fanout-recv")
	if err != nil {
		return FanoutLanesResult{}, err
	}
	recv := daemon.New(recvEP, rcfg, daemon.Options{DeliveryLanes: lanes})
	defer recv.Close()

	subjects := make([]string, fanoutGroups)
	parsed := make([]subject.Subject, fanoutGroups)
	for g := range subjects {
		subjects[g] = fmt.Sprintf("fan.g%d.data", g)
		parsed[g] = subject.MustParse(subjects[g])
	}

	// expected[g] is how many of the nMsgs land in family g.
	expected := make([]int, fanoutGroups)
	for i := 0; i < nMsgs; i++ {
		expected[i%fanoutGroups]++
	}

	clients := make([]*daemon.Client, subscribers)
	for i := range clients {
		c, err := recv.NewClient(fmt.Sprintf("sub%d", i))
		if err != nil {
			return FanoutLanesResult{}, err
		}
		if err := c.Subscribe(subject.MustParsePattern(subjects[i%fanoutGroups])); err != nil {
			return FanoutLanesResult{}, err
		}
		clients[i] = c
	}

	senders := make([]*daemon.Daemon, fanoutSenders)
	for j := range senders {
		ep, err := seg.NewEndpoint(fmt.Sprintf("fanout-send%d", j))
		if err != nil {
			return FanoutLanesResult{}, err
		}
		senders[j] = daemon.New(ep, rcfg, daemon.Options{})
		defer senders[j].Close()
	}

	// Consumers drain concurrently; the run is over when every client has
	// seen its family's full message count.
	stop := make(chan struct{})
	defer close(stop)
	consumed := make(chan int, subscribers)
	for i, c := range clients {
		go func(i int, c *daemon.Client) {
			want := expected[i%fanoutGroups]
			got := 0
			for got < want {
				if _, ok := c.Next(stop); !ok {
					break
				}
				got++
			}
			consumed <- got
		}(i, c)
	}

	payload := make([]byte, 256)
	errs := make(chan error, fanoutSenders)
	start := time.Now()
	for j, d := range senders {
		go func(j int, d *daemon.Daemon) {
			// Sender j owns the global message indices i with
			// i%fanoutSenders == j; each index publishes to family
			// i%fanoutGroups, reproducing the expected[] census exactly.
			for i := j; i < nMsgs; i += fanoutSenders {
				if err := d.Publish(parsed[i%fanoutGroups], payload); err != nil {
					errs <- err
					return
				}
			}
			errs <- d.Flush()
		}(j, d)
	}
	for range senders {
		if err := <-errs; err != nil {
			return FanoutLanesResult{}, err
		}
	}

	deliveries := 0
	deadline := time.After(60 * time.Second)
	for range clients {
		select {
		case got := <-consumed:
			deliveries += got
		case <-deadline:
			return FanoutLanesResult{}, fmt.Errorf("bench: fan-out stalled with %d deliveries consumed", deliveries)
		}
	}
	wall := time.Since(start)

	return FanoutLanesResult{
		Lanes:            lanes,
		Subscribers:      subscribers,
		Senders:          fanoutSenders,
		Messages:         nMsgs,
		Deliveries:       deliveries,
		DeliveriesPerSec: float64(deliveries) / wall.Seconds(),
	}, nil
}

// FigureA12 sweeps lane counts at each subscriber population.
func FigureA12(cfg Config, laneCounts, subscriberCounts []int, nMsgs int) ([]FanoutLanesResult, error) {
	var rows []FanoutLanesResult
	for _, subs := range subscriberCounts {
		for _, lanes := range laneCounts {
			r, err := MeasureFanoutLanes(cfg, lanes, subs, nMsgs)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// PrintFigureA12 renders the A12 table: one block per subscriber
// population, with each lane count's aggregate rate and its speedup over
// the single-lane engine.
func PrintFigureA12(w io.Writer, rows []FanoutLanesResult) {
	fmt.Fprintln(w, "A12: sharded delivery engine (aggregate local deliveries/sec, wall clock)")
	fmt.Fprintf(w, "%12s %8s %16s %10s\n", "subscribers", "lanes", "deliveries/s", "vs 1 lane")
	base := map[int]float64{}
	for _, r := range rows {
		if r.Lanes == 1 {
			base[r.Subscribers] = r.DeliveriesPerSec
		}
		ratio := "-"
		if b := base[r.Subscribers]; b > 0 {
			ratio = fmt.Sprintf("%.2fx", r.DeliveriesPerSec/b)
		}
		fmt.Fprintf(w, "%12d %8d %16.0f %10s\n", r.Subscribers, r.Lanes, r.DeliveriesPerSec, ratio)
	}
}
