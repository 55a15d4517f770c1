// Package bench is the measurement harness that regenerates the paper's
// performance appendix (Figures 5-8) and its two stated invariants, plus
// the ablation experiments DESIGN.md calls out. It is shared by the
// repository-root benchmarks (bench_test.go) and the cmd/ibbench binary.
//
// The modelled testbed matches the appendix: 15 nodes on a lightly loaded
// 10 Mb/s Ethernet, one publisher, fourteen consumers, reliable (not
// guaranteed) delivery. The network is simulated (internal/netsim) in
// scaled real time: all reported figures are converted back to modelled
// network time, so a Speedup of 20 changes how long the benchmark takes to
// run, not the numbers it reports (until host CPU becomes the bottleneck;
// keep Speedup moderate for publication-quality numbers).
package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"infobus/internal/core"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/transport"
)

// Config describes the measured topology.
type Config struct {
	// Consumers is the number of subscriber hosts (the paper used 14).
	Consumers int
	// Net is the simulated network; zero value = the paper's Ethernet at
	// Speedup 20.
	Net netsim.Config
	// Reliable tunes the protocol stack; Batching is overridden per
	// experiment (off for latency, on for throughput), matching the
	// appendix's use of the batch parameter.
	Reliable reliable.Config
}

// DefaultConfig is the paper's topology.
func DefaultConfig() Config {
	net := netsim.DefaultConfig()
	net.Speedup = 20
	return Config{
		Consumers: 14,
		Net:       net,
		Reliable: reliable.Config{
			NakInterval:        5 * time.Millisecond,
			GapTimeout:         2 * time.Second,
			RetransmitInterval: 10 * time.Millisecond,
			HeartbeatInterval:  25 * time.Millisecond,
			BatchDelay:         2 * time.Millisecond,
		},
	}
}

// topology is a running publisher + N consumers on one simulated segment.
type topology struct {
	seg    *transport.SimSegment
	pubBus *core.Bus
	subs   []*core.Subscription
	hosts  []*core.Host
}

func buildTopology(cfg Config, patterns []string) (*topology, error) {
	if cfg.Consumers <= 0 {
		cfg.Consumers = 14
	}
	seg := transport.NewSimSegment(cfg.Net)
	tp := &topology{seg: seg}
	pubHost, err := core.NewHost(seg, "publisher", core.HostConfig{Reliable: cfg.Reliable})
	if err != nil {
		seg.Close()
		return nil, err
	}
	tp.hosts = append(tp.hosts, pubHost)
	tp.pubBus, err = pubHost.NewBus("bench-pub")
	if err != nil {
		tp.Close()
		return nil, err
	}
	for i := 0; i < cfg.Consumers; i++ {
		h, err := core.NewHost(seg, fmt.Sprintf("consumer%d", i), core.HostConfig{Reliable: cfg.Reliable})
		if err != nil {
			tp.Close()
			return nil, err
		}
		tp.hosts = append(tp.hosts, h)
		bus, err := h.NewBus("bench-sub")
		if err != nil {
			tp.Close()
			return nil, err
		}
		for _, p := range patterns {
			sub, err := bus.Subscribe(p)
			if err != nil {
				tp.Close()
				return nil, err
			}
			tp.subs = append(tp.subs, sub)
		}
	}
	// Settle before measuring: topology construction (up to 140k
	// subscriptions for Figure 8) leaves allocator and GC debt that would
	// otherwise be charged to the measurement window.
	runtime.GC()
	return tp, nil
}

func (tp *topology) Close() {
	for _, h := range tp.hosts {
		_ = h.Close()
	}
	tp.seg.Close()
}

// payload builds a message body of the given size whose first 8 bytes are
// the send time (shared-clock latency stamping).
func payload(size int, now time.Time) []byte {
	if size < 8 {
		size = 8
	}
	b := make([]byte, size)
	binary.BigEndian.PutUint64(b, uint64(now.UnixNano()))
	return b
}

func stampOf(v any) (time.Time, bool) {
	b, ok := v.([]byte)
	if !ok || len(b) < 8 {
		return time.Time{}, false
	}
	return time.Unix(0, int64(binary.BigEndian.Uint64(b))), true
}

// ---------------------------------------------------------------------------
// Figure 5: latency vs message size (batching off)

// LatencyResult is one row of Figure 5.
type LatencyResult struct {
	MsgSize int
	Samples int
	// Modelled network milliseconds.
	MeanMs, StdMs, CI99Ms float64
}

// MeasureLatency runs the Figure 5 experiment for one message size:
// batching off, one publisher, every consumer timestamping arrivals.
func MeasureLatency(cfg Config, msgSize, nMsgs int) (LatencyResult, error) {
	rcfg := cfg.Reliable
	rcfg.Batching = false // the appendix turns batching off for latency
	runCfg := cfg
	runCfg.Reliable = rcfg

	tp, err := buildTopology(runCfg, []string{"bench.latency"})
	if err != nil {
		return LatencyResult{}, err
	}
	defer tp.Close()

	var mu sync.Mutex
	var samples []float64
	var wg sync.WaitGroup
	warmed := make(chan struct{})
	var warmOnce sync.Once
	var warmCount int
	for _, sub := range tp.subs {
		wg.Add(1)
		go func(sub *core.Subscription) {
			defer wg.Done()
			// The first message is a warm-up: it pays the one-time
			// stream-synchronisation cost of the reliable protocol and is
			// not measured.
			if _, ok := <-sub.C; !ok {
				return
			}
			mu.Lock()
			warmCount++
			if warmCount == len(tp.subs) {
				warmOnce.Do(func() { close(warmed) })
			}
			mu.Unlock()
			for i := 0; i < nMsgs; i++ {
				ev, ok := <-sub.C
				if !ok {
					return
				}
				now := time.Now()
				sent, ok := stampOf(ev.Value)
				if !ok {
					continue
				}
				// Wall latency -> modelled latency (the simulator runs
				// Speedup x faster than the modelled network).
				lat := now.Sub(sent).Seconds() * speedupOf(cfg) * 1000
				mu.Lock()
				samples = append(samples, lat)
				mu.Unlock()
			}
		}(sub)
	}
	if err := tp.pubBus.Publish("bench.latency", payload(msgSize, time.Now())); err != nil {
		return LatencyResult{}, err
	}
	select {
	case <-warmed:
	case <-time.After(30 * time.Second):
		return LatencyResult{}, fmt.Errorf("bench: warm-up message never delivered")
	}
	// Pace publications so each message's latency is measured on a quiet
	// wire, as in the appendix (one publisher, lightly loaded network).
	for i := 0; i < nMsgs; i++ {
		if err := tp.pubBus.Publish("bench.latency", payload(msgSize, time.Now())); err != nil {
			return LatencyResult{}, err
		}
		time.Sleep(scaleDur(cfg, 12*time.Millisecond))
	}
	wg.Wait()
	mean, std := meanStd(samples)
	return LatencyResult{
		MsgSize: msgSize,
		Samples: len(samples),
		MeanMs:  mean,
		StdMs:   std,
		CI99Ms:  ci99(std, len(samples)),
	}, nil
}

// ---------------------------------------------------------------------------
// Figures 6/7/8: throughput (batching on)

// ThroughputResult is one row of Figures 6-8.
type ThroughputResult struct {
	MsgSize  int
	Subjects int
	Messages int
	// Rates at a single subscriber, in modelled network time.
	MsgsPerSec  float64
	BytesPerSec float64
	// CumulativeBytesPerSec is the aggregate over all subscribers (the
	// appendix: "cumulative throughput over all subscribers is
	// proportional to the number of subscribers").
	CumulativeBytesPerSec float64
	Consumers             int
}

// MeasureThroughput runs the Figure 6/7 experiment for one message size,
// publishing nMsgs as fast as the stack accepts with batching on. With
// nSubjects > 1 it becomes the Figure 8 experiment: the publisher cycles
// over that many distinct subjects and every consumer subscribes to all of
// them.
func MeasureThroughput(cfg Config, msgSize, nMsgs, nSubjects int) (ThroughputResult, error) {
	cfg.Reliable.Batching = true // the appendix turns batching on for throughput
	return measureThroughput(cfg, msgSize, nMsgs, nSubjects)
}

// MeasureThroughputUnbatched is MeasureThroughput with the batch parameter
// off, one datagram per message: the other arm of the batching ablation.
func MeasureThroughputUnbatched(cfg Config, msgSize, nMsgs, nSubjects int) (ThroughputResult, error) {
	cfg.Reliable.Batching = false
	return measureThroughput(cfg, msgSize, nMsgs, nSubjects)
}

func measureThroughput(runCfg Config, msgSize, nMsgs, nSubjects int) (ThroughputResult, error) {
	if nSubjects < 1 {
		nSubjects = 1
	}
	cfg := runCfg

	subjects := make([]string, nSubjects)
	for i := range subjects {
		subjects[i] = fmt.Sprintf("bench.s%d.data", i)
	}
	tp, err := buildTopology(runCfg, subjects)
	if err != nil {
		return ThroughputResult{}, err
	}
	defer tp.Close()

	// One counting goroutine per consumer-subscription; each consumer has
	// nSubjects subscriptions, and each message lands on exactly one.
	perConsumer := make([]chan struct{}, 0, cfg.Consumers)
	var counters sync.WaitGroup
	consumers := cfg.Consumers
	if consumers <= 0 {
		consumers = 14
	}
	subsPerConsumer := nSubjects
	for c := 0; c < consumers; c++ {
		done := make(chan struct{})
		perConsumer = append(perConsumer, done)
		counters.Add(1)
		go func(subs []*core.Subscription, done chan struct{}) {
			defer counters.Done()
			var mu sync.Mutex
			got := 0
			var inner sync.WaitGroup
			for _, sub := range subs {
				inner.Add(1)
				go func(sub *core.Subscription) {
					defer inner.Done()
					for range sub.C {
						mu.Lock()
						got++
						complete := got >= nMsgs
						mu.Unlock()
						if complete {
							select {
							case <-done:
							default:
								close(done)
							}
							return
						}
					}
				}(sub)
			}
			<-done
			// Leave the remaining subscription goroutines draining; they
			// exit when the topology closes.
			go inner.Wait()
		}(tp.subs[c*subsPerConsumer:(c+1)*subsPerConsumer], done)
	}

	start := time.Now()
	for i := 0; i < nMsgs; i++ {
		subj := subjects[i%nSubjects]
		if err := tp.pubBus.Publish(subj, payload(msgSize, time.Now())); err != nil {
			return ThroughputResult{}, err
		}
	}
	_ = tp.pubBus.Flush()
	for _, done := range perConsumer {
		<-done
	}
	wall := time.Since(start)
	counters.Wait()

	// The simulator compresses modelled time by Speedup, so wall time
	// expands back into modelled time by the same factor.
	modelSeconds := wall.Seconds() * speedupOf(cfg)
	rate := float64(nMsgs) / modelSeconds
	return ThroughputResult{
		MsgSize:               msgSize,
		Subjects:              nSubjects,
		Messages:              nMsgs,
		MsgsPerSec:            rate,
		BytesPerSec:           rate * float64(msgSize),
		CumulativeBytesPerSec: rate * float64(msgSize) * float64(consumers),
		Consumers:             consumers,
	}, nil
}

func speedupOf(cfg Config) float64 {
	if cfg.Net.Speedup <= 0 {
		return 1
	}
	return cfg.Net.Speedup
}

func scaleDur(cfg Config, d time.Duration) time.Duration {
	return time.Duration(float64(d) / speedupOf(cfg))
}

// ---------------------------------------------------------------------------
// Statistics

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// ci99 is the half-width of the 99% confidence interval of the mean.
func ci99(std float64, n int) float64 {
	if n < 2 {
		return 0
	}
	return 2.576 * std / math.Sqrt(float64(n))
}
