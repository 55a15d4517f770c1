// Benchmarks regenerating the paper's evaluation (Appendix Figures 5-8 and
// its two invariants) plus the ablation studies listed in DESIGN.md §3.
//
// Figure benchmarks run on the simulated 10 Mb/s Ethernet at Speedup 20,
// reporting modelled-network-time metrics (model-ms/op, model-msgs/sec,
// model-bytes/sec) that are independent of the speedup factor. Absolute
// 1993 numbers are not the target; the shapes are (see EXPERIMENTS.md).
// For slower, higher-fidelity sweeps use cmd/ibbench.
package infobus

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"infobus/internal/baseline"
	"infobus/internal/bench"
	"infobus/internal/core"
	"infobus/internal/daemon"
	"infobus/internal/mop"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/subject"
	"infobus/internal/transport"
	"infobus/internal/wire"
)

// benchConfig is the paper topology at test-friendly speedup.
func benchConfig(consumers int) bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Consumers = consumers
	cfg.Net.Speedup = 20
	cfg.Reliable.NakInterval = 2 * time.Millisecond
	cfg.Reliable.RetransmitInterval = 3 * time.Millisecond
	cfg.Reliable.HeartbeatInterval = 10 * time.Millisecond
	cfg.Reliable.BatchDelay = time.Millisecond
	return cfg
}

var figureSizes = []int{64, 512, 1024, 4096, 10240}

// BenchmarkFigure5Latency reproduces Figure 5: latency vs message size,
// batching off, 1 publisher and 14 consumers on 15 nodes.
func BenchmarkFigure5Latency(b *testing.B) {
	for _, size := range figureSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			n := b.N
			if n > 200 {
				n = 200 // cap the per-iteration message count; stats converge long before
			}
			r, err := bench.MeasureLatency(benchConfig(14), size, n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.MeanMs, "model-ms/msg")
			b.ReportMetric(r.CI99Ms, "model-ms-ci99")
		})
	}
}

// BenchmarkFigure6ThroughputMsgs reproduces Figure 6: messages per second
// vs message size, batching on.
func BenchmarkFigure6ThroughputMsgs(b *testing.B) {
	for _, size := range figureSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			n := b.N
			if n < 50 {
				n = 50
			}
			if n > 2000 {
				n = 2000
			}
			r, err := bench.MeasureThroughput(benchConfig(14), size, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.MsgsPerSec, "model-msgs/sec")
		})
	}
}

// BenchmarkFigure7ThroughputBytes reproduces Figure 7: bytes per second vs
// message size (same experiment as Figure 6, byte-rate view), including
// the device-bandwidth saturation above ~5 KB.
func BenchmarkFigure7ThroughputBytes(b *testing.B) {
	for _, size := range figureSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			n := b.N
			if n < 50 {
				n = 50
			}
			if n > 2000 {
				n = 2000
			}
			r, err := bench.MeasureThroughput(benchConfig(14), size, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.BytesPerSec, "model-bytes/sec")
			b.ReportMetric(r.CumulativeBytesPerSec, "model-cum-bytes/sec")
		})
	}
}

// BenchmarkFigure8Subjects reproduces Figure 8: the effect of the number
// of subjects on throughput (it should be insignificant — subject matching
// is a trie walk, not a scan).
func BenchmarkFigure8Subjects(b *testing.B) {
	for _, nSubjects := range []int{1, 100, 2000} {
		b.Run(fmt.Sprintf("subjects=%d", nSubjects), func(b *testing.B) {
			n := b.N
			if n < 50 {
				n = 50
			}
			if n > 1000 {
				n = 1000
			}
			r, err := bench.MeasureThroughput(benchConfig(4), 512, n, nSubjects)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.BytesPerSec, "model-bytes/sec")
		})
	}
}

// BenchmarkInvariantLatencyVsConsumers measures the appendix claim that
// latency is independent of the number of consumers (broadcast medium).
func BenchmarkInvariantLatencyVsConsumers(b *testing.B) {
	for _, consumers := range []int{1, 7, 14} {
		b.Run(fmt.Sprintf("consumers=%d", consumers), func(b *testing.B) {
			n := b.N
			if n > 150 {
				n = 150
			}
			r, err := bench.MeasureLatency(benchConfig(consumers), 1024, n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.MeanMs, "model-ms/msg")
		})
	}
}

// BenchmarkInvariantThroughputVsSubscribers measures the appendix claim
// that the publication rate is independent of the number of subscribers,
// so cumulative throughput is proportional to subscriber count.
func BenchmarkInvariantThroughputVsSubscribers(b *testing.B) {
	for _, consumers := range []int{1, 7, 14} {
		b.Run(fmt.Sprintf("subscribers=%d", consumers), func(b *testing.B) {
			n := b.N
			if n < 50 {
				n = 50
			}
			if n > 1500 {
				n = 1500
			}
			r, err := bench.MeasureThroughput(benchConfig(consumers), 1024, n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.MsgsPerSec, "model-msgs/sec")
			b.ReportMetric(r.CumulativeBytesPerSec, "model-cum-bytes/sec")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §3)

// BenchmarkAblationTrieVsLinear (A1): subject matching cost with the trie
// vs a linear scan over all subscriptions — why Figure 8 comes out flat.
func BenchmarkAblationTrieVsLinear(b *testing.B) {
	for _, nSubs := range []int{100, 10000} {
		patterns := make([]subject.Pattern, nSubs)
		tr := subject.NewTrie[int]()
		for i := 0; i < nSubs; i++ {
			p := subject.MustParsePattern(fmt.Sprintf("bench.s%d.data", i))
			patterns[i] = p
			tr.Add(p, i)
		}
		s := subject.MustParse(fmt.Sprintf("bench.s%d.data", nSubs/2))
		b.Run(fmt.Sprintf("trie/subs=%d", nSubs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := tr.Match(s); len(got) != 1 {
					b.Fatal("miss")
				}
			}
		})
		b.Run(fmt.Sprintf("linear/subs=%d", nSubs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hits := 0
				for _, p := range patterns {
					if p.Matches(s) {
						hits++
					}
				}
				if hits != 1 {
					b.Fatal("miss")
				}
			}
		})
	}
}

// BenchmarkAblationBroadcastVsBroker (A2): fan-out to N subscribers via
// one Ethernet broadcast (the bus) vs N unicasts from a central broker
// (the Zephyr-style baseline).
func BenchmarkAblationBroadcastVsBroker(b *testing.B) {
	const consumers = 8
	netCfg := netsim.DefaultConfig()
	netCfg.Speedup = 500
	rcfg := reliable.Config{
		NakInterval:        2 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  10 * time.Millisecond,
	}

	b.Run("bus-broadcast", func(b *testing.B) {
		seg := transport.NewSimSegment(netCfg)
		defer seg.Close()
		pubHost, err := core.NewHost(seg, "pub", core.HostConfig{Reliable: rcfg})
		if err != nil {
			b.Fatal(err)
		}
		defer pubHost.Close()
		pub, _ := pubHost.NewBus("p")
		var subs []*core.Subscription
		for i := 0; i < consumers; i++ {
			h, err := core.NewHost(seg, fmt.Sprintf("c%d", i), core.HostConfig{Reliable: rcfg})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			bus, _ := h.NewBus("c")
			sub, _ := bus.Subscribe("fan.out")
			subs = append(subs, sub)
		}
		payload := make([]byte, 512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pub.Publish("fan.out", payload); err != nil {
				b.Fatal(err)
			}
			for _, s := range subs {
				<-s.C
			}
		}
		b.StopTimer()
		st := seg.Network().Stats()
		b.ReportMetric(float64(st.Sent)/float64(b.N), "datagrams/msg")
	})

	b.Run("central-broker", func(b *testing.B) {
		seg := transport.NewSimSegment(netCfg)
		defer seg.Close()
		broker, err := baseline.NewBroker(seg)
		if err != nil {
			b.Fatal(err)
		}
		defer broker.Close()
		var clients []*baseline.BrokerClient
		for i := 0; i < consumers; i++ {
			c, err := baseline.NewBrokerClient(seg, broker.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.Subscribe("fan.out"); err != nil {
				b.Fatal(err)
			}
			clients = append(clients, c)
		}
		for broker.Stats().Subscribes < consumers {
			time.Sleep(time.Millisecond)
		}
		pub, err := baseline.NewBrokerClient(seg, broker.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer pub.Close()
		payload := make([]byte, 512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pub.Publish("fan.out", payload); err != nil {
				b.Fatal(err)
			}
			for _, c := range clients {
				if _, _, ok := c.Recv(); !ok {
					b.Fatal("client closed")
				}
			}
		}
		b.StopTimer()
		st := seg.Network().Stats()
		b.ReportMetric(float64(st.Sent)/float64(b.N), "datagrams/msg")
	})
}

// BenchmarkAblationSubjectVsTuple (A3): routing one publication by subject
// (trie) vs Linda attribute qualification (template scan), at growing
// population sizes — §6's scaling argument.
func BenchmarkAblationSubjectVsTuple(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("subject/population=%d", n), func(b *testing.B) {
			tr := subject.NewTrie[int]()
			for i := 0; i < n; i++ {
				tr.Add(subject.MustParsePattern(fmt.Sprintf("quotes.t%d", i)), i)
			}
			s := subject.MustParse(fmt.Sprintf("quotes.t%d", n-1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(tr.Match(s)) != 1 {
					b.Fatal("miss")
				}
			}
		})
		b.Run(fmt.Sprintf("tuple/population=%d", n), func(b *testing.B) {
			ts := baseline.NewTupleSpace()
			defer ts.Close()
			for i := 0; i < n; i++ {
				if err := ts.Out(baseline.Tuple{"quote", fmt.Sprintf("t%d", i), int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			template := baseline.Tuple{"quote", fmt.Sprintf("t%d", n-1), baseline.Wildcard{Kind: "int"}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := ts.RdP(template); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}

// BenchmarkAblationBatching (A4): throughput of small messages with the
// appendix's batch parameter on vs off.
func BenchmarkAblationBatching(b *testing.B) {
	for _, batching := range []bool{false, true} {
		name := "off"
		if batching {
			name = "on"
		}
		b.Run("batching="+name, func(b *testing.B) {
			n := b.N
			if n < 50 {
				n = 50
			}
			if n > 2000 {
				n = 2000
			}
			cfg := benchConfig(4)
			var r bench.ThroughputResult
			var err error
			if batching {
				r, err = bench.MeasureThroughput(cfg, 64, n, 1)
			} else {
				r, err = bench.MeasureThroughputUnbatched(cfg, 64, n, 1)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.MsgsPerSec, "model-msgs/sec")
		})
	}
}

// BenchmarkAblationWireFormat (A5): the cost of self-description — every
// datagram carries its type metadata (wire.Marshal) vs the per-sender
// dictionary the bus ships (wire.SendDict in steady state: classes go as
// 8-byte fingerprints once their definitions have been on the medium).
func BenchmarkAblationWireFormat(b *testing.B) {
	group := mop.MustNewClass("BenchGroup", nil, []mop.Attr{
		{Name: "code", Type: mop.String},
		{Name: "weight", Type: mop.Float},
	}, nil)
	story := mop.MustNewClass("BenchStory", nil, []mop.Attr{
		{Name: "headline", Type: mop.String},
		{Name: "body", Type: mop.String},
		{Name: "groups", Type: mop.ListOf(group)},
	}, nil)
	obj := mop.MustNew(story).
		MustSet("headline", "GMC surges").
		MustSet("body", "Analysts said the move had been widely anticipated.").
		MustSet("groups", mop.List{
			mop.MustNew(group).MustSet("code", "AUTO").MustSet("weight", 0.7),
		})

	b.Run("self-describing", func(b *testing.B) {
		b.ReportAllocs()
		var bytesOut int
		for i := 0; i < b.N; i++ {
			data, err := wire.Marshal(obj)
			if err != nil {
				b.Fatal(err)
			}
			bytesOut = len(data)
		}
		b.ReportMetric(float64(bytesOut), "bytes/msg")
	})
	b.Run("send-dictionary", func(b *testing.B) {
		b.ReportAllocs()
		// Resend period out of reach: steady state stays reference-only.
		dict := wire.NewSendDict(1 << 30)
		if _, err := dict.Marshal(obj); err != nil { // first contact carries the definitions
			b.Fatal(err)
		}
		var bytesOut int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			data, err := dict.Marshal(obj)
			if err != nil {
				b.Fatal(err)
			}
			bytesOut = len(data)
		}
		b.ReportMetric(float64(bytesOut), "bytes/msg")
	})
}

// BenchmarkAblationQoS (A6): publish-side cost of reliable vs guaranteed
// delivery (the ledger write and acknowledgement handshake).
func BenchmarkAblationQoS(b *testing.B) {
	netCfg := netsim.DefaultConfig()
	netCfg.Speedup = 2000
	rcfg := reliable.Config{
		NakInterval:        2 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  10 * time.Millisecond,
	}
	run := func(b *testing.B, guaranteed bool) {
		seg := transport.NewSimSegment(netCfg)
		defer seg.Close()
		cfg := core.HostConfig{Reliable: rcfg, RetryInterval: 50 * time.Millisecond}
		if guaranteed {
			cfg.LedgerPath = filepath.Join(b.TempDir(), "bench.ledger")
		}
		host, err := core.NewHost(seg, "pub", cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer host.Close()
		bus, _ := host.NewBus("p")
		// A local subscriber consumes (and, for guaranteed, acks).
		conBus, _ := host.NewBus("c")
		sub, _ := conBus.Subscribe("qos.data")
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.C {
			}
		}()
		payload := make([]byte, 256)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if guaranteed {
				if _, err := bus.PublishGuaranteed("qos.data", payload); err != nil {
					b.Fatal(err)
				}
			} else {
				if err := bus.Publish("qos.data", payload); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		sub.Cancel()
		wg.Wait()
	}
	b.Run("reliable", func(b *testing.B) { run(b, false) })
	b.Run("guaranteed", func(b *testing.B) { run(b, true) })
}

// BenchmarkGuaranteedPublish (A10, end-to-end): the guaranteed QoS path —
// group-committed ledger append, publish, local consumer ack — under
// parallel publishers, with and without Sync. With Sync on, concurrent
// publishers share one fsync per committed batch, so "sync=true/pubs=8"
// reports fsyncs/msg well under 1 (scripts/check.sh asserts the same
// property via the ledger-level gate). Real disk, real time: the fsync is
// the quantity under test.
func BenchmarkGuaranteedPublish(b *testing.B) {
	netCfg := netsim.DefaultConfig()
	netCfg.Speedup = 2000
	rcfg := reliable.Config{
		NakInterval:        2 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  10 * time.Millisecond,
	}
	run := func(b *testing.B, pubs int, syncOn bool) {
		seg := transport.NewSimSegment(netCfg)
		defer seg.Close()
		host, err := core.NewHost(seg, "pub", core.HostConfig{
			Reliable:      rcfg,
			LedgerPath:    filepath.Join(b.TempDir(), "bench.ledger"),
			LedgerSync:    syncOn,
			RetryInterval: 500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer host.Close()
		bus, _ := host.NewBus("p")
		// A local subscriber consumes and acks, draining the ledger.
		conBus, _ := host.NewBus("c")
		sub, _ := conBus.Subscribe("qos.data")
		var drained sync.WaitGroup
		drained.Add(1)
		go func() {
			defer drained.Done()
			for range sub.C {
			}
		}()
		payload := make([]byte, 256)
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < pubs; g++ {
			n := b.N / pubs
			if g < b.N%pubs {
				n++
			}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := bus.PublishGuaranteed("qos.data", payload); err != nil {
						b.Error(err)
						return
					}
				}
			}(n)
		}
		wg.Wait()
		b.StopTimer()
		fsyncs := host.Metrics().Counter("ledger.fsyncs").Load()
		b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/msg")
		sub.Cancel()
		drained.Wait()
	}
	for _, syncOn := range []bool{false, true} {
		for _, pubs := range []int{1, 8} {
			b.Run(fmt.Sprintf("sync=%v/pubs=%d", syncOn, pubs), func(b *testing.B) {
				run(b, pubs, syncOn)
			})
		}
	}
}

// BenchmarkFanout measures the publish→deliver hot path in isolation: one
// daemon, one publisher, N local subscribers, the same subject every
// iteration. Local fan-out happens synchronously inside Publish, so each
// iteration is one full envelope-encode → reliable-publish → subject-match
// → N-enqueue round plus N dequeues. The simulated medium runs at Speedup
// 2000 so the wire never throttles the measurement (this benchmark is about
// CPU and allocation cost, not modelled network time — see the Figure
// benchmarks for those). allocs/op is the headline number: the steady-state
// hot path should stay allocation-free apart from the simulated network's
// own per-datagram bookkeeping (EXPERIMENTS.md records before/after).
func BenchmarkFanout(b *testing.B) {
	for _, nSubs := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("subs=%d", nSubs), func(b *testing.B) {
			netCfg := netsim.DefaultConfig()
			netCfg.Speedup = 2000
			seg := transport.NewSimSegment(netCfg)
			defer seg.Close()
			ep, err := seg.NewEndpoint("fanout")
			if err != nil {
				b.Fatal(err)
			}
			d := daemon.New(ep, reliable.Config{
				Batching:           true,
				NakInterval:        2 * time.Millisecond,
				RetransmitInterval: 3 * time.Millisecond,
				HeartbeatInterval:  10 * time.Millisecond,
			}, daemon.Options{})
			defer d.Close()
			pat := subject.MustParsePattern("fan.bench.data")
			clients := make([]*daemon.Client, nSubs)
			for i := range clients {
				c, err := d.NewClient(fmt.Sprintf("sub%d", i))
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Subscribe(pat); err != nil {
					b.Fatal(err)
				}
				clients[i] = c
			}
			subj := subject.MustParse("fan.bench.data")
			payload := make([]byte, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Publish(subj, payload); err != nil {
					b.Fatal(err)
				}
				for _, c := range clients {
					if _, ok := c.TryNext(); !ok {
						b.Fatal("missing local delivery")
					}
				}
			}
		})
	}
}

// BenchmarkFanoutLanes (A12) measures the sharded delivery engine: one
// daemon with 64-512 local subscriber clients fed by four independent
// senders, DeliveryLanes=1 vs a full lane pool. The metric is aggregate
// wall-clock deliveries/sec across all subscribers; on a multicore host
// the lane pool must win (scripts/check.sh gates >= 3x at 8 cores via
// TestLaneScalingGate), while on a single core the two configurations
// should tie — the lanes add no serial overhead worth seeing.
func BenchmarkFanoutLanes(b *testing.B) {
	pool := 8
	if p := runtime.GOMAXPROCS(0); p < pool {
		pool = p
	}
	laneCounts := []int{1}
	if pool > 1 {
		laneCounts = append(laneCounts, pool)
	}
	for _, nSubs := range []int{64, 512} {
		for _, lanes := range laneCounts {
			b.Run(fmt.Sprintf("subs=%d/lanes=%d", nSubs, lanes), func(b *testing.B) {
				n := b.N
				if n < 320 {
					n = 320
				}
				if n > 4000 {
					n = 4000
				}
				r, err := bench.MeasureFanoutLanes(benchConfig(0), lanes, nSubs, n)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.DeliveriesPerSec, "deliveries/sec")
			})
		}
	}
}
