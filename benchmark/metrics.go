package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// metric is one reported number. Spread is the metric's own run-internal
// spread: the quartile distance over the median of the per-slice values (of
// the set-ups, for setup_s) it is the median of. -compare uses it to call a
// difference between two single runs unresolved; it is 0 for counts.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	InputHash string            `json:"input_hash"`
	Valid     bool              `json:"valid"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  map[string]uint64 `json:"failures,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	// Timing holds the latency, CPU and throughput numbers of the timed
	// phases. Every run measures them; they are declared per-layer (not
	// gated) in BENCHMARK.json because the reference host does not repeat
	// them within a quarter - see README.md.
	Timing   map[string]metric `json:"timing"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	Notes    []string          `json:"notes,omitempty"`

	// diag is what endToEnd worked out on the way and perLayer reports.
	diag map[string]metric
}

// runWorkload runs one workload once: set-ups, paced phase, set-ups,
// saturated phase, set-ups and, when traced, the layer replay. seconds is the
// measuring time, split between the phases.
func runWorkload(w *spec, seed int64, seconds float64, traced bool, scratch, spansPath string) (*workloadResult, error) {
	in := generate(w, seed)
	res := &workloadResult{Workload: w.name, Seed: seed, Seconds: seconds, InputHash: in.hash,
		EndToEnd: map[string]metric{}, Timing: map[string]metric{}, diag: map[string]metric{}}
	share := 0.5
	if traced {
		share = 0.4 // the replay takes the remaining fifth
	}
	phase := time.Duration(seconds * share * float64(time.Second))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}

	var setups []float64
	var fails failures
	collect := func(t *topo) {
		res.Attempted += t.attempted()
		fails.add(&t.fail)
	}
	closeTopo := func(t *topo) {
		collect(t)
		t.close()
	}
	finish := func(err error) (*workloadResult, error) {
		res.Failed = int64(fails.total())
		res.Failures = fails.breakdown()
		res.Correct = err == nil && res.Failed == 0
		return res, err
	}
	// setUp builds the topology setupReps times and returns the last one
	// still running. A run does so before, between and after the timed
	// phases: the host's speed drifts, and set-ups taken in one half second
	// would all see the same one.
	setUp := func() (*topo, error) {
		for i := 0; ; i++ {
			t, err := build(w, in, false, traced, scratch)
			if err != nil {
				collect(t) // build has closed it
				return nil, err
			}
			setups = append(setups, t.setup.Seconds())
			if i == setupReps-1 {
				return t, nil
			}
			closeTopo(t)
		}
	}

	t, err := setUp()
	if err != nil {
		return finish(err)
	}
	paced, err := t.runPaced(phase)
	closeTopo(t)
	if err != nil {
		return finish(err)
	}

	if t, err = setUp(); err != nil {
		return finish(err)
	}
	closeTopo(t)
	// The saturated phase runs with batching on, as Figures 6-8 do, which is
	// a property of the hosts: a topology of its own, not counted in setup_s.
	if t, err = build(w, in, true, traced, scratch); err != nil {
		collect(t)
		return finish(err)
	}
	sat, err := t.runSaturated(phase)
	closeTopo(t)
	if err != nil {
		return finish(err)
	}
	if t, err = setUp(); err != nil {
		return finish(err)
	}
	closeTopo(t)

	endToEnd(res, setups, paced, sat)
	lateP50 := quantileInts(paced.late, 0.5) / 1e3
	res.Valid = lateP50 <= maxLateShare*float64(burstInterval/time.Microsecond)
	if !res.Valid {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"invalid: the generator woke %.0f us late at the median, more than %.0f%% of a burst interval", lateP50, maxLateShare*100))
	}

	if traced {
		rp, err := runReplay(w, in, scratch)
		if err != nil {
			return finish(err)
		}
		res.PerLayer = map[string]metric{}
		perLayer(res, w, paced, sat, rp, lateP50)
		res.PerLayer["oracle.failed_ops_share"] = metric{Value: ratio(float64(fails.total()), float64(res.Attempted)), Unit: "ratio"}
		if spansPath != "" {
			if err := writeSpans(spansPath, rp.spans); err != nil {
				return finish(err)
			}
		}
	}
	return finish(nil)
}

// maxLateShare is the generator lateness, as a share of the burst interval,
// beyond which a run is marked invalid: the schedule it measured against is
// not the one the workload defines.
const maxLateShare = 0.25

// perSlice is the q-quantile, in microseconds, of each non-empty slice of
// nanosecond samples.
func perSlice(slices [][]int64, q float64) []float64 {
	var out []float64
	for _, v := range slices {
		if len(v) > 0 {
			out = append(out, quantileInts(v, q)/1e3)
		}
	}
	return out
}

// endToEnd fills the metrics a user of the bus would see: the gated ones
// (set-up time and the per-message counts, totals over the paced phase) into
// res.EndToEnd, the timings into res.Timing. A timing is taken per slice and
// reported as the median over the slices.
func endToEnd(res *workloadResult, setups []float64, paced, sat *phaseResult) {
	timing := func(name, unit string, slices []float64) {
		res.Timing[name] = metric{median(slices), unit, spread(slices)}
	}
	diag := func(name string, v float64, unit string) { res.diag[name] = metric{Value: v, Unit: unit} }
	res.EndToEnd["setup_s"] = metric{median(setups), "s", spread(setups)}

	// Latency (due instant to receipt, all consumers pooled) and the time
	// inside Publish / PublishGuaranteed, by the slice the message was due in.
	ph := paced.ph
	sliceOf := func(i int64) int { return int((ph.due(i) - ph.t0) / int64(sliceDur)) }
	lat := make([][]int64, sliceOf(ph.perPub-1)+1)
	call := make([][]int64, len(lat))
	for _, s := range paced.lat {
		k := sliceOf(int64(s.idx))
		lat[k] = append(lat[k], s.ns)
	}
	for i, ns := range paced.call { // the publishers' samples follow one another
		k := sliceOf(int64(i) % ph.perPub)
		call[k] = append(call[k], ns)
	}
	timing("paced_latency_p50_us", "us", perSlice(lat, 0.5))
	timing("publish_call_p50_us", "us", perSlice(call, 0.5))
	diag("diag.paced_latency_p99_us", median(perSlice(lat, 0.99)), "us")
	diag("diag.paced_latency_samples", float64(len(paced.lat)), "count")

	// CPU per published message: each slice's CPU over the messages
	// published in it.
	pts := paced.sampler.points
	var cpu []float64
	for i := 1; i < len(pts)-1; i++ { // the last point is the drain, not a slice
		if n := pts[i].published - pts[i-1].published; n > 0 {
			cpu = append(cpu, float64(pts[i].cpu-pts[i-1].cpu)/1e3/float64(n))
		}
	}
	timing("paced_cpu_us_per_msg", "us", cpu)

	// Allocation and wire bytes per published message, over the whole phase.
	d, msgs := paced.d, float64(paced.msgs)
	diag("diag.paced_cpu_us_per_msg_mean", float64(d.b.cpu-d.a.cpu)/1e3/msgs, "us")
	res.EndToEnd["allocs_per_msg"] = metric{Value: float64(d.b.mem.Mallocs-d.a.mem.Mallocs) / msgs, Unit: "count"}
	res.EndToEnd["alloc_bytes_per_msg"] = metric{Value: float64(d.b.mem.TotalAlloc-d.a.mem.TotalAlloc) / msgs, Unit: "B"}
	res.EndToEnd["wire_bytes_per_msg"] = metric{Value: float64(d.b.bytes-d.a.bytes) / msgs, Unit: "B"}

	// Throughput at the slowest consumer host.
	rates := sat.sliceRates()
	slow := rates[0]
	for _, r := range rates[1:] {
		if median(r) < median(slow) {
			slow = r
		}
	}
	timing("sat_throughput_msgs_s", "msgs/s", slow)
	diag("diag.sat_throughput_best_slice", quantile(slow, 1), "msgs/s")
}

// sliceRates is, per consumer host, the delivery rate of each full slice of
// the phase in messages per second.
func (p *phaseResult) sliceRates() [][]float64 {
	pts := p.sampler.points
	rates := make([][]float64, len(pts[0].progress))
	for i := 1; i < len(pts)-1; i++ { // the last point is the drain, not a slice
		dt := float64(pts[i].at-pts[i-1].at) / 1e9
		for h := range rates {
			rates[h] = append(rates[h], float64(pts[i].progress[h]-pts[i-1].progress[h])/dt)
		}
	}
	return rates
}

// perLayer fills the single-layer metrics: the layer replay's span costs and
// the boundary counts of the timed phases.
func perLayer(res *workloadResult, w *spec, paced, sat *phaseResult, rp *replayResult, lateP50 float64) {
	out := res.PerLayer
	set := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	for _, from := range []map[string]metric{res.Timing, res.diag} {
		for name, m := range from {
			out[name] = m
		}
	}

	// Layer replay. A layer that is not on the workload's path reports 0.
	for name := spanName(1); name < numSpanNames; name++ {
		c := rp.cost[name]
		set(spanNames[name]+".ns_per_op", c.selfNs, "ns")
		set(spanNames[name]+".allocs_per_op", c.allocs, "count")
		set(spanNames[name]+".bytes_per_op", c.bytes, "B")
	}
	ns := func(n spanName) float64 { return rp.cost[n].selfNs }
	hosts := float64(w.consHosts)
	// Calls per published message. The local fan-out is what Daemon.Publish
	// costs beyond the encode and send it also performs; the publisher's
	// own daemon pays those two once, every consumer host the fan-out.
	fanout := math.Max(0, ns(spanPublishLocal)-ns(spanBusprotoEncode)-ns(spanReliableSend))
	sum := ns(spanWireMarshal) + ns(spanBusprotoEncode) + ns(spanReliableSend) + ns(spanBroadcast) +
		(1+hosts)*ns(spanSubjectParse) + ns(spanLedgerAppend) + ns(spanLedgerAck) +
		hosts*(ns(spanReliableRecv)+ns(spanBusprotoDecode)+fanout) +
		rp.appsPerMsg*(ns(spanWireUnmarshal)+ns(spanSubjectMatch))
	if w.routed {
		// The router receives, peeks and forwards (every 10th traced), and
		// its egress send is a second trip over a medium.
		sum += ns(spanReliableRecv) + ns(spanBusprotoPeek) + 0.9*ns(spanRouterFast) + 0.1*ns(spanRouterTraced) + ns(spanBroadcast)
	}
	cpu := res.Timing["paced_cpu_us_per_msg"].Value
	set("layers.sum_cpu_us_per_msg", sum/1e3, "us")
	set("layers.coverage", ratio(sum/1e3, cpu), "ratio")
	set("trace.span_overhead_ns", rp.spanCost, "ns")

	// Boundary counts. Paced phase unless the name says otherwise.
	d, msgs := paced.d, float64(paced.msgs)
	set("transport.datagrams_per_msg", float64(d.b.datagrams-d.a.datagrams)/msgs, "count")
	set("transport.unicast_share", ratio(float64(d.b.unicasts-d.a.unicasts), float64(d.b.datagrams-d.a.datagrams)), "ratio")
	sd := sat.d
	set("reliable.msgs_per_batch", ratio(sd.pub("reliable.sent"), sd.pub("reliable.batches_flushed")), "count")
	both := func(get func(delta, string) float64, name string) float64 { return get(d, name) + get(sd, name) }
	set("reliable.retransmits", both(delta.reliable, "retransmits"), "count")
	set("reliable.naks_sent", both(delta.reliable, "naks_sent"), "count")
	set("reliable.duplicates", both(delta.reliable, "duplicates"), "count")
	set("reliable.skipped", both(delta.reliable, "skipped"), "count")
	set("daemon.inbound_per_msg", d.all("daemon.inbound")/msgs, "count")
	set("daemon.delivered_local_per_msg", d.all("daemon.delivered_local")/msgs, "count")
	set("daemon.no_subscriber_share", ratio(d.cons("daemon.no_subscriber"), d.cons("daemon.inbound")), "ratio")
	set("daemon.lane_depth_max", float64(max(paced.sampler.laneDepthMax, sat.sampler.laneDepthMax)), "count")
	set("daemon.guar_acks_per_msg", d.all("daemon.guar_acks_sent")/msgs, "count")
	// What the consumer hosts themselves put on their broadcast stream:
	// interest advertisements (and _sys publications when telemetry is on).
	set("daemon.consumer_publishes_per_s", d.cons("reliable.published")/d.seconds(), "1/s")
	set("core.events_per_msg", d.all("bus.events")/msgs, "count")
	set("core.decode_deferred", both(delta.all, "bus.decode_deferred"), "count")
	set("core.class_naks", both(delta.all, "bus.class_nak_sent"), "count")
	set("core.sub_queue_depth_max", float64(max(paced.sampler.subDepthMax, sat.sampler.subDepthMax)), "count")
	set("core.subscribe_cancel_p50_us", quantileInts(paced.churnNs, 0.5)/1e3, "us")
	set("ledger.commits_per_msg", d.pub("ledger.commits")/msgs, "count")
	set("ledger.fsyncs_per_msg", d.pub("ledger.fsyncs")/msgs, "count")
	set("ledger.group_size_mean", ratio(d.pub("ledger.appends")+d.pub("ledger.acks"), d.pub("ledger.commits")), "count")
	set("ledger.pending_max", float64(max(paced.sampler.pendingMax, sat.sampler.pendingMax)), "count")
	set("router.forwarded_per_msg", d.rtr("router.forwarded")/msgs, "count")
	set("router.fastpath_share", ratio(d.rtr("router.fastpath_forwarded"), d.rtr("router.forwarded")), "ratio")
	set("router.suppressed", both(delta.rtr, "router.suppressed"), "count")
	set("router.loop_dropped", both(delta.rtr, "router.loop_dropped"), "count")
	set("telemetry.sys_msgs_per_s", float64(d.b.sysMsgs-d.a.sysMsgs)/d.seconds(), "1/s")
	set("telemetry.sys_wire_bytes_share", ratio(float64(d.b.sysBytes-d.a.sysBytes), float64(d.b.bytes-d.a.bytes)), "ratio")
	set("runtime.gc_cycles_per_s", float64(d.b.mem.NumGC-d.a.mem.NumGC)/d.seconds(), "1/s")
	set("runtime.gc_pause_ms", float64(d.b.mem.PauseTotalNs-d.a.mem.PauseTotalNs)/1e6, "ms")
	set("runtime.heap_peak_mb", float64(max(paced.sampler.heapPeak, sat.sampler.heapPeak))/(1<<20), "MB")
	set("runtime.goroutines", float64(max(paced.sampler.goroutines, sat.sampler.goroutines)), "count")
	set("gen.late_p50_us", lateP50, "us")
	set("gen.late_max_ms", quantileInts(paced.late, 1)/1e6, "ms")
	valid := 0.0
	if res.Valid {
		valid = 1
	}
	set("gen.valid", valid, "bool")
	set("diag.sat_cpu_us_per_msg", ratio(float64(sd.b.cpu-sd.a.cpu)/1e3, float64(sat.msgs)), "us")
}
