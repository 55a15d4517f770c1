package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"infobus"
	"infobus/internal/subject"
)

// burstInterval is the paced phase's schedule grain: the messages of each
// interval are all due at its start.
const burstInterval = time.Millisecond

// topo is one built topology of a workload: hosts, router, applications and
// their consumer goroutines, over the benchmark's own segments.
type topo struct {
	w  *spec
	in *inputs

	segs      []*memSegment
	pubHost   *infobus.Host
	pubBuses  []*infobus.Bus // one per publisher
	consHosts []*infobus.Host
	router    *infobus.Router
	churnBus  *infobus.Bus
	subs      []*infobus.Subscription
	consumers []*consumer
	wg        sync.WaitGroup
	dir       string

	fail     failures
	next     []int64          // per publisher: the next sequence to publish
	cnt      [][]int64        // [publisher][subject index]: publications so far
	hostSeen [][]atomic.Int64 // [consumer host][publisher]: highest sequence delivered
	paced    atomic.Pointer[pacedPhase]
	// published counts the paced phase's publications as they happen, so the
	// sampler can charge each slice's CPU to the messages actually in it.
	published atomic.Int64

	setup time.Duration // build start to first verified delivery on every subscription
}

// pacedPhase tells consumers which sequences belong to the paced phase and
// when each was due.
type pacedPhase struct {
	first  int64 // first sequence of the phase (the same for every publisher)
	perPub int64 // messages per publisher
	rate   int64 // msgs/s per publisher
	t0     int64 // nanotime of the first boundary
}

// due is the instant message i of a publisher is due: the start of the
// burst interval its position in the fixed-rate schedule falls into.
func (ph *pacedPhase) due(i int64) int64 {
	perSec := int64(time.Second / burstInterval)
	return ph.t0 + i*perSec/ph.rate*int64(burstInterval)
}

// hostConfig is the configuration of one host. seed fixes the reliable
// connection's epoch and the daemon's token stream: both are put on the
// wire as varints, and a clock-derived epoch made wire_bytes_per_msg differ
// by a byte per datagram from one run to the next.
func (w *spec) hostConfig(publisher, batching bool, seed uint64, dir string) infobus.HostConfig {
	cfg := infobus.HostConfig{Reliable: infobus.ReliableConfig{Batching: batching, Seed: seed}}
	if publisher {
		cfg.CompactTypes = w.compact
		if w.guaranteed {
			cfg.LedgerPath = filepath.Join(dir, "ledger")
			// An ack normally lands within a millisecond. A stalled VM
			// must not turn into a burst of retransmissions that would
			// show up in wire_bytes_per_msg.
			cfg.RetryInterval = 2 * time.Second
		}
	}
	if w.telemetry {
		cfg.Telemetry = infobus.TelemetryConfig{
			TraceSampling:   0.1,
			StatsInterval:   time.Second,
			Health:          infobus.HealthConfig{Interval: 250 * time.Millisecond},
			HistoryInterval: 250 * time.Millisecond,
		}
	}
	return cfg
}

// build brings a workload's topology up through the public API and returns
// once every subscription has verified its first delivery. scratch is a
// directory inside the checkout for the ledger.
func build(w *spec, in *inputs, batching, classify bool, scratch string) (t *topo, err error) {
	start := nanotime()
	t = &topo{w: w, in: in, next: make([]int64, w.publishers)}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if w.guaranteed {
		if t.dir, err = os.MkdirTemp(scratch, "ledger-"); err != nil {
			return t, err
		}
	}
	segA := newMemSegment("a")
	segA.classify = classify
	t.segs = []*memSegment{segA}
	consSeg := segA
	if w.routed {
		consSeg = newMemSegment("b")
		consSeg.classify = classify
		t.segs = append(t.segs, consSeg)
	}

	if t.pubHost, err = infobus.NewHost(segA, "pub", w.hostConfig(true, batching, 1, t.dir)); err != nil {
		return t, err
	}
	for p := 0; p < w.publishers; p++ {
		b, err := t.pubHost.NewBus(fmt.Sprintf("gen%d", p))
		if err != nil {
			return t, err
		}
		t.pubBuses = append(t.pubBuses, b)
	}
	t.cnt = make([][]int64, w.publishers)
	for p := range t.cnt {
		t.cnt[p] = make([]int64, len(in.subjects))
	}
	if w.routed {
		opts := infobus.RouterOptions{
			Name:     "r1",
			Reliable: infobus.ReliableConfig{Batching: batching, Seed: 100},
			// Interest is re-advertised every 250 ms; the default 1 s
			// lifetime would let one long host stall drop the flow.
			InterestTTL: 5 * time.Second,
		}
		if w.telemetry {
			opts.StatsInterval = time.Second
			opts.Health = infobus.HealthConfig{Interval: 250 * time.Millisecond}
		}
		t.router, err = infobus.NewRouter(opts,
			infobus.RouterAttachment{Segment: segA, Name: "a"},
			infobus.RouterAttachment{Segment: consSeg, Name: "b"})
		if err != nil {
			return t, err
		}
	}

	t.hostSeen = make([][]atomic.Int64, w.consHosts)
	si := 0
	for h := 0; h < w.consHosts; h++ {
		t.hostSeen[h] = make([]atomic.Int64, w.publishers)
		for p := range t.hostSeen[h] {
			t.hostSeen[h][p].Store(-1)
		}
		host, err := infobus.NewHost(consSeg, fmt.Sprintf("cons%d", h), w.hostConfig(false, batching, uint64(10+h), ""))
		if err != nil {
			return t, err
		}
		t.consHosts = append(t.consHosts, host)
		var bus *infobus.Bus
		app := -1
		for ; si < len(in.subs) && in.subs[si].host == h; si++ {
			s := &in.subs[si]
			if s.app != app {
				app = s.app
				if bus, err = host.NewBus(fmt.Sprintf("app%d", app)); err != nil {
					return t, err
				}
			}
			sub, err := bus.Subscribe(s.pattern)
			if err != nil {
				return t, err
			}
			c := &consumer{t: t, oracle: newSubOracle(in, s, &t.fail)}
			t.subs = append(t.subs, sub)
			t.consumers = append(t.consumers, c)
			t.wg.Add(1)
			go c.run(sub)
		}
	}
	if w.churn {
		if t.churnBus, err = t.consHosts[0].NewBus("churner"); err != nil {
			return t, err
		}
	}
	if t.router != nil {
		// Reliable publications are not retried across a router that does
		// not know the interest yet, so wait for it to propagate.
		deadline := time.Now().Add(drainTimeout)
		for _, idx := range in.probes {
			s := subject.MustParse(in.subjects[idx])
			for !t.router.WantsOn("b", s) {
				if time.Now().After(deadline) {
					return t, fmt.Errorf("%s: interest never reached the router", w.name)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	// The probes: one publication per subscription pattern, the first
	// sequences of every publisher. The first goes alone and is waited for:
	// a receiver buffers a sender's first messages for its join grace, and
	// messages arriving while that buffer is released can overtake it (the
	// housekeeping goroutine and the receive loop both emit), so a stream
	// is only used in earnest once its first message is through.
	t.publishAll(1)
	if t.drain() {
		t.publishAll(int64(len(in.probes)) - 1)
	}
	if !t.drain() {
		return t, fmt.Errorf("%s: set-up deliveries did not arrive (failed: %v)", w.name, t.fail.breakdown())
	}
	t.setup = time.Duration(nanotime() - start)
	return t, nil
}

// publish sends sequence n of publisher p: the pool object for n, stamped
// with n, on the subject the schedule gives n.
func (t *topo) publish(p int, n int64) {
	obj := t.in.object(p, n)
	if err := obj.SetAt(slotSeq, n); err != nil {
		panic(err)
	}
	idx := t.in.subjectOf(n)
	var err error
	if t.w.guaranteed {
		_, err = t.pubBuses[p].PublishGuaranteed(t.in.subjects[idx], obj)
	} else {
		err = t.pubBuses[p].Publish(t.in.subjects[idx], obj)
	}
	if err != nil {
		t.fail.publishErrs.Add(1)
		return
	}
	t.cnt[p][idx]++
}

// publishAll publishes the next n sequences of every publisher, unpaced,
// each publisher on its own goroutine.
func (t *topo) publishAll(n int64) {
	var wg sync.WaitGroup
	for p := range t.pubBuses {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := int64(0); i < n; i++ {
				t.publish(p, t.next[p])
				t.next[p]++
			}
			_ = t.pubBuses[p].Flush()
		}(p)
	}
	wg.Wait()
}

// expected is the number of deliveries a subscription is due for everything
// published so far.
func (t *topo) expected(s *subscription) int64 {
	var n int64
	for p := range t.cnt {
		for _, idx := range s.wantList {
			n += t.cnt[p][idx]
		}
	}
	return n
}

// drain waits until every subscription has verified every delivery it is
// due (publishers must be idle) and every guaranteed publication is
// acknowledged. What is still missing at the timeout is charged as failed.
func (t *topo) drain() bool {
	for _, b := range t.pubBuses {
		_ = b.Flush()
	}
	deadline := time.Now().Add(drainTimeout)
	want := make([]int64, len(t.consumers))
	for i, c := range t.consumers {
		want[i] = t.expected(c.oracle.sub)
	}
	for i := 0; i < len(t.consumers); {
		if t.consumers[i].oracle.got.Load() >= want[i] {
			i++
			continue
		}
		if time.Now().After(deadline) {
			for j, c := range t.consumers {
				c.oracle.finish(want[j])
			}
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	if t.w.guaranteed {
		// The gauge, not Host.PendingGuaranteed: that copies every pending
		// entry, and this poll sits inside the paced phase's counters.
		pending := t.pubHost.Metrics().Gauge("ledger.pending")
		for pending.Load() > 0 {
			if time.Now().After(deadline) {
				t.fail.unacked.Add(uint64(pending.Load()))
				return false
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return true
}

// attempted is the number of deliveries due so far over all subscriptions.
func (t *topo) attempted() int64 {
	var n int64
	for _, c := range t.consumers {
		n += t.expected(c.oracle.sub)
	}
	return n
}

func (t *topo) close() {
	if t.router != nil {
		_ = t.router.Close()
	}
	if t.pubHost != nil {
		_ = t.pubHost.Close()
	}
	for _, h := range t.consHosts {
		_ = h.Close()
	}
	for _, s := range t.segs {
		_ = s.Close()
	}
	t.wg.Wait()
	if t.dir != "" {
		_ = os.RemoveAll(t.dir)
	}
}

// ---------------------------------------------------------------------------
// Boundary counters

// snapshot is every counter the benchmark reads at a phase boundary.
type snapshot struct {
	at        int64
	cpu       time.Duration
	mem       runtime.MemStats
	datagrams uint64
	bytes     uint64
	unicasts  uint64
	sysMsgs   uint64
	sysBytes  uint64
	pub       map[string]int64 // publisher host registry
	cons      map[string]int64 // consumer host registries, summed
	rtr       map[string]int64 // router registry
}

func registryCounts(dst map[string]int64, ms []infobus.MetricValue) {
	for _, m := range ms {
		dst[m.Name] += m.Value
	}
}

func (t *topo) snapshot() *snapshot {
	s := &snapshot{pub: map[string]int64{}, cons: map[string]int64{}, rtr: map[string]int64{}}
	runtime.ReadMemStats(&s.mem)
	for _, seg := range t.segs {
		s.datagrams += seg.datagrams.Load()
		s.bytes += seg.bytes.Load()
		s.unicasts += seg.unicasts.Load()
		s.sysMsgs += seg.sysMsgs.Load()
		s.sysBytes += seg.sysBytes.Load()
	}
	registryCounts(s.pub, t.pubHost.Metrics().Snapshot())
	for _, h := range t.consHosts {
		registryCounts(s.cons, h.Metrics().Snapshot())
	}
	if t.router != nil {
		registryCounts(s.rtr, t.router.Metrics().Snapshot())
	}
	s.cpu = cpuTime()
	s.at = nanotime()
	return s
}

// delta is the change of the counters between two snapshots.
type delta struct {
	a, b *snapshot
}

func (d delta) seconds() float64 { return float64(d.b.at-d.a.at) / 1e9 }
func (d delta) pub(name string) float64 {
	return float64(d.b.pub[name] - d.a.pub[name])
}
func (d delta) cons(name string) float64 {
	return float64(d.b.cons[name] - d.a.cons[name])
}
func (d delta) rtr(name string) float64 {
	return float64(d.b.rtr[name] - d.a.rtr[name])
}
func (d delta) all(name string) float64 { return d.pub(name) + d.cons(name) + d.rtr(name) }

// reliable sums a reliable-protocol counter over every connection: hosts
// register it as "reliable.<counter>", a router as
// "reliable.<attachment>.<counter>".
func (d delta) reliable(counter string) float64 {
	var n float64
	for _, m := range []struct{ a, b map[string]int64 }{{d.a.pub, d.b.pub}, {d.a.cons, d.b.cons}, {d.a.rtr, d.b.rtr}} {
		for name, v := range m.b {
			if strings.HasPrefix(name, "reliable.") && strings.HasSuffix(name, "."+counter) {
				n += float64(v - m.a[name])
			}
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---------------------------------------------------------------------------
// Sampler

// slicePoint is what the sampler reads at a slice boundary.
type slicePoint struct {
	at        int64
	cpu       time.Duration
	published int64   // messages published so far in the phase, all publishers
	progress  []int64 // per consumer host: messages delivered so far (sum over publishers)
}

// sampler wakes at the slice boundaries of a phase; every other boundary it
// also reads the queue depths. It sleeps on a timer: nothing waits for it,
// and a late wake-up only makes one slice longer and the next shorter.
type sampler struct {
	t      *topo
	stop   chan struct{}
	done   chan struct{}
	points []slicePoint

	laneDepthMax, subDepthMax, pendingMax int64
	heapPeak                              uint64
	goroutines                            int
}

func (t *topo) startSampler(t0 int64, dur time.Duration) *sampler {
	s := &sampler{t: t, stop: make(chan struct{}), done: make(chan struct{}),
		points: make([]slicePoint, 0, int(dur/sliceDur)+16)}
	go s.run(t0)
	return s
}

func (s *sampler) point() {
	hosts := len(s.t.hostSeen)
	p := slicePoint{at: nanotime(), cpu: cpuTime(), published: s.t.published.Load(), progress: make([]int64, hosts)}
	for h := range s.t.hostSeen {
		for q := range s.t.hostSeen[h] {
			p.progress[h] += s.t.hostSeen[h][q].Load() + 1
		}
	}
	s.points = append(s.points, p)
}

func (s *sampler) depths(heap []metrics.Sample) {
	for _, h := range s.t.consHosts {
		for _, d := range h.Daemon().LaneDepths() {
			s.laneDepthMax = max(s.laneDepthMax, d)
		}
	}
	// The first few subscriptions stand for all: subject_churn has 2020.
	for _, sub := range s.t.subs[:min(len(s.t.subs), 16)] {
		s.subDepthMax = max(s.subDepthMax, int64(len(sub.C)))
	}
	if s.t.w.guaranteed {
		s.pendingMax = max(s.pendingMax, s.t.pubHost.Metrics().Gauge("ledger.pending").Load())
	}
	metrics.Read(heap)
	s.heapPeak = max(s.heapPeak, heap[0].Value.Uint64())
	s.goroutines = max(s.goroutines, runtime.NumGoroutine())
}

func (s *sampler) run(t0 int64) {
	defer close(s.done)
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	// Boundaries sit half a burst interval off the schedule's, so a slice
	// does not begin while a burst is half published.
	next := t0 + int64(burstInterval/2)
	boundary := time.NewTimer(time.Duration(next - nanotime()))
	defer boundary.Stop()
	for i := 0; ; i++ {
		select {
		case <-s.stop:
			s.point()
			return
		case <-boundary.C:
			s.point()
			if i%2 == 0 {
				s.depths(heap)
			}
			next += int64(sliceDur)
			boundary.Reset(time.Duration(next - nanotime()))
		}
	}
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// ---------------------------------------------------------------------------
// Churn

// churn subscribes and cancels literal subjects on the consumer host at
// churnPairsPerSec for the phase's nominal duration (or until stop closes),
// catching up when it falls behind, so the number of pairs is the same on
// every run. It returns the time of each pair.
//
// A pair is followed by a wait for the interest advertisement it causes (the
// daemon sends one 2 ms after the last change): an advertisement walks all
// 2020 subscriptions, about 9000 allocations, and without the wait two pairs
// run back to back after a host stall shared one, so allocs_per_msg moved by
// 2 % between runs with the number of stalls.
func (t *topo) churn(t0 int64, dur time.Duration, stop <-chan struct{}) []int64 {
	interval := int64(time.Second) / churnPairsPerSec
	n := int64(dur) / interval
	pairs := make([]int64, 0, n)
	advertised := t.consHosts[0].Metrics().Counter("reliable.published")
	pc := newPacer()
	defer pc.release()
	for i := int64(0); i < n; i++ {
		pc.sleepUntil(t0 + i*interval)
		select {
		case <-stop:
			return pairs
		default:
		}
		before := advertised.Load()
		start := nanotime()
		sub, err := t.churnBus.Subscribe(t.in.churn[i%int64(len(t.in.churn))])
		if err != nil {
			t.fail.publishErrs.Add(1)
			continue
		}
		sub.Cancel()
		pairs = append(pairs, nanotime()-start)
		for deadline := start + int64(drainTimeout); advertised.Load() == before && nanotime() < deadline; {
			time.Sleep(200 * time.Microsecond)
		}
	}
	return pairs
}

func (t *topo) startChurn(t0 int64, dur time.Duration) (stop func() []int64) {
	if !t.w.churn {
		return func() []int64 { return nil }
	}
	ch := make(chan struct{})
	var pairs []int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		pairs = t.churn(t0, dur, ch)
	}()
	return func() []int64 {
		close(ch)
		<-done
		return pairs
	}
}

// ---------------------------------------------------------------------------
// Phases

// phaseResult is what one timed phase measured.
type phaseResult struct {
	d       delta
	msgs    int64 // messages published in the phase, all publishers
	sampler *sampler
	// paced phase
	lat     []latSample // all consumers pooled
	call    []int64     // time inside Publish, per message
	late    []int64     // wake-up minus due instant, per burst: the generator's own lateness
	churnNs []int64     // time of each Subscribe+Cancel pair
	ph      *pacedPhase
}

// warmup publishes the excluded warm-up messages and waits for them.
func (t *topo) warmup() error {
	t.publishAll(warmupMsgs)
	if !t.drain() {
		return fmt.Errorf("%s: warm-up deliveries did not arrive (%d failed)", t.w.name, t.fail.total())
	}
	return nil
}

// runPaced is the open-loop phase: a fixed schedule of bursts, the messages
// of each burst interval due at its start. The generator sleeps to each
// boundary; a late generator or a blocking Publish is charged to the
// system, because latency is counted from the due instant.
func (t *topo) runPaced(dur time.Duration) (*phaseResult, error) {
	if err := t.warmup(); err != nil {
		return nil, err
	}
	pubs := int64(t.w.publishers)
	rate := int64(t.w.pacedRate) / pubs
	perPub := rate * int64(dur) / int64(time.Second)
	first := t.next[0]

	// Every sample buffer is sized before the clock starts.
	tmp := make([]int64, len(t.in.subjects))
	for i := int64(0); i < perPub; i++ {
		tmp[t.in.subjectOf(first+i)]++
	}
	for _, c := range t.consumers {
		var n int64
		for _, idx := range c.oracle.sub.wantList {
			n += tmp[idx]
		}
		c.lat = make([]latSample, 0, n*pubs)
	}
	call := make([][]int64, pubs)
	late := make([][]int64, pubs)
	for p := range call {
		call[p] = make([]int64, perPub)
		late[p] = make([]int64, 0, int64(dur/burstInterval)+1)
	}

	runtime.GC()
	before := t.snapshot()
	ph := &pacedPhase{first: first, perPub: perPub, rate: rate, t0: nanotime() + int64(2*time.Millisecond)}
	res := &phaseResult{msgs: perPub * pubs, ph: ph}
	t.paced.Store(ph)
	t.published.Store(0)
	res.sampler = t.startSampler(ph.t0, dur)
	stopChurn := t.startChurn(ph.t0, dur)

	var wg sync.WaitGroup
	for p := 0; p < int(pubs); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pc := newPacer()
			defer pc.release()
			lastDue := int64(-1)
			for i := int64(0); i < perPub; i++ {
				due := ph.due(i)
				start := nanotime()
				if due != lastDue {
					pc.sleepUntil(due)
					lastDue = due
					start = nanotime()
					late[p] = append(late[p], start-due)
				}
				t.publish(p, first+i)
				call[p][i] = nanotime() - start
				t.published.Add(1)
			}
			t.next[p] = first + perPub
		}(p)
	}
	wg.Wait()
	res.churnNs = stopChurn()
	ok := t.drain()
	res.sampler.finish()
	res.d = delta{before, t.snapshot()}
	t.paced.Store(nil)
	if !ok {
		return res, fmt.Errorf("%s: paced phase lost deliveries (%d failed)", t.w.name, t.fail.total())
	}
	for _, c := range t.consumers {
		res.lat = append(res.lat, c.lat...)
		c.lat = nil
	}
	for p := range call {
		res.call = append(res.call, call[p]...)
		res.late = append(res.late, late[p]...)
	}
	return res, nil
}

// runSaturated is the closed-loop phase: every publisher keeps its share of
// a satWindow-message token window in flight, a token coming back when the
// slowest consumer host has seen the message.
func (t *topo) runSaturated(dur time.Duration) (*phaseResult, error) {
	if err := t.warmup(); err != nil {
		return nil, err
	}
	window := int64(satWindow / t.w.publishers)
	// A guaranteed publication stays in flight until it is acknowledged:
	// the loop closes over the ledger's pending count as well, at half the
	// window. (Unbounded, the consumer's acknowledgements overrun the
	// 1024-message unicast window, are dropped there, and the
	// retransmissions that follow reach a consumer whose
	// duplicate-suppression ring has already moved on.)
	acked := func() bool { return true }
	if t.w.guaranteed {
		pending := t.pubHost.Metrics().Gauge("ledger.pending")
		acked = func() bool { return pending.Load() <= satWindow/2 }
	}
	runtime.GC()
	res := &phaseResult{}
	before := t.snapshot()
	t0 := nanotime()
	deadline := t0 + int64(dur)
	res.sampler = t.startSampler(t0, dur)
	stopChurn := t.startChurn(t0, dur)

	var wg sync.WaitGroup
	for p := range t.pubBuses {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			first := t.next[p]
			for n := first; ; n++ {
				for n-t.slowest(p) > window || !acked() {
					time.Sleep(200 * time.Microsecond)
				}
				if n%16 == 0 && nanotime() >= deadline {
					t.next[p] = n
					atomic.AddInt64(&res.msgs, n-first)
					return
				}
				t.publish(p, n)
			}
		}(p)
	}
	wg.Wait()
	stopChurn()
	ok := t.drain()
	res.sampler.finish()
	res.d = delta{before, t.snapshot()}
	if !ok {
		return res, fmt.Errorf("%s: saturated phase lost deliveries (%d failed)", t.w.name, t.fail.total())
	}
	return res, nil
}

// slowest is the highest sequence of publisher p that every consumer host
// has delivered.
func (t *topo) slowest(p int) int64 {
	low := t.hostSeen[0][p].Load()
	for h := 1; h < len(t.hostSeen); h++ {
		low = min(low, t.hostSeen[h][p].Load())
	}
	return low
}
