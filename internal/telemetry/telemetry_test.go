package telemetry

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"infobus/internal/mop"
	"infobus/internal/wire"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.events")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("x.depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name must return the same histogram")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash must panic")
		}
	}()
	r.Gauge("a") // registered as a counter above
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations spread 1..1000 µs: p50 ≈ 500µs, p99 ≈ 990µs.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Summary()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	mean := time.Duration(s.MeanNs)
	if mean < 400*time.Microsecond || mean > 600*time.Microsecond {
		t.Errorf("mean = %v, want ~500µs", mean)
	}
	// Power-of-two buckets: estimates must land within one bucket (2x) of
	// the true quantile.
	checks := []struct {
		got  float64
		want time.Duration
	}{
		{s.P50Ns, 500 * time.Microsecond},
		{s.P95Ns, 950 * time.Microsecond},
		{s.P99Ns, 990 * time.Microsecond},
	}
	for i, c := range checks {
		lo, hi := float64(c.want)/2, float64(c.want)*2
		if c.got < lo || c.got > hi {
			t.Errorf("quantile %d = %v, want within [%v, %v]",
				i, time.Duration(c.got), time.Duration(lo), time.Duration(hi))
		}
	}
	if s.P50Ns > s.P95Ns || s.P95Ns > s.P99Ns {
		t.Errorf("quantiles not monotone: %+v", s)
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if s := h.Summary(); s.Count != 0 || s.P99Ns != 0 {
		t.Fatalf("empty histogram summary = %+v", s)
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamped, must not corrupt buckets
	s := h.Summary()
	if s.Count != 2 || s.P99Ns != 0 {
		t.Fatalf("zero-valued summary = %+v", s)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	s := h.Summary()
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	if time.Duration(s.MeanNs) != time.Millisecond {
		t.Errorf("mean = %v, want exactly 1ms (exact sum)", time.Duration(s.MeanNs))
	}
	// All quantiles fall in the single occupied bucket [2^19ns, 2^20ns).
	for i, q := range []float64{s.P50Ns, s.P95Ns, s.P99Ns} {
		if q < float64(int64(1)<<19) || q > float64(int64(1)<<20) {
			t.Errorf("quantile %d = %v outside the sample's bucket", i, time.Duration(q))
		}
	}
}

func TestHistogramAllOneBucket(t *testing.T) {
	var h Histogram
	// 100 identical observations: every quantile interpolates within the
	// same bucket, so p50 < p95 < p99 but all within a 2x band of the value.
	for i := 0; i < 100; i++ {
		h.Observe(700 * time.Nanosecond) // bucket [512ns, 1024ns)
	}
	s := h.Summary()
	if s.Count != 100 || s.MeanNs != 700 {
		t.Fatalf("summary = %+v", s)
	}
	for i, q := range []float64{s.P50Ns, s.P95Ns, s.P99Ns} {
		if q < 512 || q > 1024 {
			t.Errorf("quantile %d = %.0fns outside bucket [512,1024)", i, q)
		}
	}
	if !(s.P50Ns <= s.P95Ns && s.P95Ns <= s.P99Ns) {
		t.Errorf("quantiles not monotone within bucket: %+v", s)
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(3)
	r.Gauge("a.first").Set(-2)
	r.Histogram("m.mid").Observe(time.Millisecond)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics", len(snap))
	}
	if snap[0].Name != "a.first" || snap[1].Name != "m.mid" || snap[2].Name != "z.last" {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	if snap[0].Kind != KindGauge || snap[0].Value != -2 {
		t.Errorf("gauge metric = %+v", snap[0])
	}
	if snap[1].Kind != KindHistogram || snap[1].Count != 1 {
		t.Errorf("histogram metric = %+v", snap[1])
	}
	if snap[2].Kind != KindCounter || snap[2].Value != 3 {
		t.Errorf("counter metric = %+v", snap[2])
	}
}

// TestRegistryConcurrent proves the registry race-clean under `go test
// -race`: concurrent instrument creation, updates, and snapshots.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared.count")
			h := r.Histogram("shared.lat")
			g := r.Gauge(fmt.Sprintf("worker.%d", w))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(time.Duration(i))
				g.Set(int64(i))
				if i%500 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared.count").Load(); got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared.lat").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestSysStatsObjectRoundTrip(t *testing.T) {
	reg := mop.NewRegistry()
	if err := Schema.Define(reg); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-definition (shared registries in tests).
	stats, _ := reg.Lookup("SysStats")
	if err := Schema.Define(reg); err != nil {
		t.Fatal(err)
	}
	if again, _ := reg.Lookup("SysStats"); again != stats || reg.Len() != len(Schema.Kinds()) {
		t.Fatalf("re-define: %v vs %v, %d classes", again, stats, reg.Len())
	}
	r := NewRegistry()
	r.Counter("daemon.inbound").Add(42)
	r.Histogram("daemon.lat").Observe(3 * time.Millisecond)
	at := time.Unix(100, 0).UTC() // as the wire decodes a time
	in := Stats{Node: "node-1", At: at, Uptime: 5 * time.Second, Metrics: r.Snapshot()}
	obj := SysStats.Object(&in)
	if got := obj.MustGet("node"); got != "node-1" {
		t.Errorf("node = %v", got)
	}
	metrics := obj.MustGet("metrics").(mop.List)
	if len(metrics) != 2 {
		t.Fatalf("metrics = %d entries", len(metrics))
	}
	m0 := metrics[0].(*mop.Object)
	if m0.MustGet("name") != "daemon.inbound" || m0.MustGet("value") != int64(42) {
		t.Errorf("metric 0 = %v", m0)
	}
	// The generic print utility must render it (what ibmon shows of a kind
	// it does not know).
	if s := mop.Sprint(obj); len(s) == 0 {
		t.Error("Sprint produced nothing")
	}
	// Back through the wire and a cold registry into the struct.
	payload, err := wire.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	v, err := wire.UnmarshalWith(payload, mop.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out Stats
	if !SysStats.Read(v.(*mop.Object), &out) || !reflect.DeepEqual(out, in) {
		t.Errorf("read back %+v, want %+v", out, in)
	}
	pong := SysPong.Object(&Pong{Node: "node-1", At: at, Nonce: 7})
	if pong.MustGet("nonce") != int64(7) {
		t.Errorf("pong = %v", pong)
	}
}

// TestStatsObjectAllocBudget: building a node's SysStats from its snapshot
// through the binder (40 counters, 40 gauges, 40 histograms) costs one block
// per object, its header and slots together, plus what boxing the values
// costs: 586 measured. The kind reaches the binder as a string, so it boxes
// like any other.
func TestStatsObjectAllocBudget(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 40; i++ {
		r.Counter(fmt.Sprintf("budget.counter%02d", i)).Add(uint64(1000 + i))
		r.Gauge(fmt.Sprintf("budget.gauge%02d", i)).Set(int64(i) - 20)
		h := r.Histogram(fmt.Sprintf("budget.hist%02d", i))
		for _, ns := range []int64{1000, 2000, 4000, 1 << 20} {
			h.Observe(time.Duration(ns))
		}
	}
	st := Stats{Node: "node-1", At: time.Unix(100, 0), Uptime: 5 * time.Second, Metrics: r.Snapshot()}
	var obj *mop.Object
	got := testing.AllocsPerRun(200, func() { obj = SysStats.Object(&st) })
	const budget = 586
	if got > budget {
		t.Errorf("SysStats of %d metrics: %v allocs, budget %d", len(st.Metrics), got, budget)
	}
	if payload, err := wire.Marshal(obj); err != nil || len(payload) != 9362 {
		t.Errorf("payload %d bytes (%v), the hand-written builder's was 9362", len(payload), err)
	}
}
