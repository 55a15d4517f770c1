package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestHistoryRateLevelPercentile(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("msgs")
	g := reg.Gauge("depth")
	hi := reg.Histogram("lat")
	h := NewHistory(100 * time.Millisecond)
	h.TrackRate("msgs", c)
	h.TrackLevel("depth", g)
	h.TrackHist("lat", hi)

	now := time.Unix(100, 0)
	c.Add(10)
	g.Set(3)
	hi.Observe(1000 * time.Nanosecond)
	hi.Observe(1000 * time.Nanosecond)
	h.Tick(now)
	c.Add(5)
	g.Set(-2)
	h.Tick(now.Add(100 * time.Millisecond))

	snap := h.Snapshot(0)
	if snap.Ticks != 2 || len(snap.Series) != 3 {
		t.Fatalf("snapshot: ticks=%d series=%d", snap.Ticks, len(snap.Series))
	}
	byName := map[string]SeriesSnapshot{}
	for _, s := range snap.Series {
		byName[s.Name] = s
	}
	rate := byName["msgs"]
	if rate.Kind != SeriesRate || len(rate.Samples) != 2 ||
		rate.Samples[0].V != 10 || rate.Samples[1].V != 5 {
		t.Fatalf("rate series: %+v", rate)
	}
	if got := snap.RatePerSec(rate.Samples[1].V); got != 50 {
		t.Fatalf("RatePerSec(5) at 100ms = %v, want 50", got)
	}
	level := byName["depth"]
	if level.Samples[0].V != 3 || level.Samples[1].V != -2 {
		t.Fatalf("level series: %+v", level)
	}
	lat := byName["lat"]
	if lat.Samples[0].V != 2 || lat.Samples[1].V != 0 {
		t.Fatalf("lat counts: %+v", lat)
	}
	// Two 1000ns observations land in bucket [512,1024); the interpolated
	// p50 must sit inside it. The second (empty) window reports zeros.
	if p := lat.Samples[0].P50; p < 512 || p > 1024 {
		t.Fatalf("windowed p50 = %d, want within [512,1024]", p)
	}
	if lat.Samples[1].P50 != 0 || lat.Samples[1].P99 != 0 {
		t.Fatalf("empty window percentiles: %+v", lat.Samples[1])
	}
	if rate.Samples[0].At != now.UnixNano() {
		t.Fatalf("tick timestamp: %d vs %d", rate.Samples[0].At, now.UnixNano())
	}
}

func TestHistoryWraparound(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	h := NewHistory(time.Millisecond)
	h.TrackRate("n", c)
	now := time.Unix(0, 0)
	const ticks = historySlots + 6
	for i := 0; i < ticks; i++ {
		c.Inc()
		h.Tick(now.Add(time.Duration(i) * time.Millisecond))
	}
	snap := h.Snapshot(0)
	s := snap.Series[0]
	// Only the last historySlots ticks (7 .. ticks) survive, oldest first.
	if snap.Ticks != ticks || len(s.Samples) != historySlots {
		t.Fatalf("wraparound: ticks=%d samples=%d", snap.Ticks, len(s.Samples))
	}
	for i, smp := range s.Samples {
		if want := int64(7 + i); smp.Tick != want {
			t.Fatalf("sample %d tick=%d want %d", i, smp.Tick, want)
		}
		if smp.V != 1 {
			t.Fatalf("sample %d delta=%d want 1", i, smp.V)
		}
	}
	// maxSamples clamps the window further.
	if got := h.Snapshot(2).Series[0].Samples; len(got) != 2 || got[0].Tick != ticks-1 {
		t.Fatalf("maxSamples window: %+v", got)
	}
}

// TestHistoryConcurrentSnapshot races a fast sampler against readers; the
// seq-validated slots must never yield a torn sample (run under -race).
func TestHistoryConcurrentSnapshot(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n")
	g := reg.Gauge("g")
	hi := reg.Histogram("h")
	h := NewHistory(time.Millisecond)
	h.TrackRate("n", c)
	h.TrackLevel("g", g)
	h.TrackHist("h", hi)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // load generator
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			g.Set(int64(i))
			hi.Observe(time.Duration(i%1000) * time.Microsecond)
		}
	}()
	go func() { // sampler at full speed to force laps under the readers
		defer wg.Done()
		now := time.Unix(0, 0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Tick(now.Add(time.Duration(i) * time.Millisecond))
		}
	}()
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		snap := h.Snapshot(0)
		for _, s := range snap.Series {
			last := int64(0)
			for _, smp := range s.Samples {
				if smp.Tick <= last {
					t.Fatalf("series %s: non-monotonic ticks %d after %d", s.Name, smp.Tick, last)
				}
				last = smp.Tick
				if smp.V < 0 && s.Kind != SeriesLevel {
					t.Fatalf("series %s: negative windowed value %d", s.Name, smp.V)
				}
			}
		}
		h.NoteAlarm(AlarmEvent{Kind: "k", Target: "t", Raised: true, At: time.Now()})
	}
	close(stop)
	wg.Wait()
}

func TestHistoryAlarmRing(t *testing.T) {
	h := NewHistory(time.Millisecond)
	at := time.Unix(50, 0)
	const notes = historyAlarmSlots + 2
	for i := 0; i < notes; i++ {
		h.NoteAlarm(AlarmEvent{Kind: "slow-consumer", Target: "c", Raised: i%2 == 0,
			Value: int64(i), At: at.Add(time.Duration(i) * time.Second)})
	}
	snap := h.Snapshot(0)
	if snap.AlarmTotal != notes || len(snap.Alarms) != historyAlarmSlots {
		t.Fatalf("alarm ring: total=%d len=%d", snap.AlarmTotal, len(snap.Alarms))
	}
	// Oldest-first and the ring kept the last historyAlarmSlots (values 2 ..).
	for i, e := range snap.Alarms {
		if e.Value != int64(2+i) {
			t.Fatalf("alarm %d: %+v", i, e)
		}
	}
	if !snap.Alarms[0].Raised || snap.Alarms[1].Raised {
		t.Fatalf("alarm edges: %+v", snap.Alarms)
	}
}

// BenchmarkHistoryTick measures one sampling pass over a realistic series
// population; the steady-state tick must not allocate.
func BenchmarkHistoryTick(b *testing.B) {
	reg := NewRegistry()
	h := NewHistory(250 * time.Millisecond)
	for i := 0; i < 8; i++ {
		name := "ctr" + string(rune('a'+i))
		h.TrackRate(name, reg.Counter(name))
	}
	for i := 0; i < 4; i++ {
		name := "g" + string(rune('a'+i))
		h.TrackLevel(name, reg.Gauge(name))
	}
	for i := 0; i < 4; i++ {
		name := "h" + string(rune('a'+i))
		h.TrackHist(name, reg.Histogram(name))
	}
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Tick(now.Add(time.Duration(i) * time.Millisecond))
	}
}
