package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// The flight-data tier: fixed-window time-series history over the live
// registry instruments. A single sampler goroutine ticks every Interval
// and snapshots each tracked counter/gauge/histogram into a per-series
// ring of historySlots samples (≈64 s of history per series at 250 ms).
// Rings are single-writer and read lock-free: every
// slot carries the tick sequence that wrote it, so readers detect and
// skip slots the sampler is concurrently recycling instead of locking it
// out. The steady-state tick performs no allocation — all ring and
// scratch storage is laid out at Track time — so an idle bus with history
// enabled stays within the PR 3 idle-overhead budget.
//
// Alarm raise/clear edges (satellite of the same PR) are noted into a
// separate bounded ring, timestamped on the same clock as the samples, so
// a monitor reading "_sys.history" sees the edge aligned with the metric
// window that tripped it.

// Series kinds, as a SysSeries carries them on the wire.
type SeriesKind string

const (
	// SeriesRate samples a counter: each slot's V is the count delta over
	// that tick window (rate = V / Interval).
	SeriesRate SeriesKind = "rate"
	// SeriesLevel samples a gauge: each slot's V is the level at tick time.
	SeriesLevel SeriesKind = "level"
	// SeriesPercentile samples a histogram: each slot holds the windowed
	// observation count (V) and interpolated P50/P95/P99 of observations
	// that arrived during that tick window (bucket-snapshot diffing).
	SeriesPercentile SeriesKind = "percentile"
)

// historySlots is the ring length per series: ≈64 s at a 250 ms interval.
const historySlots = 256

// historyAlarmSlots bounds the alarm-edge ring.
const historyAlarmSlots = 64

// histSlot is one ring sample. seq is the 1-based tick that wrote it;
// readers reload seq after reading the values and discard the slot when it
// moved (the sampler lapped them mid-read).
type histSlot struct {
	seq        atomic.Uint64
	v          atomic.Int64
	p50        atomic.Int64
	p95        atomic.Int64
	p99        atomic.Int64
	settledSeq atomic.Uint64 // seq re-stamped after the values: both match ⇒ consistent
}

// series is one tracked instrument's ring. Only the sampler writes ring
// slots and the prev* scratch.
type series struct {
	name string
	kind SeriesKind
	ctr  *Counter
	gag  *Gauge
	gagF func() int64 // SeriesLevel alternative source
	hist *Histogram

	ring []histSlot
	// Sampler scratch: previous cumulative state for windowed deltas.
	prevCount uint64
	prevBkt   [histBuckets]uint64
}

// History is the flight-data recorder: call Track* once per signal at
// wiring time, then have one goroutine call Tick every Interval (the node's
// sysagent does; tests step it by hand).
type History struct {
	interval time.Duration

	mu     sync.Mutex // guards series registration and the alarm ring
	series []*series

	ticks  atomic.Uint64 // completed ticks; slot index = (tick-1) % historySlots
	tickAt []atomic.Int64

	alarms     []AlarmEvent
	alarmNext  int
	alarmTotal uint64
}

// NewHistory creates a history tier sampled every interval, with nothing
// tracked yet.
func NewHistory(interval time.Duration) *History {
	return &History{
		interval: interval,
		tickAt:   make([]atomic.Int64, historySlots),
		alarms:   make([]AlarmEvent, 0, historyAlarmSlots),
	}
}

// Interval returns the sampling tick.
func (h *History) Interval() time.Duration { return h.interval }

// Slots returns the ring length.
func (h *History) Slots() int { return historySlots }

// TrackRate samples c's per-tick delta into a SeriesRate ring.
func (h *History) TrackRate(name string, c *Counter) {
	h.add(&series{name: name, kind: SeriesRate, ctr: c})
}

// TrackLevel samples g's level into a SeriesLevel ring.
func (h *History) TrackLevel(name string, g *Gauge) {
	h.add(&series{name: name, kind: SeriesLevel, gag: g})
}

// TrackLevelFunc samples a level supplied by f, which must be safe to call
// from the sampler goroutine and should not allocate.
func (h *History) TrackLevelFunc(name string, f func() int64) {
	h.add(&series{name: name, kind: SeriesLevel, gagF: f})
}

// TrackHist samples hist's windowed count and P50/P95/P99 into a
// SeriesPercentile ring.
func (h *History) TrackHist(name string, hist *Histogram) {
	h.add(&series{name: name, kind: SeriesPercentile, hist: hist})
}

func (h *History) add(s *series) {
	s.ring = make([]histSlot, historySlots)
	h.mu.Lock()
	h.series = append(h.series, s)
	h.mu.Unlock()
}

// NoteAlarm records an alarm edge into the bounded edge ring. Safe from
// any goroutine; allocation-free (the strings are the engine's own). The
// window keeps what happened, not how the watch was configured: Threshold
// is 0 in every edge a SysHistory carries.
func (h *History) NoteAlarm(ev AlarmEvent) {
	ev.Threshold = 0
	h.mu.Lock()
	if len(h.alarms) < cap(h.alarms) {
		h.alarms = append(h.alarms, ev)
	} else {
		h.alarms[h.alarmNext] = ev
		h.alarmNext = (h.alarmNext + 1) % cap(h.alarms)
	}
	h.alarmTotal++
	h.mu.Unlock()
}

// Tick performs one sampling pass at the given time. Not safe for
// concurrent Tick calls (single writer), but safe against concurrent
// readers and Track/NoteAlarm.
func (h *History) Tick(now time.Time) {
	tick := h.ticks.Load() + 1
	slot := int((tick - 1) % historySlots)
	h.tickAt[slot].Store(now.UnixNano())
	h.mu.Lock()
	ss := h.series
	h.mu.Unlock()
	for _, s := range ss {
		sl := &s.ring[slot]
		sl.seq.Store(tick)
		switch s.kind {
		case SeriesRate:
			cur := s.ctr.Load()
			sl.v.Store(int64(cur - s.prevCount))
			s.prevCount = cur
		case SeriesLevel:
			if s.gag != nil {
				sl.v.Store(s.gag.Load())
			} else {
				sl.v.Store(s.gagF())
			}
		case SeriesPercentile:
			var win [histBuckets]uint64
			var total uint64
			for i := range s.hist.bkt {
				c := s.hist.bkt[i].Load()
				win[i] = c - s.prevBkt[i]
				s.prevBkt[i] = c
				total += win[i]
			}
			sl.v.Store(int64(total))
			if total == 0 {
				sl.p50.Store(0)
				sl.p95.Store(0)
				sl.p99.Store(0)
			} else {
				sl.p50.Store(int64(quantile(&win, total, 0.50)))
				sl.p95.Store(int64(quantile(&win, total, 0.95)))
				sl.p99.Store(int64(quantile(&win, total, 0.99)))
			}
		}
		sl.settledSeq.Store(tick)
	}
	h.ticks.Store(tick)
}

// Sample is one tick's values for a series (the SysSample kind); field
// meaning depends on the series kind (see SeriesKind).
type Sample struct {
	Tick int64 `mop:"tick"` // tick sequence, 1-based
	At   int64 `mop:"at"`   // unix nanoseconds of the tick
	V    int64 `mop:"value"`
	P50  int64 `mop:"p50"`
	P95  int64 `mop:"p95"`
	P99  int64 `mop:"p99"`
}

// SeriesSnapshot is one series' readable window (the SysSeries kind).
type SeriesSnapshot struct {
	Name    string     `mop:"name"`
	Kind    SeriesKind `mop:"kind"`
	Samples []Sample   `mop:"samples"` // oldest first
}

// HistorySnapshot is a consistent-enough view of the whole tier: each
// sample is individually consistent (seq-validated), the window is the
// last ≤historySlots ticks at the time of the call. It is the SysHistory kind:
// History.Snapshot fills the window, the publishing node the rest.
type HistorySnapshot struct {
	Node       string           `mop:"node"` // set by the publisher
	At         time.Time        `mop:"at"`   // set by the publisher
	IntervalNs int64            `mop:"interval_ns"`
	Ticks      uint64           `mop:"ticks"`
	Series     []SeriesSnapshot `mop:"series"`
	Alarms     []AlarmEvent     `mop:"alarms"`      // oldest first
	AlarmTotal uint64           `mop:"alarm_total"` // lifetime edge count (ring may have dropped some)
	Families   []TopKEntry      `mop:"families"`    // set by the publisher
}

// Snapshot copies the readable window of every series plus the alarm-edge
// ring. maxSamples>0 limits each series to its most recent maxSamples
// ticks (0 = full window).
func (h *History) Snapshot(maxSamples int) HistorySnapshot {
	h.mu.Lock()
	ss := make([]*series, len(h.series))
	copy(ss, h.series)
	alarms := append([]AlarmEvent(nil), h.alarms[h.alarmNext:]...)
	alarms = append(alarms, h.alarms[:h.alarmNext]...)
	alarmTotal := h.alarmTotal
	h.mu.Unlock()

	out := HistorySnapshot{
		IntervalNs: int64(h.interval),
		Ticks:      h.ticks.Load(),
		Alarms:     alarms,
		AlarmTotal: alarmTotal,
	}
	n := min(int(out.Ticks), historySlots)
	if maxSamples > 0 && n > maxSamples {
		n = maxSamples
	}
	first := out.Ticks - uint64(n) + 1 // oldest tick still expected live
	out.Series = make([]SeriesSnapshot, 0, len(ss))
	for _, s := range ss {
		snap := SeriesSnapshot{Name: s.name, Kind: s.kind, Samples: make([]Sample, 0, n)}
		for tick := first; tick <= out.Ticks; tick++ {
			slot := &s.ring[(tick-1)%historySlots]
			// Seqlock read: settledSeq==tick means tick's write finished;
			// re-checking seq==tick afterwards means no later lap began
			// before the value loads, so the sample is untorn.
			if slot.settledSeq.Load() != tick {
				continue // series registered after this tick, or mid-write
			}
			smp := Sample{
				Tick: int64(tick),
				At:   h.tickAt[(tick-1)%historySlots].Load(),
				V:    slot.v.Load(),
				P50:  slot.p50.Load(),
				P95:  slot.p95.Load(),
				P99:  slot.p99.Load(),
			}
			if slot.seq.Load() != tick {
				continue // sampler lapped this slot while we read it
			}
			snap.Samples = append(snap.Samples, smp)
		}
		out.Series = append(out.Series, snap)
	}
	return out
}

// ratePerSec converts a per-tick delta to an events/second rate.
func (s HistorySnapshot) RatePerSec(v int64) float64 {
	if s.IntervalNs <= 0 {
		return 0
	}
	return float64(v) * float64(time.Second) / float64(s.IntervalNs)
}
