// Package telemetry is the bus's self-observation substrate: a lock-cheap
// metrics registry (atomic counters, gauges, and bounded latency
// histograms) adopted by the delivery-semantics layers in place of their
// formerly scattered ad-hoc counters, plus the builders that turn a
// registry snapshot into a self-describing mop object for publication on
// the reserved "_sys.>" subjects.
//
// The design follows the paper's own principles applied to the bus itself:
// the bus can describe *itself* over itself. Runtime meta-data (counters,
// latency quantiles) is exposed through the system's regular object model
// (P2), so any anonymous subscriber — a monitor that has never linked
// against this package — can decode and render it (P4).
//
// Hot-path cost: one atomic add per counter event, two atomic adds per
// histogram observation. Registration (name lookup) is amortised away by
// holding *Counter/*Gauge/*Histogram handles; components resolve their
// instruments once at construction time.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric kinds in snapshots. It is the string a SysMetric
// carries on the wire, so a kind from a newer node reads back as itself.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing event count. The zero value is
// unusable; obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed level (queue depth, pending entries).
type Gauge struct {
	v atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a named set of metrics. Instruments are get-or-create by
// name: two components asking for the same name share the instrument (the
// host-level aggregate), which is what the "_sys.stats.<host>" export
// publishes. Safe for concurrent use; instrument operations never take the
// registry lock.
type Registry struct {
	mu    sync.Mutex
	order []string // registration order, for stable snapshots
	items map[string]any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: make(map[string]any)}
}

// Counter returns the named counter, creating it on first use. A name
// already registered as a different kind panics: metric names are a
// process-wide contract and a kind clash is a programming error.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(r, name, func() *Histogram { return &Histogram{} })
}

func lookup[T any](r *Registry, name string, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.items[name]; ok {
		t, ok := got.(T)
		if !ok {
			panic("telemetry: metric " + name + " re-registered with a different kind")
		}
		return t
	}
	t := mk()
	r.items[name] = t
	r.order = append(r.order, name)
	return t
}

// Metric is one metric's value in a snapshot, and the SysMetric kind.
type Metric struct {
	Name  string `mop:"name"`
	Kind  Kind   `mop:"kind"`
	Value int64  `mop:"value"` // counter count (as int64) or gauge level
	// Histogram summary; zero for counters and gauges.
	Count  uint64  `mop:"count"`
	MeanNs float64 `mop:"mean_ns"`
	P50Ns  float64 `mop:"p50_ns"`
	P95Ns  float64 `mop:"p95_ns"`
	P99Ns  float64 `mop:"p99_ns"`
}

// String renders one metric as a console line.
func (m Metric) String() string {
	if m.Kind == KindHistogram {
		return fmt.Sprintf("%s (%s): count=%d mean=%.0fns p50=%.0fns p95=%.0fns p99=%.0fns",
			m.Name, m.Kind, m.Count, m.MeanNs, m.P50Ns, m.P95Ns, m.P99Ns)
	}
	return fmt.Sprintf("%s (%s): %d", m.Name, m.Kind, m.Value)
}

// Snapshot returns every metric's current value, sorted by name.
//
// Consistency: counters and gauges are read with single atomic loads in
// one pass. Because counters are monotone, the snapshot is a consistent
// cut bounded by the registry's state at the start and end of the call —
// related counters can differ only by events that were in flight during
// the read, never by reordering. (Histograms snapshot count/sum/buckets
// per instrument with the same property.)
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	items := make([]any, len(names))
	for i, n := range names {
		items[i] = r.items[n]
	}
	r.mu.Unlock()
	out := make([]Metric, 0, len(names))
	for i, name := range names {
		switch m := items[i].(type) {
		case *Counter:
			out = append(out, Metric{Name: name, Kind: KindCounter, Value: int64(m.Load())})
		case *Gauge:
			out = append(out, Metric{Name: name, Kind: KindGauge, Value: m.Load()})
		case *Histogram:
			s := m.Summary()
			out = append(out, Metric{
				Name: name, Kind: KindHistogram,
				Count: s.Count, MeanNs: s.MeanNs,
				P50Ns: s.P50Ns, P95Ns: s.P95Ns, P99Ns: s.P99Ns,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.items)
}
