package main

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"infobus/internal/mesh"
	"infobus/internal/mop"
	"infobus/internal/telemetry"
	"infobus/internal/wire"
)

// boundKinds is every kind the bus publishes about itself: what a monitor
// may be handed on "_sys.>".
func boundKinds() []*mop.Bound {
	return append(append([]*mop.Bound(nil), telemetry.Schema.Kinds()...), mesh.Schema.Kinds()...)
}

// fill sets every field of v (a struct of a bound kind) to a random value of
// its type: short strings, full-range integers, instants as the wire decodes
// them (UTC), lists of 0 to 3 elements.
func fill(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		v.SetString(string(b))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64() * 1e6)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(rng.Uint64()))
	case reflect.Uint64:
		v.SetUint(rng.Uint64())
	case reflect.Slice:
		n := rng.Intn(4)
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fill(rng, v.Index(i))
		}
	case reflect.Struct:
		if _, isTime := v.Interface().(time.Time); isTime {
			v.Set(reflect.ValueOf(time.Unix(0, rng.Int63()).UTC()))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			fill(rng, v.Field(i))
		}
	}
}

// overWire marshals o and decodes it through a registry that has never seen
// its classes, as a monitor's first sight of a kind.
func overWire(t testing.TB, o *mop.Object) *mop.Object {
	t.Helper()
	payload, err := wire.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	v, err := wire.Unmarshal(payload, mop.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return v.(*mop.Object)
}

// TestKindsRoundTrip: for every bound kind, a random struct rendered as an
// object, marshalled, decoded through a cold registry and read back is the
// struct it was.
func TestKindsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seen := map[string]bool{}
	for _, k := range boundKinds() {
		name := k.Type().Name()
		seen[name] = true
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				in, out := k.New(), k.New()
				fill(rng, reflect.ValueOf(in).Elem())
				if !k.ReadInto(overWire(t, k.ObjectOf(in)), out) || !reflect.DeepEqual(in, out) {
					t.Fatalf("read back %+v\nwant      %+v", out, in)
				}
			}
		})
	}
	for _, name := range []string{"SysMetric", "SysStats", "SysPong", "SysAlarm", "SysDump", "SysTraceHop", "SysTrace",
		"SysSample", "SysSeries", "SysFamily", "SysHistory", "MeshLink", "MeshHello", "MeshStatus"} {
		if !seen[name] {
			t.Errorf("kind %s is not bound", name)
		}
	}
	if len(seen) != 14 {
		t.Errorf("%d kinds bound, 14 named above: name the new one", len(seen))
	}
}

// FuzzSysRead: whatever decodes from arbitrary bytes, reading it into every
// Sys and Mesh struct never panics, and what the mesh structs then hold is
// within their declared bounds.
func FuzzSysRead(f *testing.F) {
	rng := rand.New(rand.NewSource(21))
	for _, k := range boundKinds() {
		in := k.New()
		fill(rng, reflect.ValueOf(in).Elem())
		payload, err := wire.Marshal(k.ObjectOf(in))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	const tokenCap = 256 // mesh's maxTokenLen
	links := func(t *testing.T, links []mesh.LinkInfo) {
		if len(links) > mesh.MaxAdLinks {
			t.Fatalf("link cap breached: %d", len(links))
		}
		for _, l := range links {
			if len(l.Patterns) > mesh.MaxAdPatterns || len(l.Name) > tokenCap || len(l.State) > tokenCap {
				t.Fatalf("link bounds breached: %d patterns, name %d, state %d", len(l.Patterns), len(l.Name), len(l.State))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wire.Unmarshal(data, mop.NewRegistry())
		if err != nil {
			return
		}
		o, _ := v.(*mop.Object)
		for _, k := range boundKinds() {
			p := k.New()
			if k.ReadInto(o, p) != (o != nil && o.Type().Name() == k.Type().Name()) {
				t.Fatalf("%s read a %v", k.Type().Name(), o)
			}
			switch ad := p.(type) {
			case *mesh.HelloAd:
				links(t, ad.Links)
				if len(ad.Router) > tokenCap || len(ad.Root) > tokenCap || len(ad.Parent) > tokenCap {
					t.Fatalf("identifier cap breached: %+v", ad)
				}
			case *mesh.StatusAd:
				links(t, ad.Links)
				if len(ad.Node) > tokenCap || len(ad.Router) > tokenCap || len(ad.Root) > tokenCap || len(ad.Parent) > tokenCap {
					t.Fatalf("identifier cap breached: %+v", ad)
				}
			case *mesh.LinkInfo:
				links(t, []mesh.LinkInfo{*ad})
			}
		}
	})
}

// TestLinesReadPublishedStructs: each renderer reads the struct its kind is
// published from — over the wire, through a cold registry — and an object of
// another kind is not its business (the caller falls through to
// infobus.Print).
func TestLinesReadPublishedStructs(t *testing.T) {
	at := time.Date(2026, 10, 5, 12, 0, 0, 0, time.UTC)
	m := &monitor{rates: make(map[string]*snapshot)}
	stats := func(at time.Time, inbound int64) *mop.Object {
		return overWire(t, telemetry.SysStats.Object(&telemetry.Stats{Node: "h1", At: at, Metrics: []telemetry.Metric{
			{Name: "daemon.inbound", Kind: telemetry.KindCounter, Value: inbound},
			{Name: "reliable.bcast.retransmits", Kind: telemetry.KindCounter, Value: inbound / 100},
			{Name: "daemon.lat", Kind: telemetry.KindHistogram, Count: 9},
		}}))
	}
	if line, ok := m.statsLine(stats(at, 1000)); !ok || line != "[stats h1] baseline snapshot (2 metrics)" {
		t.Errorf("first stats line = %q, %v", line, ok)
	}
	if line, ok := m.statsLine(stats(at.Add(2*time.Second), 3000)); !ok || line != "[stats h1] 1000 msgs/s  0 B/s  10 retx/s (over 2.0s)" {
		t.Errorf("second stats line = %q, %v", line, ok)
	}

	alarm := telemetry.AlarmEvent{Node: "h1", Kind: "slow-consumer", Target: "c1", Raised: true, Value: 9, Threshold: 5, At: at}
	if line, ok := alarmLine(overWire(t, telemetry.SysAlarm.Object(&alarm))); !ok ||
		line != "[alarm h1] RAISE slow-consumer:c1 value=9 threshold=5 at 12:00:00.000" {
		t.Errorf("alarm line = %q, %v", line, ok)
	}
	// A publisher of another build: no threshold, one attribute more.
	older := mop.MustNewClass("SysAlarm", nil, []mop.Attr{
		{Name: "node", Type: mop.String}, {Name: "kind", Type: mop.String}, {Name: "severity", Type: mop.Int}, {Name: "raised", Type: mop.Bool}}, nil)
	o := mop.MustNew(older).MustSet("node", "h0").MustSet("kind", "ledger-backlog").MustSet("severity", int64(3))
	if line, ok := alarmLine(overWire(t, o)); !ok || line != "[alarm h0] CLEAR ledger-backlog value=0 threshold=0" {
		t.Errorf("other build's alarm line = %q, %v", line, ok)
	}

	dump := telemetry.Dump{Node: "h1", At: at, Events: 2, Text: "one\ntwo\n"}
	if text, ok := dumpText(overWire(t, telemetry.SysDump.Object(&dump))); !ok || text != "[dump h1] 2 events recorded\n  one\n  two\n" {
		t.Errorf("dump text = %q, %v", text, ok)
	}

	hist := telemetry.HistorySnapshot{Node: "h1", At: at, IntervalNs: int64(time.Second),
		Series: []telemetry.SeriesSnapshot{
			{Name: "bus.published", Kind: telemetry.SeriesRate, Samples: []telemetry.Sample{{V: 10}, {V: 30}}},
			{Name: "daemon.lane_depth", Kind: telemetry.SeriesLevel, Samples: []telemetry.Sample{{V: 4}, {V: 7}}},
			{Name: "ledger.commit_ns", Kind: telemetry.SeriesPercentile, Samples: []telemetry.Sample{{V: 3, P95: 2000}, {}}},
		},
		Alarms:   []telemetry.AlarmEvent{alarm},
		Families: []telemetry.TopKEntry{{Family: "quotes", Msgs: 12}},
	}
	line, ok := m.historyLine(overWire(t, telemetry.SysHistory.Object(&hist)))
	if want := "h1 20 - - 7 2µs - quotes(12) [alarm edge h1] RAISE slow-consumer:c1 value=9 at 12:00:00.000"; !ok ||
		strings.Join(strings.Fields(line), " ") != want {
		t.Errorf("history line = %q, %v\nwant fields %q", line, ok, want)
	}

	status := mesh.StatusAd{Node: "router-ra", Router: "ra", Root: "ra", Links: []mesh.LinkInfo{
		{Name: "S1", State: "forwarding", Peers: 1, Patterns: []string{"a.>", "b.*", "c", "d", "bad..pattern"}}}}
	line, ok = m.meshLine(overWire(t, mesh.MeshStatus.Object(&status)))
	if want := "ra ra 0 - S1[forwarding/1 a.>,b.*,c,+1]"; !ok || !strings.HasSuffix(strings.Join(strings.Fields(line), " "), want) {
		t.Errorf("mesh line = %q, %v\nwant suffix %q", line, ok, want)
	}

	for name, reads := range map[string]bool{
		"stats":   func() bool { _, ok := m.statsLine(overWire(t, telemetry.SysDump.Object(&dump))); return ok }(),
		"alarm":   func() bool { _, ok := alarmLine(overWire(t, telemetry.SysDump.Object(&dump))); return ok }(),
		"dump":    func() bool { _, ok := dumpText(overWire(t, telemetry.SysAlarm.Object(&alarm))); return ok }(),
		"history": func() bool { _, ok := m.historyLine(int64(5)); return ok }(),
		"mesh":    func() bool { _, ok := m.meshLine("not an object"); return ok }(),
	} {
		if reads {
			t.Errorf("the %s renderer read an object of another kind", name)
		}
	}
}
