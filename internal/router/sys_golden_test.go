package router

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/core"
	"infobus/internal/mop"
	"infobus/internal/reliable"
	"infobus/internal/telemetry"
	"infobus/internal/wire"
)

// sysGolden pins what a node puts on the wire for each kind of "_sys"
// object: the subject, and the SHA-256 and length of the payload after
// normalisation. Captured by running this same test body at commit e4d15fb,
// against the three host agents and the router's own publish functions that
// internal/sysagent replaced; host/stats re-captured when the daemon gained
// daemon.interest_patterns and daemon.interest_widened (two more entries of
// the same shape, nothing else moved). router/stats was re-derived once, at
// the commit after 776367a that made the mesh every router's only interest
// protocol: its five "mesh.*" counters are now in every router's registry,
// and with those five entries taken out of the decoded object the payload
// is byte for byte the 3590-byte e4d15fb golden (sha 07672b3c…). The alarm,
// dump and history goldens did not move; router/history was the mesh
// router's, which is now the only kind. Re-derived the same way when the
// interest-table bounds got their counter: with the one
// "mesh.interest_capped" entry taken out, the payload is the 3991-byte
// golden it replaced (sha 0146be02…).
var sysGolden = map[string]string{
	"host/interest":  "0403095f7379732e64756d700c5f7379732e686973746f7279095f7379732e70696e67",
	"host/stats":     "_sys.stats.golden-host 4986 995740194d5a0982644026408f85e1535e46837b00c38af8dfc4d60336e8a2c7",
	"host/alarm":     "_sys.alarm.golden-host.golden-alarm 126 01473b4946845e0df97bdceea0f6dce9ce9cb233fba3cddead905c01877bc92c",
	"host/dump":      "_sys.dumped.golden-host 252 9cdc01381df1e6a6f27dcbbf1acde62afd1d0c377dbed8191a3cea1155608f02",
	"host/history":   "_sys.history.golden-host 1484 2f4ae75864aa7851d1b2221dd283b9bbbd3a27195bf84351ce3ab375933688bc",
	"host/trace":     "_sys.trace.golden-host 158 7655a7a130d54978486c1b1a85a7acb6788363099e48d6111243bdebecc875c5",
	"router/stats":   "_sys.stats.router-golden 4073 652cd79b1c26e7110722bb5e731466eacfe8c2bd1f7a12aaebd7a673680726fc",
	"router/alarm":   "_sys.alarm.router-golden.golden-alarm 128 48e67d1af0f77077290a990ab210dda5c4640fdcecee3255b285ebaa52025ecd",
	"router/dump":    "_sys.dumped.router-golden 254 e849777f9878491dee9034a0abe59a89890201766cca8e63727fbbca05abc1b2",
	"router/history": "_sys.history.router-golden 778 4f5e6f110eef700d2cdfc582c0d1806b838ef45a5d25c277bed8f3f66cb462e7",
}

// goldenTime is the one instant every clock reading is normalised to, and
// the instant the test's own engine and sampler ticks are stamped with.
var goldenTime = time.Unix(0, goldenAt)

// quorumStamp is the quorum-ack instant the test's guarantee gate reports.
const quorumStamp = goldenAt + 12345

// goldenMetrics returns a registry holding the instruments whose values the
// goldens keep (every other metric's value depends on protocol timing and is
// zeroed before comparison; its name, kind and position are not).
func goldenMetrics() *telemetry.Registry {
	m := telemetry.NewRegistry()
	m.Counter("golden.counter").Add(42)
	m.Gauge("golden.gauge").Set(-7)
	for _, ns := range []int64{1000, 2000, 4000, 1 << 20} {
		m.Histogram("golden.hist").Observe(time.Duration(ns))
	}
	return m
}

// published returns, in order, the payloads of the data envelopes the
// segment's node has published on exactly subj.
func (s *captureSegment) published(subj string) [][]byte {
	var out [][]byte
	for _, p := range s.payloads() {
		env, err := busproto.Decode(p)
		if err == nil && env.Subject == subj && env.Base() == busproto.KindPublish {
			out = append(out, env.Payload)
		}
	}
	return out
}

// awaitSys waits for the first publication on subj and returns its payload.
func awaitSys(t *testing.T, seg *captureSegment, subj string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if got := seg.published(subj); len(got) > 0 {
			return got[0]
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("nothing published on %s", subj)
	return nil
}

var dumpStamp = regexp.MustCompile(`\d\d:\d\d:\d\d\.\d{6}`)

// checkSysGolden waits for the node's first publication on subj, decodes
// its payload, checks it is the wire encoding of its own decoding (so re-encoding after normalisation compares
// bytes, not structure), range-checks every clock reading against [lo, hi]
// and normalises it, zeroes the values that depend on protocol timing, and
// compares subject, length and hash with the golden.
func checkSysGolden(t *testing.T, seg *captureSegment, key, subj string, lo time.Time) {
	t.Helper()
	payload, hi := awaitSys(t, seg, subj), time.Now()
	v, err := wire.Unmarshal(payload, mop.NewRegistry())
	if err != nil {
		t.Fatalf("%s: payload does not decode: %v", key, err)
	}
	o, ok := v.(*mop.Object)
	if !ok {
		t.Fatalf("%s: payload is %T", key, v)
	}
	if again, err := wire.Marshal(o); err != nil || string(again) != string(payload) {
		t.Fatalf("%s: payload is not the encoding of its own decoding (%v)", key, err)
	}
	clock := func(o *mop.Object) {
		at, _ := o.MustGet("at").(time.Time)
		if at.Before(lo) || at.After(hi) {
			t.Errorf("%s: %s.at = %v, want within [%v, %v]", key, o.Type().Name(), at, lo, hi)
		}
		o.MustSet("at", goldenTime)
	}
	zero := func(o *mop.Object, attrs ...string) {
		for _, a := range attrs {
			if _, isFloat := o.MustGet(a).(float64); isFloat {
				o.MustSet(a, float64(0))
			} else {
				o.MustSet(a, int64(0))
			}
		}
	}
	kept := func(o *mop.Object, attr string) bool {
		name, _ := o.MustGet(attr).(string)
		return strings.HasPrefix(name, "golden.")
	}
	switch o.Type().Name() {
	case "SysStats":
		clock(o)
		if up, _ := o.MustGet("uptime_ns").(int64); up < 0 || up > int64(hi.Sub(lo)) {
			t.Errorf("%s: uptime_ns = %d, want within [0, %d]", key, up, hi.Sub(lo))
		}
		o.MustSet("uptime_ns", int64(time.Second))
		for _, m := range o.MustGet("metrics").(mop.List) {
			if mo := m.(*mop.Object); !kept(mo, "name") {
				zero(mo, "value", "count", "mean_ns", "p50_ns", "p95_ns", "p99_ns")
			}
		}
	case "SysDump":
		clock(o)
		text, _ := o.MustGet("text").(string)
		o.MustSet("text", dumpStamp.ReplaceAllString(text, "00:00:00.000000"))
	case "SysHistory":
		clock(o)
		for _, s := range o.MustGet("series").(mop.List) {
			if so := s.(*mop.Object); !kept(so, "name") {
				for _, smp := range so.MustGet("samples").(mop.List) {
					zero(smp.(*mop.Object), "value", "p50", "p95", "p99")
				}
			}
		}
		for _, f := range o.MustGet("families").(mop.List) {
			zero(f.(*mop.Object), "msgs", "bytes", "drops", "err")
		}
	case "SysTrace":
		if id, _ := o.MustGet("trace_id").(int64); id == 0 {
			t.Errorf("%s: trace_id = 0", key)
		}
		o.MustSet("trace_id", int64(77))
	case "SysAlarm":
		// Stamped by the test's own engine tick: nothing to normalise.
	default:
		t.Fatalf("%s: unexpected class %s", key, o.Type().Name())
	}
	norm, err := wire.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(norm)
	got := fmt.Sprintf("%s %d %s", subj, len(norm), hex.EncodeToString(sum[:]))
	if got != sysGolden[key] {
		t.Errorf("%s:\n\tgot  %s\n\twant %s\n%v", key, got, sysGolden[key], o)
	}
}

// raiseGoldenAlarm registers a level watch that is over its threshold and
// ticks the engine once at goldenTime: one raise edge, deterministic to the
// byte, through whatever sink the node installed.
func raiseGoldenAlarm(engine *telemetry.Engine) {
	engine.Watch(telemetry.WatchConfig{Kind: "golden-alarm", Target: "probe", Raise: 10},
		func() int64 { return 42 })
	engine.Tick(goldenTime)
}

// TestSysGoldenBytes: for a fixed set of instruments, one alarm edge, one
// flight-recorder content and one sampler tick, the subject and payload
// bytes of the stats, alarm, dump, history and trace-sidecar objects a host
// and a router publish are what they were before internal/sysagent.
func TestSysGoldenBytes(t *testing.T) {
	t.Run("host", func(t *testing.T) {
		seg := &captureSegment{}
		lo := time.Now()
		h, err := core.NewHost(seg, "golden.host", core.HostConfig{
			Reliable:   quietReliable(),
			LedgerPath: filepath.Join(t.TempDir(), "ledger"),
			Telemetry: core.TelemetryConfig{
				Registry:           goldenMetrics(),
				TraceSampling:      1,
				StatsInterval:      20 * time.Millisecond,
				Health:             telemetry.HealthConfig{Interval: time.Hour},
				HistoryInterval:    time.Hour, // the test ticks the sampler itself
				HistoryDigestTicks: -1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		h.History().TrackRate("golden.rate", h.Metrics().Counter("golden.counter"))
		bus, err := h.NewBus("app")
		if err != nil {
			t.Fatal(err)
		}
		checkSysGolden(t, seg, "host/stats", "_sys.stats.golden-host", lo)

		// The interest the host advertises for its probes: the same three
		// patterns, hence the same frame, from one client as from three.
		var ad string
		for deadline := time.Now().Add(10 * time.Second); ad == "" && time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
			for _, p := range seg.payloads() {
				if env, err := busproto.Decode(p); err == nil && env.Kind == busproto.KindInterest && len(env.Patterns) == 3 {
					ad = hex.EncodeToString(p)
				}
			}
		}
		if ad != sysGolden["host/interest"] {
			t.Errorf("host/interest:\n\tgot  %s\n\twant %s", ad, sysGolden["host/interest"])
		}

		raiseGoldenAlarm(h.HealthEngine())
		checkSysGolden(t, seg, "host/alarm", "_sys.alarm.golden-host.golden-alarm", lo)

		if err := bus.Publish(telemetry.DumpSubject, int64(1)); err != nil {
			t.Fatal(err)
		}
		checkSysGolden(t, seg, "host/dump", "_sys.dumped.golden-host", lo)

		h.Metrics().Counter("golden.counter").Add(8)
		h.History().Tick(goldenTime)
		if err := bus.Publish(telemetry.HistorySubject, int64(1)); err != nil {
			t.Fatal(err)
		}
		checkSysGolden(t, seg, "host/history", "_sys.history.golden-host", lo)

		// Last: the unacknowledged guaranteed publication keeps the retrier
		// busy from here on, which the recorder and the rates above would see.
		h.SetGuaranteeGate(func(uint64) (int64, error) { return quorumStamp, nil })
		if _, err := bus.PublishGuaranteed("golden.guar", int64(1)); err != nil {
			t.Fatal(err)
		}
		checkSysGolden(t, seg, "host/trace", "_sys.trace.golden-host", lo)
	})

	goldenRouter := func(t *testing.T, opts Options) (*Router, *captureSegment) {
		seg := &captureSegment{}
		opts.Name = "golden"
		opts.Reliable = quietReliable()
		opts.InterestTTL = time.Hour
		opts.Metrics = goldenMetrics()
		opts.Health = telemetry.HealthConfig{Interval: time.Hour}
		r, err := New(opts,
			Attachment{Segment: &nullSegment{}, Name: "in"},
			Attachment{Segment: seg, Name: "out"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = r.Close() })
		return r, seg
	}
	probe := func(r *Router, subj string) {
		payload, _ := wire.Marshal(int64(1))
		r.handle(r.atts[0], reliable.Message{From: "prober", Payload: busproto.Encode(busproto.Envelope{
			Kind: busproto.KindPublish, Subject: subj, Payload: payload,
		})})
	}

	t.Run("router", func(t *testing.T) {
		lo := time.Now()
		r, seg := goldenRouter(t, Options{StatsInterval: time.Hour})
		// The mesh loop would sample the router's ring every 250 ms; stop
		// the router's goroutines (the conns stay open) and tick by hand
		// what each golden needs — handle needs no goroutine. A host stall
		// long enough for the ring to be sampled first is not this test's
		// subject.
		r.mu.Lock()
		r.closed = true
		close(r.done)
		r.mu.Unlock()
		r.wg.Wait()
		t.Cleanup(r.closeAttachments)
		if r.hist.Snapshot(0).Ticks != 0 {
			t.Skip("the mesh loop sampled the ring before the test could stop it")
		}
		r.hist.TrackRate("golden.rate", r.metrics.Counter("golden.counter"))
		probe(r, telemetry.PingSubject) // a pong, and the same SysStats a stats tick exports
		checkSysGolden(t, seg, "router/stats", "_sys.stats.router-golden", lo)

		raiseGoldenAlarm(r.engine)
		checkSysGolden(t, seg, "router/alarm", "_sys.alarm.router-golden.golden-alarm", lo)

		probe(r, telemetry.DumpSubject)
		checkSysGolden(t, seg, "router/dump", "_sys.dumped.router-golden", lo)

		r.metrics.Counter("golden.counter").Add(8)
		r.hist.Tick(goldenTime)
		probe(r, telemetry.HistorySubject)
		checkSysGolden(t, seg, "router/history", "_sys.history.router-golden", lo)
	})
}
