package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestDebugHandlerMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("daemon.inbound").Add(42)
	reg.Gauge("ledger.pending").Set(-1)
	reg.Histogram("daemon.lat").Observe(time.Millisecond)
	srv := httptest.NewServer(DebugHandler(reg, nil, nil))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var metrics []struct {
		Name  string `json:"name"`
		Kind  string `json:"kind"`
		Value int64  `json:"value"`
		Count uint64 `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]int)
	for i, m := range metrics {
		byName[m.Name] = i
	}
	if i, ok := byName["daemon.inbound"]; !ok || metrics[i].Kind != "counter" || metrics[i].Value != 42 {
		t.Fatalf("daemon.inbound = %+v", metrics)
	}
	if i, ok := byName["ledger.pending"]; !ok || metrics[i].Value != -1 {
		t.Fatalf("ledger.pending = %+v", metrics)
	}
	if i, ok := byName["daemon.lat"]; !ok || metrics[i].Kind != "histogram" || metrics[i].Count != 1 {
		t.Fatalf("daemon.lat = %+v", metrics)
	}
}

func TestDebugHandlerDump(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(8)
	rec.Record(EventRestart, "h2", 5, 4)
	srv := httptest.NewServer(DebugHandler(reg, rec, nil))
	defer srv.Close()

	body := get(t, srv.URL+"/dump")
	if !strings.Contains(body, "flight recorder: 1 events retained") ||
		!strings.Contains(body, "peer-restart") {
		t.Fatalf("dump = %q", body)
	}

	// nil recorder (health tier off) reports that rather than 404ing.
	off := httptest.NewServer(DebugHandler(reg, nil, nil))
	defer off.Close()
	if body := get(t, off.URL+"/dump"); !strings.Contains(body, "disabled") {
		t.Fatalf("disabled dump = %q", body)
	}
}

func TestDebugHandlerHistory(t *testing.T) {
	reg := NewRegistry()
	hist := NewHistory(time.Hour)
	ctr := reg.Counter("daemon.inbound")
	hist.TrackRate("daemon.inbound", ctr)
	hist.TrackLevelFunc("daemon.lane_depth", func() int64 { return 7 })
	base := time.Unix(1000, 0)
	for i := 1; i <= 5; i++ {
		ctr.Add(10)
		hist.Tick(base.Add(time.Duration(i) * time.Hour))
	}
	hist.NoteAlarm(AlarmEvent{
		Kind: "slow-consumer", Target: "lagging", Raised: true, Value: 99,
		At: base.Add(5 * time.Hour),
	})
	srv := httptest.NewServer(DebugHandler(reg, nil, hist))
	defer srv.Close()

	var out struct {
		IntervalNs int64 `json:"interval_ns"`
		Ticks      int64 `json:"ticks"`
		Series     []struct {
			Name    string `json:"name"`
			Kind    string `json:"kind"`
			Samples []struct {
				Tick int64 `json:"tick"`
				V    int64 `json:"v"`
			} `json:"samples"`
		} `json:"series"`
		Alarms []struct {
			Kind   string `json:"kind"`
			Target string `json:"target"`
			Raised bool   `json:"raised"`
			Value  int64  `json:"value"`
		} `json:"alarms"`
		AlarmTotal uint64 `json:"alarm_total"`
	}
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/history")), &out); err != nil {
		t.Fatal(err)
	}
	if out.IntervalNs != time.Hour.Nanoseconds() || out.Ticks != 5 {
		t.Fatalf("interval_ns=%d ticks=%d", out.IntervalNs, out.Ticks)
	}
	byName := map[string]int{}
	for i, s := range out.Series {
		byName[s.Name] = i
	}
	rate := out.Series[byName["daemon.inbound"]]
	if rate.Kind != "rate" || len(rate.Samples) != 5 {
		t.Fatalf("daemon.inbound series = %+v", rate)
	}
	for _, smp := range rate.Samples {
		if smp.V != 10 {
			t.Fatalf("rate sample = %+v, want per-tick delta 10", smp)
		}
	}
	level := out.Series[byName["daemon.lane_depth"]]
	if level.Kind != "level" || len(level.Samples) != 5 || level.Samples[4].V != 7 {
		t.Fatalf("daemon.lane_depth series = %+v", level)
	}
	if out.AlarmTotal != 1 || len(out.Alarms) != 1 ||
		out.Alarms[0].Kind != "slow-consumer" || !out.Alarms[0].Raised ||
		out.Alarms[0].Value != 99 || out.Alarms[0].Target != "lagging" {
		t.Fatalf("alarms = %+v (total %d)", out.Alarms, out.AlarmTotal)
	}

	// ?samples=N trims each series to its most recent N ticks.
	if err := json.Unmarshal([]byte(get(t, srv.URL+"/history?samples=2")), &out); err != nil {
		t.Fatal(err)
	}
	for _, s := range out.Series {
		if len(s.Samples) != 2 {
			t.Fatalf("trimmed series %s has %d samples, want 2", s.Name, len(s.Samples))
		}
		if s.Samples[1].Tick != 5 {
			t.Fatalf("trimmed series %s ends at tick %d, want 5", s.Name, s.Samples[1].Tick)
		}
	}

	// nil history (tier off) reports that rather than 404ing.
	off := httptest.NewServer(DebugHandler(reg, nil, nil))
	defer off.Close()
	if body := get(t, off.URL+"/history"); !strings.Contains(body, "disabled") {
		t.Fatalf("disabled history = %q", body)
	}
}

func TestDebugHandlerPprof(t *testing.T) {
	srv := httptest.NewServer(DebugHandler(NewRegistry(), nil, nil))
	defer srv.Close()
	body := get(t, srv.URL+"/debug/pprof/")
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index = %q", body)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
