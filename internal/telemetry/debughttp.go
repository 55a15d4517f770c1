package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// DebugHandler serves the local debug surface busd exposes behind
// -debug-addr: the stdlib pprof profiles under /debug/pprof/, a JSON
// snapshot of the metrics registry at /metrics, the flight-recorder text
// dump at /dump, and the flight-data time-series window at /history.
// There is no authentication — the listener must stay loopback-bound (the
// busd flag documentation says so); this handler is a diagnostics port,
// not an API.
//
// rec may be nil (health tier disabled); /dump then reports that. hist
// may be nil (history tier disabled); /history then reports that.
func DebugHandler(reg *Registry, rec *Recorder, hist *History) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		type jsonMetric struct {
			Name   string  `json:"name"`
			Kind   string  `json:"kind"`
			Value  int64   `json:"value,omitempty"`
			Count  uint64  `json:"count,omitempty"`
			MeanNs float64 `json:"mean_ns,omitempty"`
			P50Ns  float64 `json:"p50_ns,omitempty"`
			P95Ns  float64 `json:"p95_ns,omitempty"`
			P99Ns  float64 `json:"p99_ns,omitempty"`
		}
		snap := reg.Snapshot()
		out := make([]jsonMetric, 0, len(snap))
		for _, m := range snap {
			out = append(out, jsonMetric{
				Name: m.Name, Kind: string(m.Kind), Value: m.Value,
				Count: m.Count, MeanNs: m.MeanNs,
				P50Ns: m.P50Ns, P95Ns: m.P95Ns, P99Ns: m.P99Ns,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	mux.HandleFunc("/dump", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if rec == nil {
			_, _ = w.Write([]byte("flight recorder disabled (health tier off)\n"))
			return
		}
		_, _ = w.Write([]byte(rec.Dump()))
	})
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		if hist == nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte("history tier disabled (start with -history <interval>)\n"))
			return
		}
		// ?samples=N limits each series to its most recent N ticks.
		maxSamples := 0
		if q := r.URL.Query().Get("samples"); q != "" {
			if n, err := strconv.Atoi(q); err == nil && n > 0 {
				maxSamples = n
			}
		}
		type jsonSample struct {
			Tick int64 `json:"tick"`
			At   int64 `json:"at"`
			V    int64 `json:"v"`
			P50  int64 `json:"p50,omitempty"`
			P95  int64 `json:"p95,omitempty"`
			P99  int64 `json:"p99,omitempty"`
		}
		type jsonSeries struct {
			Name    string       `json:"name"`
			Kind    string       `json:"kind"`
			Samples []jsonSample `json:"samples"`
		}
		type jsonAlarm struct {
			At     int64  `json:"at"`
			Kind   string `json:"kind"`
			Target string `json:"target,omitempty"`
			Raised bool   `json:"raised"`
			Value  int64  `json:"value"`
		}
		type jsonHistory struct {
			IntervalNs int64        `json:"interval_ns"`
			Ticks      uint64       `json:"ticks"`
			Series     []jsonSeries `json:"series"`
			Alarms     []jsonAlarm  `json:"alarms"`
			AlarmTotal uint64       `json:"alarm_total"`
		}
		snap := hist.Snapshot(maxSamples)
		out := jsonHistory{
			IntervalNs: snap.IntervalNs,
			Ticks:      snap.Ticks,
			Series:     make([]jsonSeries, 0, len(snap.Series)),
			Alarms:     make([]jsonAlarm, 0, len(snap.Alarms)),
			AlarmTotal: snap.AlarmTotal,
		}
		for _, s := range snap.Series {
			js := jsonSeries{Name: s.Name, Kind: string(s.Kind),
				Samples: make([]jsonSample, 0, len(s.Samples))}
			for _, smp := range s.Samples {
				js.Samples = append(js.Samples, jsonSample{
					Tick: smp.Tick, At: smp.At, V: smp.V,
					P50: smp.P50, P95: smp.P95, P99: smp.P99,
				})
			}
			out.Series = append(out.Series, js)
		}
		for _, a := range snap.Alarms {
			out.Alarms = append(out.Alarms, jsonAlarm{
				At: a.At.UnixNano(), Kind: a.Kind, Target: a.Target,
				Raised: a.Raised, Value: a.Value,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	return mux
}
