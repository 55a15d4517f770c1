package bench

import (
	"strings"
	"testing"
	"time"
)

// quickConfig runs the harness fast enough for unit tests while keeping
// the modelled network identical.
func quickConfig(consumers int) Config {
	cfg := DefaultConfig()
	cfg.Consumers = consumers
	cfg.Net.Speedup = 10
	cfg.Reliable.NakInterval = 2 * time.Millisecond
	cfg.Reliable.RetransmitInterval = 3 * time.Millisecond
	cfg.Reliable.HeartbeatInterval = 5 * time.Millisecond
	cfg.Reliable.BatchDelay = time.Millisecond
	return cfg
}

func TestMeasureLatencySanity(t *testing.T) {
	cfg := quickConfig(3)
	small, err := MeasureLatency(cfg, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	if small.Samples != 3*10 {
		t.Errorf("samples = %d, want 30", small.Samples)
	}
	if small.MeanMs <= 0 {
		t.Errorf("mean latency = %v, want positive", small.MeanMs)
	}
	big, err := MeasureLatency(cfg, 8192, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 5 shape: bigger messages take longer on the wire.
	if big.MeanMs <= small.MeanMs {
		t.Errorf("latency not increasing with size: 64B=%.3fms 8KB=%.3fms", small.MeanMs, big.MeanMs)
	}
	// A 8KB message on 10 Mb/s occupies ~6.6 modelled ms; latency must be
	// at least that.
	if big.MeanMs < 5 {
		t.Errorf("8KB latency = %.3fms, implausibly small for 10 Mb/s", big.MeanMs)
	}
}

func TestMeasureThroughputSanity(t *testing.T) {
	cfg := quickConfig(3)
	small, err := MeasureThroughput(cfg, 64, 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := MeasureThroughput(cfg, 4096, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6 shape: msgs/sec falls as size grows.
	if big.MsgsPerSec >= small.MsgsPerSec {
		t.Errorf("msgs/sec not decreasing: 64B=%.0f 4KB=%.0f", small.MsgsPerSec, big.MsgsPerSec)
	}
	// Figure 7 shape: bytes/sec rises as size grows.
	if big.BytesPerSec <= small.BytesPerSec {
		t.Errorf("bytes/sec not increasing: 64B=%.0f 4KB=%.0f", small.BytesPerSec, big.BytesPerSec)
	}
	// The device ceiling: bytes/sec cannot exceed 10 Mb/s = 1.25 MB/s.
	if big.BytesPerSec > 1.25e6*1.1 {
		t.Errorf("bytes/sec = %.0f exceeds the modelled device bandwidth", big.BytesPerSec)
	}
	if small.CumulativeBytesPerSec != small.BytesPerSec*3 {
		t.Errorf("cumulative = %.0f, want 3x per-subscriber", small.CumulativeBytesPerSec)
	}
}

func TestMeasureThroughputManySubjects(t *testing.T) {
	cfg := quickConfig(2)
	one, err := MeasureThroughput(cfg, 512, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := MeasureThroughput(cfg, 512, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 8: subject count must not collapse throughput. Allow wide
	// tolerance for test speed; the real check is the figure run.
	if many.BytesPerSec < one.BytesPerSec/3 {
		t.Errorf("50 subjects collapsed throughput: %v vs %v", many.BytesPerSec, one.BytesPerSec)
	}
	if many.Subjects != 50 {
		t.Errorf("Subjects = %d", many.Subjects)
	}
}

func TestFigurePrinters(t *testing.T) {
	cfg := quickConfig(2)
	lat, err := Figure5(cfg, []int{64, 1024}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	PrintFigure5(&b, lat)
	if !strings.Contains(b.String(), "FIGURE 5") || !strings.Contains(b.String(), "1024") {
		t.Errorf("figure 5 output:\n%s", b.String())
	}

	thr, err := Figure67(cfg, []int{64, 1024}, 60)
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	PrintFigure6(&b, thr)
	PrintFigure7(&b, thr)
	out := b.String()
	if !strings.Contains(out, "FIGURE 6") || !strings.Contains(out, "FIGURE 7") {
		t.Errorf("figure 6/7 output:\n%s", out)
	}

	f8, err := Figure8(cfg, []int{256}, 60, []int{1, 20})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	PrintFigure8(&b, f8, []int{1, 20})
	if !strings.Contains(b.String(), "20 subj") {
		t.Errorf("figure 8 output:\n%s", b.String())
	}
}

func TestInvariants(t *testing.T) {
	cfg := quickConfig(0)
	lat, counts, err := InvariantLatencyVsConsumers(cfg, []int{1, 4}, 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	// I1: latency does not explode with consumer count. The margin is
	// deliberately loose: at Speedup 500 every microsecond of host noise
	// (race detector included) is amplified 500x into modelled time; the
	// strict flatness check happens at figure scale (cmd/ibbench,
	// Speedup 10).
	if lat[1].MeanMs > lat[0].MeanMs*20+10 {
		t.Errorf("latency grew with consumers: %v", lat)
	}
	var b strings.Builder
	PrintInvariantI1(&b, lat, counts)
	if !strings.Contains(b.String(), "INVARIANT I1") {
		t.Error("I1 printer")
	}

	thr, err := InvariantThroughputVsSubscribers(cfg, []int{1, 4}, 512, 80)
	if err != nil {
		t.Fatal(err)
	}
	// I2: cumulative throughput grows with subscribers.
	if thr[1].CumulativeBytesPerSec <= thr[0].CumulativeBytesPerSec {
		t.Errorf("cumulative throughput did not grow: %v", thr)
	}
	b.Reset()
	PrintInvariantI2(&b, thr)
	if !strings.Contains(b.String(), "INVARIANT I2") {
		t.Error("I2 printer")
	}
}

func TestStatsHelpers(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Errorf("mean = %v", mean)
	}
	if std < 2.13 || std > 2.15 { // sample std of that classic set
		t.Errorf("std = %v", std)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Errorf("empty meanStd = %v, %v", m, s)
	}
	if ci99(2.14, 1) != 0 {
		t.Error("ci99 with n=1 should be 0")
	}
	if ci := ci99(2.14, 8); ci < 1.9 || ci > 2.0 {
		t.Errorf("ci99 = %v", ci)
	}
}

func TestPayloadStamp(t *testing.T) {
	now := time.Now()
	p := payload(64, now)
	if len(p) != 64 {
		t.Fatalf("len = %d", len(p))
	}
	got, ok := stampOf(p)
	if !ok || !got.Equal(time.Unix(0, now.UnixNano())) {
		t.Errorf("stamp = %v, %v", got, ok)
	}
	if _, ok := stampOf("not bytes"); ok {
		t.Error("stampOf non-bytes")
	}
	if p := payload(2, now); len(p) != 8 {
		t.Errorf("minimum payload = %d", len(p))
	}
}
