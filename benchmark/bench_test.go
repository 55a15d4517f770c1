package main

import (
	"testing"
)

// TestSmoke runs every workload at a twentieth of its measuring time with
// the layer replay on, and checks that exactly the metrics BENCHMARK.json
// declares come out, finite and well named, with every delivery verified.
func TestSmoke(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	for _, w := range workloads {
		res, err := runWorkload(w, 1, float64(m.RunSeconds)/20, true, scratch, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d %v", w.name, res.Correct, res.Failed, res.Attempted, res.Failures)
		}
		if err := checkEmitted("end-to-end", m.EndToEnd, res.EndToEnd); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if err := checkEmitted("per-layer", m.PerLayer, res.PerLayer); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for name, v := range res.EndToEnd {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, name, v.Value)
			}
		}
		// The workloads isolate the layers they claim to.
		if got := res.PerLayer["ledger.append.ns_per_op"].Value > 0; got != w.guaranteed {
			t.Errorf("%s: ledger on the replay path = %v, want %v", w.name, got, w.guaranteed)
		}
		if got := res.PerLayer["router.forwarded_per_msg"].Value > 0; got != w.routed {
			t.Errorf("%s: router forwarded = %v, want %v", w.name, got, w.routed)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := generate(w, 7), generate(w, 7), generate(w, 8)
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 gave input hashes %s and %s", w.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
}

// feed hands the oracle sequence n of publisher 0 as a consumer would see it.
func feed(in *inputs, o *subOracle, n int64) {
	obj := in.object(0, n)
	if err := obj.SetAt(slotSeq, n); err != nil {
		panic(err)
	}
	if _, _, ok := o.check(in.subjects[in.subjectOf(n)], obj); ok {
		o.verified()
	}
}

func TestOracleCatchesDuplicateAndGap(t *testing.T) {
	in := generate(workloadByName("tick_fanout"), 1)
	sub := &in.subs[0] // "tick.>": wants every sequence

	var dup failures
	o := newSubOracle(in, sub, &dup)
	for _, n := range []int64{0, 1, 1, 2} {
		feed(in, o, n)
	}
	o.finish(3)
	if dup.duplicate.Load() != 1 || dup.total() != 1 {
		t.Errorf("injected duplicate: got %v", dup.breakdown())
	}

	var gap failures
	o = newSubOracle(in, sub, &gap)
	for _, n := range []int64{0, 1, 3} {
		feed(in, o, n)
	}
	o.finish(4)
	if gap.missing.Load() != 1 || gap.total() != 1 {
		t.Errorf("injected gap: got %v", gap.breakdown())
	}

	var late, corrupt failures
	o = newSubOracle(in, sub, &late)
	for _, n := range []int64{0, 2, 1} {
		feed(in, o, n)
	}
	if late.outOfOrder.Load() != 1 {
		t.Errorf("injected reordering: got %v", late.breakdown())
	}
	o = newSubOracle(in, sub, &corrupt)
	obj := in.object(0, 0).Clone()
	if err := obj.SetAt(slotContent, "XXXX"); err != nil {
		t.Fatal(err)
	}
	o.check(in.subjects[in.subjectOf(0)], obj)
	if corrupt.badChecksum.Load() != 1 {
		t.Errorf("injected corruption: got %v", corrupt.breakdown())
	}
}

func TestVerdict(t *testing.T) {
	lower := declared{Name: "x", Better: "lower", Bound: 0.10}
	higher := declared{Name: "y", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    declared
		a, b metric
		want string
	}{
		{lower, metric{Value: 100}, metric{Value: 109}, "ok"},
		{lower, metric{Value: 100}, metric{Value: 111}, "regressed"},
		{lower, metric{Value: 100}, metric{Value: 50}, "ok"},
		{higher, metric{Value: 100}, metric{Value: 89}, "regressed"},
		{higher, metric{Value: 100}, metric{Value: 150}, "ok"},
		{lower, metric{Value: 100, Spread: 0.2}, metric{Value: 150}, "unresolved"},
		{lower, metric{Value: 0}, metric{Value: 0}, "ok"},
		{lower, metric{Value: 0}, metric{Value: 1}, "regressed"},
		{higher, metric{Value: 0}, metric{Value: 1}, "ok"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}
}

// TestCompareSameCommit runs one workload twice and compares the two: an
// unchanged program must not be reported as regressed, and files that did
// not measure the same load must be refused.
func TestCompareSameCommit(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	w := workloadByName("tick_fanout")
	file := func(seed int64, traced bool) *resultsFile {
		res, err := runWorkload(w, seed, float64(m.RunSeconds)/20, traced, t.TempDir(), "")
		if err != nil {
			t.Fatal(err)
		}
		return &resultsFile{Runs: []runRow{{traced, *res}}}
	}
	a := file(1, false)
	if got := compareResults(m, a, file(1, false)); got == 1 || got == 2 {
		t.Errorf("two runs of one commit compared with status %d", got)
	}
	if got := compareResults(m, a, file(2, false)); got != 2 {
		t.Errorf("runs on different seeds compared with status %d, want 2", got)
	}
	if got := compareResults(m, a, &resultsFile{Runs: []runRow{{true, a.Runs[0].workloadResult}}}); got != 2 {
		t.Errorf("a traced run compared with status %d, want 2", got)
	}
}
