package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runsOf returns a workload's correct untraced runs. Traced runs are never
// compared: the segment decodes every datagram in them and their phases are
// shorter, both of which move the per-message counts.
func (f *resultsFile) runsOf(workload string) []*workloadResult {
	var runs []*workloadResult
	for i := range f.Runs {
		if r := &f.Runs[i]; r.Workload == workload && r.Correct && !r.Traced {
			runs = append(runs, &r.workloadResult)
		}
	}
	return runs
}

// sameLoad reports why two sides' runs of a workload cannot be compared, or
// "" when they measured the same inputs for the same time.
func sameLoad(a, b []*workloadResult) string {
	if len(a) == 0 || len(b) == 0 {
		return "no correct untraced run on one side"
	}
	key := func(runs []*workloadResult) []string {
		var k []string
		for _, r := range runs {
			k = append(k, fmt.Sprintf("%s/%gs", r.InputHash, r.Seconds))
		}
		slices.Sort(k)
		return k
	}
	if !slices.Equal(key(a), key(b)) {
		return "the two sides ran different seeds or measuring times"
	}
	return ""
}

// pooled is one metric over one side's runs: the median of the runs' values.
// Its spread is the quartile distance of those values over their median, as
// the benchmark's acceptance takes it; a single run has only its own.
func pooled(runs []*workloadResult, get func(*workloadResult) metric) metric {
	if len(runs) == 1 {
		return get(runs[0])
	}
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = get(r).Value
	}
	return metric{Value: median(vals), Unit: get(runs[0]).Unit, Spread: spread(vals)}
}

// verdict judges one metric of one workload: b against the base a.
//
//	ok          b is no worse than a by more than the bound
//	regressed   b is worse than a by more than the bound
//	unresolved  either side's spread exceeds the bound, so the two values
//	            cannot be told apart at that resolution
func verdict(d declared, a, b metric) (worse float64, v string) {
	switch {
	case a.Value != 0:
		worse = (b.Value - a.Value) / math.Abs(a.Value)
	case b.Value != 0: // any move away from a zero base is beyond every bound
		worse = math.Inf(int(math.Copysign(1, b.Value)))
	}
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.Spread > d.Bound || b.Spread > d.Bound:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// ratio with its base, the bound and the verdict, and the timing metrics
// beside them for information (they are not gated: the reference host does
// not repeat them). It returns 0 when every row is ok, 1 when any regressed,
// 3 when none regressed but some are unresolved, 2 when the files cannot be
// compared.
func compareFiles(m *manifest, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultsFile
		if b, err = readResults(pathB); err == nil {
			return compareResults(m, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareResults(m *manifest, a, b *resultsFile) int {
	if a.Host != b.Host {
		fmt.Printf("# hosts differ: a=%+v b=%+v\n", a.Host, b.Host)
	}
	fmt.Printf("%-18s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "verdict")
	regressed, unresolved := 0, 0
	for _, w := range m.Workloads {
		ra, rb := a.runsOf(w.Name), b.runsOf(w.Name)
		if len(ra) == 0 && len(rb) == 0 {
			continue // neither file ran this workload
		}
		if why := sameLoad(ra, rb); why != "" {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.Name, why)
			return 2
		}
		for _, name := range timingNames {
			get := func(r *workloadResult) metric { return r.Timing[name] }
			ma, mb := pooled(ra, get), pooled(rb, get)
			fmt.Printf("%-18s %-24s %14.4f %14.4f %9.4f %7s  not gated (spread a %.1f%% b %.1f%%)\n",
				w.Name, name, ma.Value, mb.Value, ratio(mb.Value, ma.Value), "-", ma.Spread*100, mb.Spread*100)
		}
		for _, d := range m.EndToEnd {
			get := func(r *workloadResult) metric { return r.EndToEnd[d.Name] }
			ma, mb := pooled(ra, get), pooled(rb, get)
			worse, v := verdict(d, ma, mb)
			switch v {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			fmt.Printf("%-18s %-24s %14.4f %14.4f %9.4f %6.1f%%  %s (%+.1f%% worse, spread a %.1f%% b %.1f%%)\n",
				w.Name, d.Name, ma.Value, mb.Value, ratio(mb.Value, ma.Value), d.Bound*100, v,
				worse*100, ma.Spread*100, mb.Spread*100)
		}
	}
	switch {
	case regressed > 0:
		return 1
	case unresolved > 0:
		return 3
	}
	return 0
}
