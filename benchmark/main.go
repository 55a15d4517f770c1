// Command benchmark is the Information Bus's end-to-end and per-layer
// performance benchmark. It builds each workload's topology through the
// public API on its own in-process segment, drives a paced and a saturated
// phase, verifies every delivery, and prints every metric BENCHMARK.json
// declares by name with its unit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
)

// manifest is BENCHMARK.json, the declaration this program is checked
// against: it must emit exactly the metrics named there.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s declares %d workloads, the benchmark has %d", path, len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if workloadByName(w.Name) == nil {
			return nil, fmt.Errorf("%s declares workload %q, which the benchmark does not have", path, w.Name)
		}
	}
	return &m, nil
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted is the "metric missing from BENCHMARK.json" gate: what a run
// emitted and what the manifest declares must be the same set, with the
// same units, every value finite.
func checkEmitted(kind string, want []declared, got map[string]metric) error {
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			return fmt.Errorf("%s metric %q is declared in BENCHMARK.json but was not emitted", kind, d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("%s metric %q has unit %q, BENCHMARK.json says %q", kind, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("%s metric %q is not finite", kind, d.Name)
		}
	}
	if len(got) != len(want) {
		declaredNames := map[string]bool{}
		for _, d := range want {
			declaredNames[d.Name] = true
		}
		for name := range got {
			if !declaredNames[name] {
				return fmt.Errorf("%s metric %q was emitted but is missing from BENCHMARK.json", kind, name)
			}
		}
	}
	for name := range got {
		if !validName.MatchString(name) {
			return fmt.Errorf("%s metric name %q is not valid", kind, name)
		}
	}
	return nil
}

// hostFacts are recorded with every results file: numbers from different
// hosts do not compare.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

// commit is stamped by run.sh (-ldflags -X) when the checkout is a git
// repository.
var commit = "unknown"

func facts() hostFacts {
	return hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: commit}
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Host hostFacts `json:"host"`
	Runs []runRow  `json:"runs"`
}

type runRow struct {
	Traced bool `json:"traced"`
	workloadResult
}

// timingNames are the timing metrics every run measures, in the order they
// are shown.
var timingNames = []string{"paced_latency_p50_us", "publish_call_p50_us", "paced_cpu_us_per_msg", "sat_throughput_msgs_s"}

func printRun(res *workloadResult, traced bool) {
	set := res.EndToEnd
	if traced {
		set = res.PerLayer
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%v input=%s valid=%v\n", res.Workload, res.Seed, traced, res.InputHash[:12], res.Valid)
	for _, note := range res.Notes {
		fmt.Printf("# %s\n", note)
	}
	for _, name := range names {
		fmt.Printf("%-36s %16.4f %s\n", name, set[name].Value, set[name].Unit)
	}
	if !traced {
		// Not part of the result line: the timings are declared per-layer.
		for _, name := range timingNames {
			fmt.Printf("%-36s %16.4f %s (not gated)\n", name, res.Timing[name].Value, res.Timing[name].Unit)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, m := range set {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	out, _ := json.Marshal(line)
	fmt.Println(string(out))
}

// scratchDir is where a run keeps its ledger files: inside the checkout, in
// the directory the root .gitignore names.
const scratchDir = ".bench_build/scratch"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		runs     = flag.Int("runs", 1, "runs of each workload, on the seeds seed, seed+1, ...")
		seconds  = flag.Float64("seconds", 0, "measuring time of one run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, 1: traced run with per-layer metrics, -1: one run of each")
		out      = flag.String("out", "", "write every run's results to this JSON file")
		spans    = flag.String("spans", "", "write the layer replay's spans to this file (traced runs)")
		compare  = flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	)
	flag.Parse()

	// One process, at most four cores: the reference host has two, and the
	// numbers should not change shape on a bigger one.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	m, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(m, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(m.RunSeconds)
	}
	var todo []*spec
	if *workload == "all" {
		todo = workloads
	} else if w := workloadByName(*workload); w != nil {
		todo = []*spec{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *workload)
		return 2
	}
	modes := []bool{false, true}
	if *trace == 0 || *trace == 1 {
		modes = []bool{*trace == 1}
	}

	file := resultsFile{Host: facts()}
	status := 0
	for _, w := range todo {
		for i := 0; i < *runs*len(modes); i++ {
			traced := modes[i%len(modes)]
			res, err := runWorkload(w, *seed+int64(i/len(modes)), *seconds, traced, scratchDir, *spans)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if err := checkEmitted("end-to-end", m.EndToEnd, res.EndToEnd); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if traced {
				if err := checkEmitted("per-layer", m.PerLayer, res.PerLayer); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
			}
			printRun(res, traced)
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d deliveries failed: %v\n", w.name, res.Failed, res.Attempted, res.Failures)
				status = 1
			}
			if traced {
				// The segment decodes every datagram of a traced run, which
				// its per-message counts include: they are not comparable.
				res.EndToEnd = nil
			}
			file.Runs = append(file.Runs, runRow{traced, *res})
		}
	}
	if *out != "" {
		data, _ := json.MarshalIndent(file, "", " ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return status
}
