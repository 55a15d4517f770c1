// Command ibbench regenerates the paper's performance appendix — Figures
// 5, 6, 7, and 8 — and the two stated invariants (I1: latency independent
// of consumer count; I2: cumulative throughput proportional to subscriber
// count) on the simulated 10 Mb/s Ethernet testbed, plus the three
// experiments no benchmark/ workload answers: A11 (replicated guaranteed
// delivery), A12 (lane scaling past 2 cores) and A14 (50-segment mesh
// locality). What anything else costs is a named metric on a
// BENCHMARK.json workload (benchmark/run.sh), not a figure here.
//
// Usage:
//
//	ibbench -fig all                  # every figure (slow, high fidelity)
//	ibbench -fig 5                    # latency vs message size
//	ibbench -fig 6 -msgs 3000         # throughput, more samples
//	ibbench -fig 8 -subjects 10000    # the full 10k-subject sweep
//	ibbench -fig i1                   # invariant I1
//	ibbench -fig a11,a14              # several figures in one run
//	ibbench -speedup 50               # faster run, lower fidelity
//
// All reported numbers are in modelled network time, so -speedup trades
// run time against measurement fidelity (host CPU becomes visible at high
// speedups), not against the shape of the curves.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"infobus/internal/bench"
)

// figures are the names -fig accepts besides "all", in run order.
var figures = []string{"5", "6", "7", "8", "i1", "i2", "a11", "a12", "a14"}

// parseFigs turns the -fig value — "all", or a comma-separated list of
// figure names — into the set of figures to run. A name that is not a
// figure is an error naming it: a typo must not silently run nothing.
func parseFigs(arg string) (map[string]bool, error) {
	want := make(map[string]bool)
	for _, name := range strings.Split(arg, ",") {
		switch name = strings.TrimSpace(name); {
		case name == "all":
			for _, f := range figures {
				want[f] = true
			}
		case slices.Contains(figures, name):
			want[name] = true
		default:
			return nil, fmt.Errorf("unknown figure %q (known: %s, all)", name, strings.Join(figures, ", "))
		}
	}
	return want, nil
}

func main() {
	fig := flag.String("fig", "all", "figures to run, comma-separated: "+strings.Join(figures, ", ")+", or all")
	consumers := flag.Int("consumers", 14, "number of consumer hosts")
	speedup := flag.Float64("speedup", 20, "simulation speedup factor")
	msgs := flag.Int("msgs", 1000, "messages per throughput point")
	latMsgs := flag.Int("latmsgs", 100, "messages per latency point")
	subjects := flag.Int("subjects", 10000, "subject count for figure 8")
	flag.Parse()
	want, err := parseFigs(*fig)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibbench: -fig: %v\n", err)
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	cfg.Consumers = *consumers
	cfg.Net.Speedup = *speedup

	start := time.Now()
	run := func(name string, f func() error) {
		if !want[name] {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "ibbench: figure %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("5", func() error {
		rows, err := bench.Figure5(cfg, bench.PaperSizes, *latMsgs)
		if err != nil {
			return err
		}
		bench.PrintFigure5(os.Stdout, rows)
		return nil
	})

	var thr []bench.ThroughputResult
	run("6", func() error {
		var err error
		thr, err = bench.Figure67(cfg, bench.PaperSizes, *msgs)
		if err != nil {
			return err
		}
		bench.PrintFigure6(os.Stdout, thr)
		return nil
	})
	run("7", func() error {
		if thr == nil {
			var err error
			thr, err = bench.Figure67(cfg, bench.PaperSizes, *msgs)
			if err != nil {
				return err
			}
		}
		bench.PrintFigure7(os.Stdout, thr)
		return nil
	})
	run("8", func() error {
		// The subject-count experiment stresses matching, not fan-out:
		// fewer consumers keep memory bounded at 10k subjects x N hosts
		// without changing what the figure demonstrates.
		f8cfg := cfg
		if f8cfg.Consumers > 4 {
			f8cfg.Consumers = 4
		}
		counts := []int{1, *subjects}
		sizes := []int{64, 512, 1024, 4096, 10240}
		results, err := bench.Figure8(f8cfg, sizes, *msgs, counts)
		if err != nil {
			return err
		}
		bench.PrintFigure8(os.Stdout, results, counts)
		return nil
	})
	run("i1", func() error {
		counts := []int{1, 2, 4, 8, 14}
		rows, cs, err := bench.InvariantLatencyVsConsumers(cfg, counts, 1024, *latMsgs)
		if err != nil {
			return err
		}
		bench.PrintInvariantI1(os.Stdout, rows, cs)
		return nil
	})
	run("i2", func() error {
		counts := []int{1, 2, 4, 8, 14}
		rows, err := bench.InvariantThroughputVsSubscribers(cfg, counts, 1024, *msgs)
		if err != nil {
			return err
		}
		bench.PrintInvariantI2(os.Stdout, rows)
		return nil
	})
	run("a11", func() error {
		// A11: replicated guaranteed delivery. The fsyncs are real, so
		// wall time dominates; -speedup only accelerates the simulated
		// network between the publisher and its replicas.
		rows, err := bench.FigureA11(cfg.Net, 0, 0)
		if err != nil {
			return err
		}
		bench.PrintFigureA11(os.Stdout, rows)
		return nil
	})

	run("a12", func() error {
		// A12: the sharded delivery engine. CPU-bound by construction —
		// the harness pins the simulated wire at a very high speedup so
		// the medium never throttles local delivery, and -speedup does
		// not apply. The lanes-vs-1 ratio is the published quantity; it
		// only exceeds 1 on a multicore host.
		laneCounts := []int{1, 2, 4, 8}
		rows, err := bench.FigureA12(cfg, laneCounts, []int{64, 256, 512}, *msgs)
		if err != nil {
			return err
		}
		bench.PrintFigureA12(os.Stdout, rows)
		fmt.Printf("(GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
		return nil
	})

	run("a14", func() error {
		// A14: interest locality of the router mesh. A 50-segment ring with
		// 100 stub hosts per segment; the measured flow's subscribers live
		// on only the two segments next to the publisher, and the mesh
		// confines the publication to the subscriber-bearing three (the
		// pairwise relay's 17-segment flood is a dated row in
		// EXPERIMENTS.md). Convergence is wall-clock paced (hello timers),
		// so -speedup mostly trades medium fidelity, not run time.
		row, err := bench.MeasureMeshLocality(cfg.Net, 50, 100, max(*msgs/25, 1))
		if err != nil {
			return err
		}
		bench.PrintFigureA14(os.Stdout, row)
		return nil
	})

	fmt.Printf("ibbench: completed in %v (speedup %.0fx, %d consumers)\n",
		time.Since(start).Round(time.Millisecond), *speedup, *consumers)
}
