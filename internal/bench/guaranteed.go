package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"infobus/internal/ledger"
	"infobus/internal/telemetry"
)

// A10: group-commit ledger. Unlike the figure experiments this one runs
// against the real filesystem in real time — the quantity under test is
// the fsync, which the simulated network cannot model. Each row drives N
// concurrent publishers through Append with Sync on and reports the
// aggregate append rate, the measured fsyncs per message, and the p99
// append latency (from the ledger's own histogram). The per-append-fsync
// baseline this was first measured against is gone from the ledger; its
// numbers are kept, dated, in EXPERIMENTS.md A10.

// GroupCommitRow is one publisher-count row of the A10 table.
type GroupCommitRow struct {
	Publishers   int
	MsgsPerSec   float64
	FsyncsPerMsg float64
	MeanGroup    float64 // messages per committed batch
	P99Us        float64 // p99 Append latency, microseconds
}

// MeasureGroupCommit runs one A10 row: publishers goroutines each append
// perPublisher 256-byte records to a fresh Sync ledger.
func MeasureGroupCommit(publishers, perPublisher int) (GroupCommitRow, error) {
	dir, err := os.MkdirTemp("", "ibbench-ledger-*")
	if err != nil {
		return GroupCommitRow{}, err
	}
	defer os.RemoveAll(dir)
	reg := telemetry.NewRegistry()
	led, err := ledger.Open(filepath.Join(dir, "bench.ledger"), ledger.Options{
		Sync:    true,
		Metrics: reg,
	})
	if err != nil {
		return GroupCommitRow{}, err
	}
	payload := make([]byte, 256)
	var wg sync.WaitGroup
	errs := make(chan error, publishers)
	start := time.Now()
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				id, err := led.Append("bench.guaranteed", payload)
				if err != nil {
					errs <- err
					return
				}
				// Ack out of band, as a consumer would; keeps the pending
				// set (and the compaction debt) from growing unboundedly.
				if err := led.Ack(id); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			_ = led.Close()
			return GroupCommitRow{}, err
		}
	}
	appends := float64(reg.Counter("ledger.appends").Load())
	fsyncs := float64(reg.Counter("ledger.fsyncs").Load())
	commits := float64(reg.Counter("ledger.commits").Load())
	p99 := reg.Histogram("ledger.append_ns").Summary().P99Ns
	if err := led.Close(); err != nil {
		return GroupCommitRow{}, err
	}
	row := GroupCommitRow{
		Publishers:   publishers,
		MsgsPerSec:   appends / elapsed.Seconds(),
		FsyncsPerMsg: fsyncs / appends,
		P99Us:        p99 / 1e3,
	}
	if commits > 0 {
		row.MeanGroup = appends / commits
	}
	return row, nil
}

// FigureA10 sweeps publisher counts.
func FigureA10(publisherCounts []int, perPublisher int) ([]GroupCommitRow, error) {
	if perPublisher <= 0 {
		perPublisher = 300
	}
	var rows []GroupCommitRow
	for _, n := range publisherCounts {
		row, err := MeasureGroupCommit(n, perPublisher)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFigureA10 renders the group-commit table.
func PrintFigureA10(w io.Writer, rows []GroupCommitRow) {
	fmt.Fprintln(w, "A10: group-commit ledger (Sync appends, real filesystem, 256 B records)")
	fmt.Fprintf(w, "%6s %12s %11s %11s %11s\n",
		"pubs", "msgs/s", "fsyncs/msg", "mean group", "p99 append")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %12.0f %11.3f %11.1f %9.0fµs\n",
			r.Publishers, r.MsgsPerSec, r.FsyncsPerMsg, r.MeanGroup, r.P99Us)
	}
}
