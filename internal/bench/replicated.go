package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"infobus/internal/core"
	"infobus/internal/netsim"
	"infobus/internal/qledger"
	"infobus/internal/reliable"
	"infobus/internal/transport"
)

// A11: replicated guaranteed delivery. End-to-end PublishGuaranteed
// throughput and latency as the replication factor grows: each publish
// must commit to the local ledger (real fsync), mirror over the simulated
// network, and collect a majority of replica acknowledgements (each a
// real fsync on the replica's disk) before it returns. Factor 0 is the
// unmodified single-node path — the baseline the quorum tax is measured
// against. This figure runs wall-clock: the fsync is the dominant cost
// and cannot be simulated faster; -speedup only accelerates the simulated
// network in between.

// ReplicatedRow is one (factor, policy) cell of the A11 table.
type ReplicatedRow struct {
	Factor       int
	Policy       string // replica fsync policy: "batch" or "lazy"
	MsgsPerSec   float64
	P50Ms        float64 // median PublishGuaranteed latency
	P99Ms        float64
	FsyncsPerMsg float64 // publisher + all replicas, per message
}

// MeasureReplicated runs one A11 cell: publishers goroutines drive
// PublishGuaranteed through a host with the given replication factor,
// factor replica hosts storing and acking every batch, and one consumer
// acknowledging delivery.
func MeasureReplicated(netCfg netsim.Config, factor, publishers, perPublisher int, policy string) (ReplicatedRow, error) {
	row := ReplicatedRow{Factor: factor, Policy: policy}
	dir, err := os.MkdirTemp("", "ibbench-qledger-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	seg := transport.NewSimSegment(netCfg)
	defer seg.Close()

	// Batching on, as in the throughput figures: 64 concurrent publishers
	// of tiny records would otherwise exhaust the modelled receive buffers
	// and the run would measure packet loss, not replication.
	// The retransmit interval must sit above the congested round-trip
	// time: the consumer's guaranteed-delivery acks are unicast, and an
	// aggressive timer re-floods them exactly when the medium is busiest.
	relCfg := reliable.Config{
		Batching:           true,
		BatchDelay:         2 * time.Millisecond,
		NakInterval:        5 * time.Millisecond,
		GapTimeout:         2 * time.Second,
		RetransmitInterval: 100 * time.Millisecond,
		HeartbeatInterval:  25 * time.Millisecond,
	}
	// The guaranteed-delivery retrier gets the same treatment as the
	// quorum retry timer below: nothing is lost on this medium, so a
	// retry interval inside the start-burst ack round trip would only
	// republish messages the consumer already holds.
	pub, err := core.NewHost(seg, "pub", core.HostConfig{
		Reliable:      relCfg,
		LedgerPath:    filepath.Join(dir, "pub.ledger"),
		LedgerSync:    true,
		RetryInterval: 500 * time.Millisecond,
	})
	if err != nil {
		return row, err
	}
	defer pub.Close()
	var replicas []*core.Host
	if factor > 0 {
		// RetryInterval must clear the p99 quorum round trip: chunk
		// retransmission exists for crashed replicas, and on this lossless
		// simulated medium an interval inside the congested RTT re-floods
		// every in-flight chunk precisely when the replicas are behind,
		// which sustains the backlog it is reacting to.
		if _, err := qledger.Attach(pub, qledger.Config{
			Factor:        factor,
			AckTimeout:    10 * time.Second,
			RetryInterval: 500 * time.Millisecond,
			BeatInterval:  50 * time.Millisecond,
		}); err != nil {
			return row, err
		}
		for i := 0; i < factor; i++ {
			r, err := core.NewHost(seg, fmt.Sprintf("r%d", i), core.HostConfig{Reliable: relCfg})
			if err != nil {
				return row, err
			}
			defer r.Close()
			// GatherDelay matches the reliable layer's BatchDelay: one
			// replica fsync then covers the chunk cohort of a whole
			// publisher wave instead of one fsync per chunk.
			if _, err := qledger.Attach(r, qledger.Config{
				Dir:             filepath.Join(dir, fmt.Sprintf("r%d", i)),
				FsyncPolicy:     policy,
				GatherDelay:     2 * time.Millisecond,
				DisableRecovery: true, // steady-state cell: no coordinator churn
				BeatInterval:    50 * time.Millisecond,
			}); err != nil {
				return row, err
			}
			replicas = append(replicas, r)
		}
	}
	cons, err := core.NewHost(seg, "cons", core.HostConfig{Reliable: relCfg})
	if err != nil {
		return row, err
	}
	defer cons.Close()
	cbus, err := cons.NewBus("consumer")
	if err != nil {
		return row, err
	}
	sub, err := cbus.Subscribe("bench.repl")
	if err != nil {
		return row, err
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-sub.C:
			case <-stop:
				return
			}
		}
	}()
	defer close(stop)
	time.Sleep(50 * time.Millisecond) // interest propagation

	pbus, err := pub.NewBus("producer")
	if err != nil {
		return row, err
	}
	payload := string(make([]byte, 256))
	total := publishers * perPublisher
	lats := make([]time.Duration, total)
	errs := make(chan error, publishers)
	startC := make(chan struct{})
	done := make(chan struct{}, publishers)
	for p := 0; p < publishers; p++ {
		go func(p int) {
			<-startC
			for i := 0; i < perPublisher; i++ {
				t0 := time.Now()
				if _, err := pbus.PublishGuaranteed("bench.repl", payload); err != nil {
					errs <- err
					return
				}
				lats[p*perPublisher+i] = time.Since(t0)
			}
			done <- struct{}{}
		}(p)
	}
	start := time.Now()
	close(startC)
	for finished := 0; finished < publishers; finished++ {
		select {
		case err := <-errs:
			return row, err
		case <-done:
		}
	}
	elapsed := time.Since(start)

	fsyncs := pub.Metrics().Counter("ledger.fsyncs").Load()
	for _, r := range replicas {
		fsyncs += r.Metrics().Counter("ledger.fsyncs").Load()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	row.MsgsPerSec = float64(total) / elapsed.Seconds()
	row.P50Ms = float64(lats[total/2]) / 1e6
	row.P99Ms = float64(lats[total*99/100]) / 1e6
	row.FsyncsPerMsg = float64(fsyncs) / float64(total)
	return row, nil
}

// FigureA11 sweeps replication factors (batch-fsync replicas) plus a
// factor-2 lazy row isolating the replica fsync share of the quorum tax.
func FigureA11(netCfg netsim.Config, publishers, perPublisher int) ([]ReplicatedRow, error) {
	if publishers <= 0 {
		// Group commit amortizes fsyncs across concurrent publishers; the
		// quorum tax is only meaningful at a concurrency where batches
		// actually form on both the publisher and the replicas. Throughput
		// saturates near 32 concurrent publishers — beyond that added
		// concurrency only inflates queueing latency.
		publishers = 32
	}
	if perPublisher <= 0 {
		perPublisher = 60
	}
	var rows []ReplicatedRow
	for _, factor := range []int{0, 1, 2} {
		row, err := MeasureReplicated(netCfg, factor, publishers, perPublisher, "batch")
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	lazy, err := MeasureReplicated(netCfg, 2, publishers, perPublisher, "lazy")
	if err != nil {
		return nil, err
	}
	return append(rows, lazy), nil
}

// PrintFigureA11 renders the replication table with each row's cost
// relative to the factor-0 baseline.
func PrintFigureA11(w io.Writer, rows []ReplicatedRow) {
	fmt.Fprintln(w, "A11: replicated guaranteed delivery (quorum ledger tier, 256 B records,")
	fmt.Fprintln(w, "     real disks + simulated network; factor 0 is the single-node path)")
	fmt.Fprintf(w, "%7s %7s %10s %9s %9s %11s %9s\n",
		"factor", "policy", "msgs/s", "p50", "p99", "fsyncs/msg", "vs f0")
	var base float64
	for _, r := range rows {
		rel := "-"
		if r.Factor == 0 {
			base = r.MsgsPerSec
		} else if base > 0 {
			rel = fmt.Sprintf("%.2fx", base/r.MsgsPerSec)
		}
		fmt.Fprintf(w, "%7d %7s %10.0f %7.2fms %7.2fms %11.3f %9s\n",
			r.Factor, r.Policy, r.MsgsPerSec, r.P50Ms, r.P99Ms, r.FsyncsPerMsg, rel)
	}
}
