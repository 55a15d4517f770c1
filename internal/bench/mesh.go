package bench

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/mesh"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/router"
	"infobus/internal/transport"
)

// A14: interest locality of the router mesh. A ring of N segments, each
// bridged to the next by one router, with stub subscriber hosts on every
// segment and the measured flow's subscribers on only the two segments
// next to the publisher. The mesh elects the ring into a spanning tree and
// propagates aggregated interest hop by hop with split horizon, so the
// publication traverses only the subscriber-bearing segments plus the
// connecting tree path. The pairwise interest relay this was first
// measured against (it flooded 17 of 50 segments, bounded only by the
// envelope hop budget) is gone from the router; its row is kept, dated, in
// EXPERIMENTS.md A14.
//
// The traversal count is measured on the wire: a raw observer endpoint on
// each segment counts data frames carrying the flow's payload marker. The
// marker lives in the PAYLOAD, not the subject — subject strings also
// appear inside interest advertisements, which would count as phantom
// traversals.

// meshMarker tags the measured flow's payload on the wire.
const meshMarker = "IB-A14-LOCALITY-MARKER"

// MeshLocalityRow is one measurement of the A14 table.
type MeshLocalityRow struct {
	Segments          int
	Hosts             int // stub subscriber hosts across all segments
	SubscriberSegs    int // segments holding interest in the measured flow
	SegmentsTraversed int // segments whose medium carried the flow
	DataFrames        uint64
}

// ringObserver counts marker-carrying frames on one segment's medium.
type ringObserver struct {
	ep     transport.Endpoint
	frames atomic.Uint64
}

// meshRing is the running A14 topology.
type meshRing struct {
	segs      []*transport.SimSegment
	routers   []*router.Router
	observers []*ringObserver
	conns     []*reliable.Conn // stubs + subscribers, drained
	pub       *reliable.Conn
	seq       int
	done      chan struct{}
	wg        sync.WaitGroup
}

// adSource is one stub's pre-encoded interest advertisement.
type adSource struct {
	conn *reliable.Conn
	env  []byte
}

func buildMeshRing(netCfg netsim.Config, segments, stubsPerSeg int) (*meshRing, error) {
	r := &meshRing{done: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			r.Close()
		}
	}()

	segName := func(i int) string { return fmt.Sprintf("s%02d", i) }
	for i := 0; i < segments; i++ {
		r.segs = append(r.segs, transport.NewSimSegment(netCfg))
	}

	// Routers first, so their endpoints join quiet segments. Interest heard
	// from stubs stays valid across the measurement window as long as the
	// stubs refresh inside the TTL.
	//
	// Protocol cadence is the scaling limit of this harness, not the
	// modelled medium: a reliable conn's housekeeping ticks at
	// NakInterval/4 and walks every broadcast peer it has heard, and a
	// segment here has ~(stubsPerSeg+2) endpoints hearing each other. At
	// 5 000 hosts the default millisecond-scale timers would cost the host
	// hundreds of millions of peer-loop iterations per second, so the
	// routers tick at tens of milliseconds and the stub population (which
	// only refreshes interest) at hundreds.
	relCfg := reliable.Config{
		NakInterval:        20 * time.Millisecond,
		GapTimeout:         2 * time.Second,
		RetransmitInterval: 50 * time.Millisecond,
		HeartbeatInterval:  time.Second,
	}
	// Every control frame fans out to every endpoint on its segment, so the
	// host's delivery budget is frames/s × (stubsPerSeg+3) × segments — the
	// full ring is ~5 150 endpoints. Two-second hellos keep the control
	// plane's global fan-out in the low tens of thousands of deliveries per
	// second; tree convergence does not care, because mesh changes trigger
	// immediate hello rounds and propagate at Debounce speed, not
	// HelloInterval speed.
	mcfg := mesh.Config{
		HelloInterval:  2 * time.Second,
		Debounce:       100 * time.Millisecond,
		StatusInterval: -1,
	}
	for i := 0; i < segments; i++ {
		j := (i + 1) % segments
		rt, err := router.New(router.Options{
			Name:     fmt.Sprintf("r%02d", i),
			Reliable: relCfg,
			// Long TTL: the stub population is static, so interest only
			// needs refreshing against expiry (the stubs every 30 s, the
			// routers every TTL/4).
			InterestTTL: 60 * time.Second,
			Mesh:        mcfg,
		},
			router.Attachment{Segment: r.segs[i], Name: segName(i)},
			router.Attachment{Segment: r.segs[j], Name: segName(j)},
		)
		if err != nil {
			return nil, err
		}
		r.routers = append(r.routers, rt)
	}

	// One raw observer per segment: it never sends, it only counts frames
	// whose payload carries the flow marker.
	for i := 0; i < segments; i++ {
		ep, err := r.segs[i].NewEndpoint("obs")
		if err != nil {
			return nil, err
		}
		obs := &ringObserver{ep: ep}
		r.observers = append(r.observers, obs)
		r.wg.Add(1)
		go func(obs *ringObserver) {
			defer r.wg.Done()
			for dg := range obs.ep.Recv() {
				if bytes.Contains(dg.Payload, []byte(meshMarker)) {
					obs.frames.Add(1)
				}
			}
		}(obs)
	}

	// Stub hosts: each advertises interest in its own segment-scoped
	// subjects (nobody publishes them — they are the background population
	// whose interest the mesh must aggregate), at a lazy refresh inside the
	// routers' InterestTTL. The measured flow's subscribers sit on segments
	// 1 and 2, right next to the publisher's segment 0.
	stubCfg := reliable.Config{
		NakInterval:        4 * time.Second,
		GapTimeout:         8 * time.Second,
		RetransmitInterval: 4 * time.Second,
		HeartbeatInterval:  300 * time.Second,
	}
	var ads []adSource
	newStub := func(seg int, name string, patterns []string) error {
		ep, err := r.segs[seg].NewEndpoint(name)
		if err != nil {
			return err
		}
		conn := reliable.New(ep, stubCfg)
		r.conns = append(r.conns, conn)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for range conn.Recv() {
			}
		}()
		ads = append(ads, adSource{conn: conn, env: busproto.Encode(busproto.Envelope{
			Kind: busproto.KindInterest, Patterns: patterns,
		})})
		return nil
	}
	for j := 0; j < segments; j++ {
		for i := 0; i < stubsPerSeg; i++ {
			// Eight distinct first-level namespaces per segment: enough
			// diversity to exercise aggregation.
			pat := fmt.Sprintf("seg%02d.h%d.>", j, i%8)
			if err := newStub(j, fmt.Sprintf("stub%02d-%d", j, i), []string{pat}); err != nil {
				return nil, err
			}
		}
	}
	for _, seg := range []int{1 % segments, 2 % segments} {
		if err := newStub(seg, fmt.Sprintf("flowsub%02d", seg), []string{"bench.>"}); err != nil {
			return nil, err
		}
	}

	// The interest refresher: one goroutine walks every stub, so 5000 hosts
	// cost one timer, not 5000. The walk is paced — a burst of 5 000 ads
	// in one instant stalls every segment's wire for seconds on a small
	// host — and the cadence stays well inside the routers' 60 s
	// InterestTTL even with the walk itself taking several seconds.
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ticker := time.NewTicker(30 * time.Second)
		defer ticker.Stop()
		send := func() {
			for _, ad := range ads {
				_ = ad.conn.Publish(ad.env)
				_ = ad.conn.Flush()
				select {
				case <-r.done:
					return
				default:
				}
				time.Sleep(time.Millisecond)
			}
		}
		send()
		for {
			select {
			case <-r.done:
				return
			case <-ticker.C:
				send()
			}
		}
	}()

	pubEp, err := r.segs[0].NewEndpoint("flowpub")
	if err != nil {
		return nil, err
	}
	r.pub = reliable.New(pubEp, relCfg)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for range r.pub.Recv() {
		}
	}()
	ok = true
	return r, nil
}

func (r *meshRing) Close() {
	select {
	case <-r.done:
	default:
		close(r.done)
	}
	for _, rt := range r.routers {
		_ = rt.Close()
	}
	if r.pub != nil {
		_ = r.pub.Close()
	}
	for _, c := range r.conns {
		_ = c.Close()
	}
	for _, o := range r.observers {
		_ = o.ep.Close()
	}
	for _, s := range r.segs {
		_ = s.Close()
	}
	r.wg.Wait()
}

func (r *meshRing) reset() {
	for _, o := range r.observers {
		o.frames.Store(0)
	}
}

func (r *meshRing) traversed() (segs int, frames uint64) {
	for _, o := range r.observers {
		if n := o.frames.Load(); n > 0 {
			segs++
			frames += n
		}
	}
	return segs, frames
}

// waitQuiet polls the wire footprint until it has not moved for `quiet`
// (or `max` elapses). Fixed post-publish sleeps are not enough: at 5 000
// hosts the host CPU is oversubscribed by the simulation itself and
// delivery can lag publication by whole seconds.
func (r *meshRing) waitQuiet(quiet, max time.Duration) {
	deadline := time.Now().Add(max)
	lastSegs, lastFrames := r.traversed()
	lastChange := time.Now()
	for time.Now().Before(deadline) && time.Since(lastChange) < quiet {
		time.Sleep(100 * time.Millisecond)
		s, f := r.traversed()
		if s != lastSegs || f != lastFrames {
			lastSegs, lastFrames, lastChange = s, f, time.Now()
		}
	}
}

// publish sends n marker-carrying publications on the flow subject, paced
// so the modelled medium is never the variable under test.
func (r *meshRing) publish(n int) error {
	for i := 0; i < n; i++ {
		r.seq++
		payload := fmt.Appendf(nil, "%s-%06d", meshMarker, r.seq)
		env := busproto.Encode(busproto.Envelope{
			Kind: busproto.KindPublish, Subject: "bench.data", Payload: payload,
		})
		if err := r.pub.Publish(env); err != nil {
			return err
		}
		if err := r.pub.Flush(); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// MeasureMeshLocality runs A14: build the ring, wait until the per-probe
// traversal stabilizes (tree election and interest propagation), then
// measure a clean window.
func MeasureMeshLocality(netCfg netsim.Config, segments, stubsPerSeg, msgs int) (MeshLocalityRow, error) {
	row := MeshLocalityRow{
		Segments:       segments,
		Hosts:          segments * stubsPerSeg,
		SubscriberSegs: 2,
	}
	// A14's metric is a wire frame count, not wall time, so unlike the
	// latency figures it may run the medium faster than the -speedup
	// convention: netsim spins sub-millisecond occupancy and latency
	// sleeps for precision, and at Speedup 10 a 5 000-endpoint ring
	// demands several cores of spin — the wire backlog then grows without
	// bound on a small host. The footprint itself is speedup-invariant.
	if netCfg.Speedup < 500 {
		netCfg.Speedup = 500
	}
	ring, err := buildMeshRing(netCfg, segments, stubsPerSeg)
	if err != nil {
		return row, err
	}
	defer ring.Close()

	// Probe until the traversal footprint stops changing: it shrinks as the
	// election cuts the ring and interest converges. Each probe itself
	// waits for the wire to go quiet before reading, and the warmup floor
	// covers the paced initial interest walk (~1 ms per stub).
	const warmupFloor = 15 * time.Second
	started := time.Now()
	last, stable := -1, 0
	deadline := started.Add(150 * time.Second)
	for (stable < 12 || time.Since(started) < warmupFloor) && time.Now().Before(deadline) {
		ring.reset()
		if err := ring.publish(1); err != nil {
			return row, err
		}
		ring.waitQuiet(700*time.Millisecond, 6*time.Second)
		if n, _ := ring.traversed(); n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}

	// Quiet period so warmup retransmissions drain, then the clean window.
	time.Sleep(time.Second)
	ring.reset()
	if err := ring.publish(msgs); err != nil {
		return row, err
	}
	ring.waitQuiet(2*time.Second, 30*time.Second)
	row.SegmentsTraversed, row.DataFrames = ring.traversed()
	return row, nil
}

// PrintFigureA14 renders the locality row.
func PrintFigureA14(w io.Writer, r MeshLocalityRow) {
	fmt.Fprintln(w, "A14: interest-routed mesh locality (ring of segments, publisher on s00,")
	fmt.Fprintln(w, "     flow subscribers on s01+s02 only; wire-observed data-frame footprint)")
	fmt.Fprintf(w, "%9s %7s %10s %13s %12s\n",
		"segments", "hosts", "sub-segs", "seg-traversed", "data-frames")
	fmt.Fprintf(w, "%9d %7d %10d %13d %12d\n",
		r.Segments, r.Hosts, r.SubscriberSegs, r.SegmentsTraversed, r.DataFrames)
}
