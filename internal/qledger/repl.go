package qledger

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"infobus/internal/core"
	"infobus/internal/daemon"
	"infobus/internal/ledger"
	"infobus/internal/rmi"
	"infobus/internal/subject"
	"infobus/internal/sysagent"
	"infobus/internal/telemetry"
)

// Replication subjects. They live in the reserved "_sys" space: only the
// bus machinery publishes there, so replicas can trust the frames.
var (
	subjBatch   = subject.MustParse("_sys.repl.batch")
	subjAck     = subject.MustParse("_sys.repl.ack")
	subjBeat    = subject.MustParse("_sys.repl.beat")
	subjRead    = subject.MustParse("_sys.repl.read")
	subjReadRep = subject.MustParse("_sys.repl.readrep")
	subjRelease = subject.MustParse("_sys.repl.release")
)

// replPattern is what the agent hears on its host's loop.
const replPattern = "_sys.repl.>"

// Agent errors.
var (
	// ErrQuorumTimeout: a guaranteed publication did not reach a majority
	// of the replication group within Config.AckTimeout. The entry is
	// still durable locally, disseminated, and covered by the retrier and
	// crash recovery — only the quorum guarantee is unconfirmed.
	ErrQuorumTimeout = errors.New("qledger: quorum acknowledgement timeout")
	// ErrClosed: the agent (or its host) is shutting down.
	ErrClosed = errors.New("qledger: closed")
)

// Config tunes a replication agent (infobus.ReplicationConfig). The zero
// value is not valid: set Factor, Dir, or both.
type Config struct {
	// Factor is the number of peer replicas each committed batch is
	// mirrored to; the replication group is this host plus Factor
	// replicas, and publishes are acknowledged at majority durability.
	// 0 disables the publisher role.
	Factor int
	// AckTimeout bounds the quorum wait in PublishGuaranteed. Default 5s.
	AckTimeout time.Duration
	// FsyncPolicy selects replica durability: "batch" (default, fsync per
	// applied batch) or "lazy" (no fsync).
	FsyncPolicy string
	// Dir enables the replica role: mirrored batches from other
	// publishers are stored in per-origin ledgers under it.
	Dir string
	// BeatInterval is the publisher's liveness beacon period, and the
	// recovery-coordinator election's: a publisher silent for four beats is
	// presumed crashed, as an election member is. Default 250ms.
	BeatInterval time.Duration
	// RetryInterval paces chunk retransmission, and is the base interval of
	// the recovery coordinator's retrier (core.Retrier). Default 100ms.
	RetryInterval time.Duration
	// GatherDelay is the replica-side group-commit window: the chunks heard
	// within it of the first one are applied together, so a single fsync
	// (and a single ack round) covers the whole run. Without it a steady
	// trickle of staggered publishers settles into one fsync per chunk —
	// each ack releases one publisher, whose next commit arrives alone, so
	// batches never re-form anywhere in the pipeline. Costs its value in
	// quorum latency when traffic is sparse. 0 disables (the default).
	GatherDelay time.Duration
	// DisableRecovery keeps this replica out of the coordinator election
	// (it still stores and acks batches).
	DisableRecovery bool

	// Fixed except by in-package tests:
	//   - readTimeout bounds one majority-read round during recovery: 500ms;
	//   - replLagRaise is the replica-ack latency watermark: the "repl-lag"
	//     alarm raises when the oldest outstanding (not yet at quorum) chunk
	//     is older than this, and clears with the engine's hysteresis once
	//     the age halves: AckTimeout / 2;
	//   - quorumStallRaise is the quorum-pending backlog watermark: the
	//     "quorum-stall" alarm raises when this many chunks sit in the
	//     outbox awaiting replica acks: 64.
	readTimeout      time.Duration
	replLagRaise     time.Duration
	quorumStallRaise int64
}

func (c Config) withDefaults() Config {
	if c.AckTimeout <= 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.BeatInterval <= 0 {
		c.BeatInterval = 250 * time.Millisecond
	}
	if c.readTimeout <= 0 {
		c.readTimeout = 500 * time.Millisecond
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 100 * time.Millisecond
	}
	if c.replLagRaise <= 0 {
		c.replLagRaise = c.AckTimeout / 2
	}
	if c.quorumStallRaise <= 0 {
		c.quorumStallRaise = 64
	}
	return c
}

// maxChunk bounds one mirrored frame's record run; a larger commit batch
// is split at record boundaries into several chunks.
const maxChunk = 256 << 10

// maxReadRep bounds one recovery read reply. A replica with more pending
// data answers with a prefix; the coordinator's re-scan covers the rest.
const maxReadRep = 1 << 20

// chunk is one mirrored batch awaiting quorum.
type chunk struct {
	frame []byte   // encoded FrameBatch, kept for retransmission
	ids   []uint64 // message ids the chunk carries
	acks  map[string]struct{}
	done  chan struct{} // closed at quorum
	sent  time.Time     // last (re)transmission, for retry pacing
	// created is the chunk's build time: the repl-lag watch reports the
	// age of the oldest outstanding chunk, and quorumAt - created is the
	// quorum-wait observation.
	created time.Time
	// quorumAt (unix ns) is stamped under a.mu when the write quorum is
	// reached, before done closes, so a Gate waiter reads it race-free.
	// It becomes the trace timeline's HopQuorumAck stamp.
	quorumAt int64
}

// Agent is one host's replication tier: the publisher side mirrors ledger
// commits and gates PublishGuaranteed on quorum acks; the replica side
// stores peers' batches and takes part in the recovery-coordinator
// election. It is a part on its host's loop (core.Part) hearing
// "_sys.repl.>", and so is its election: no goroutine, timer or daemon
// client of its own. Attach wires it; the host's Close tears it down.
type Agent struct {
	h     *core.Host
	d     *daemon.Daemon
	cfg   Config
	store *Store // nil without Config.Dir

	origin  string // this host's publisher identity (daemon token)
	replica string // stable replica identity (store token)
	need    int    // replica acks for a write quorum
	readQ   int    // distinct replicas for a read quorum
	// crashTimeout is how long the coordinator waits without hearing a
	// publisher before fostering its pending entries: four beats, the
	// election's member lifetime.
	crashTimeout time.Duration

	lag  *telemetry.Gauge // chunks mirrored but not yet at quorum
	lost *telemetry.Gauge // 1 while the last quorum wait timed out
	ctr  counters
	rec  *telemetry.Recorder

	// Shared with the ledger's commit hook (on whichever thread leads a
	// commit), Gate callers and foster-ack callbacks.
	mu      sync.Mutex
	nextSeq uint64
	outbox  map[uint64]*chunk
	idSeq   map[uint64]uint64 // ledger id -> chunk seq, until quorum
	recentQ map[uint64]int64  // ledger id -> quorum stamp, for gates arriving after the ack
	ackBuf  []byte            // deferred ack records, piggybacked on the next chunk
	closed  bool

	// Owned by the loop: Tick, Hear, Promote and Retire.
	retry, beat sysagent.Every // chunk retransmission; the beat and the coordinator's scan
	beatFrame   []byte
	batches     []Frame              // heard and not yet applied: one group commit
	gather      time.Time            // when the batches are applied (GatherDelay)
	heard       map[string]time.Time // origin -> last heard; zero: heard since the last scan
	recovering  map[string]*recovery
	round       uint64
	leading     bool

	election *rmi.Election
	remove   func() // takes the agent off its host's loop
}

type counters struct {
	batchesSent, acksRecv     *telemetry.Counter
	batchesStored, acksSent   *telemetry.Counter
	recoveries, replayedMsgs  *telemetry.Counter
	quorumTimeouts, retransms *telemetry.Counter
	quorumWait                *telemetry.Histogram // chunk build -> write quorum
}

// Attach starts the replication tier on a host. With Factor > 0 the host
// must have a ledger (the publisher role hooks its commit stream); with
// Dir set the host stores peers' batches. The agent registers itself as a
// host close hook, so a plain Host.Close tears everything down in order.
func Attach(h *core.Host, cfg Config) (*Agent, error) {
	a, err := newAgent(h, cfg)
	if err != nil {
		return nil, err
	}
	if a.remove, err = h.AddPart(a, replPattern); err != nil {
		_ = a.closeStore()
		return nil, err
	}
	if a.store != nil && !a.cfg.DisableRecovery {
		if a.election, err = rmi.NewElection(h, a, "_qrecover", a.cfg.BeatInterval); err != nil {
			a.remove()
			_ = a.closeStore()
			return nil, err
		}
	}
	if a.cfg.Factor > 0 {
		h.Ledger().SetOnCommit(a.onCommit)
		h.SetGuaranteeGate(a.Gate)
		if hist := h.History(); hist != nil {
			hist.TrackRate("qledger.acks_recv", a.ctr.acksRecv)
			hist.TrackLevel("qledger.repl_lag", a.lag)
			hist.TrackHist("qledger.quorum_wait_ns", a.ctr.quorumWait)
		}
		if eng := h.HealthEngine(); eng != nil {
			eng.Watch(telemetry.WatchConfig{Kind: "quorum-lost", Raise: 1},
				a.lost.Load)
			// Replica-ack latency watermark: the engine's clear threshold
			// (Raise/2) gives the edge hysteresis.
			eng.Watch(telemetry.WatchConfig{Kind: "repl-lag",
				Raise: a.cfg.replLagRaise.Milliseconds()}, a.oldestOutstandingMs)
			eng.Watch(telemetry.WatchConfig{Kind: "quorum-stall",
				Raise: a.cfg.quorumStallRaise}, a.lag.Load)
		}
	}
	h.AddCloseHook(a.Close)
	return a, nil
}

// newAgent builds the agent — its counters and replica store — without
// putting it on the host's loop.
func newAgent(h *core.Host, cfg Config) (*Agent, error) {
	cfg = cfg.withDefaults()
	if cfg.Factor < 0 {
		return nil, fmt.Errorf("qledger: negative replication factor %d", cfg.Factor)
	}
	if cfg.Factor == 0 && cfg.Dir == "" {
		return nil, errors.New("qledger: nothing to do (Factor 0 and no replica dir)")
	}
	switch cfg.FsyncPolicy {
	case "", "batch", "lazy":
	default:
		return nil, fmt.Errorf("qledger: unknown fsync policy %q", cfg.FsyncPolicy)
	}
	if cfg.Factor > 0 && h.Ledger() == nil {
		return nil, errors.New("qledger: replication requires a ledger (set LedgerPath)")
	}
	a := &Agent{
		h:            h,
		d:            h.Daemon(),
		cfg:          cfg,
		origin:       h.Daemon().Identity(),
		need:         (cfg.Factor + 1) / 2,
		readQ:        cfg.Factor + 1 - (cfg.Factor+1)/2,
		crashTimeout: 4 * cfg.BeatInterval,
		outbox:       make(map[uint64]*chunk),
		idSeq:        make(map[uint64]uint64),
		recentQ:      make(map[uint64]int64),
		retry:        sysagent.Every{D: cfg.RetryInterval},
		beat:         sysagent.Every{D: cfg.BeatInterval},
		heard:        make(map[string]time.Time),
		recovering:   make(map[string]*recovery),
		rec:          h.Recorder(),
	}
	if cfg.Factor > 0 {
		a.beatFrame = AppendFrame(nil, Frame{Type: FrameBeat, Origin: a.origin})
	}
	m := h.Metrics()
	a.lag = m.Gauge("qledger.repl_lag")
	a.lost = m.Gauge("qledger.quorum_lost")
	a.ctr = counters{
		batchesSent:    m.Counter("qledger.batches_sent"),
		acksRecv:       m.Counter("qledger.acks_recv"),
		batchesStored:  m.Counter("qledger.batches_stored"),
		acksSent:       m.Counter("qledger.acks_sent"),
		recoveries:     m.Counter("qledger.recoveries"),
		replayedMsgs:   m.Counter("qledger.replayed_msgs"),
		quorumTimeouts: m.Counter("qledger.quorum_timeouts"),
		retransms:      m.Counter("qledger.retransmits"),
		quorumWait:     m.Histogram("qledger.quorum_wait_ns"),
	}
	if cfg.Dir != "" {
		store, err := OpenStore(cfg.Dir, cfg.FsyncPolicy != "lazy", m)
		if err != nil {
			return nil, err
		}
		tok, err := stableReplicaToken(cfg.Dir)
		if err != nil {
			_ = store.Close()
			return nil, err
		}
		a.store, a.replica = store, tok
	}
	return a, nil
}

func (a *Agent) closeStore() error {
	if a.store == nil {
		return nil
	}
	return a.store.Close()
}

// Store exposes the replica store (nil on a publisher-only agent).
func (a *Agent) Store() *Store { return a.store }

// Origin returns this host's publisher identity token.
func (a *Agent) Origin() string { return a.origin }

// Leading reports whether this agent currently is the recovery
// coordinator.
func (a *Agent) Leading() bool {
	return a.election != nil && a.election.Leading()
}

// Close detaches the tier: unblock the quorum gates, leave the loop and the
// election (a coordinator's recoveries send their last release), close the
// replica store. Idempotent; also runs as the host close hook.
func (a *Agent) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	// Unblock every pending quorum gate.
	outbox := a.outbox
	a.outbox = make(map[uint64]*chunk)
	a.idSeq = make(map[uint64]uint64)
	a.mu.Unlock()
	for _, c := range outbox {
		close(c.done)
	}
	if a.cfg.Factor > 0 {
		if led := a.h.Ledger(); led != nil {
			led.SetOnCommit(nil)
		}
		a.h.SetGuaranteeGate(nil)
	}
	if a.remove != nil {
		a.remove()
	}
	if a.election != nil {
		a.election.Close()
	}
	_ = a.closeStore()
}

// Tick does the agent's periodic work: chunk retransmission every
// RetryInterval; every BeatInterval the idle ack flush, the beat and the
// replica's scan; the heard batches once the gather window closes; and each
// recovery the coordinator runs.
func (a *Agent) Tick(now time.Time) time.Time {
	var next time.Time
	if a.cfg.Factor > 0 {
		if a.retry.Due(now) {
			a.resend(now)
		}
		next = a.retry.At
	}
	if a.beat.Due(now) {
		if a.cfg.Factor > 0 {
			a.publishBeat()
		}
		if a.store != nil {
			a.scan(now)
		}
	}
	next = sysagent.Earliest(next, a.beat.At)
	if len(a.batches) > 0 {
		if a.gather.IsZero() {
			a.gather = now.Add(a.cfg.GatherDelay)
		}
		if now.Before(a.gather) {
			next = sysagent.Earliest(next, a.gather)
		} else {
			a.applyBatches()
		}
	}
	for origin, r := range a.recovering {
		next = sysagent.Earliest(next, a.advance(origin, r, now))
	}
	return next
}

// Hear takes one replication frame, in arrival order. A batch frame queues
// for the next group commit; any other frame first applies the batches
// heard before it, so a release or a read never overtakes a batch it
// follows.
func (a *Agent) Hear(_, payload []byte) {
	f, err := ParseFrame(payload)
	if err != nil {
		return // foreign or corrupt frame: drop, never crash
	}
	if f.Type == FrameBatch {
		if a.store != nil && f.Origin != a.origin {
			a.noteHeard(f.Origin)
			if a.batches = append(a.batches, f); len(a.batches) >= maxDrain {
				a.applyBatches()
			}
		}
		return
	}
	a.applyBatches()
	switch f.Type {
	case FrameAck:
		a.handleAck(f)
	case FrameBeat:
		a.noteHeard(f.Origin)
	case FrameReadReq:
		a.handleReadReq(f)
	case FrameReadRep:
		a.handleReadRep(f)
	case FrameRelease:
		if a.store != nil && f.Origin != "" && len(f.Records) > 0 {
			_ = a.store.Release(f.Origin, f.Records)
		}
	}
}

// ---------------------------------------------------------------------------
// Publisher side

// onCommit runs for every durable batch, on the thread that led the
// ledger's commit: a PublishGuaranteed caller, the host loop's retry walk
// flushing what is staged (acks, and at times waiting callers' message
// records, whose chunks it then builds and broadcasts on the loop), or the
// ledger's Close. It takes a.mu, so nothing may call into the ledger
// holding a.mu. Message records mirror immediately — a publisher is gated
// on them. Ack records are deferred: they only drive replica-side trimming,
// and a frame per consumer acknowledgement would double the chunk (and
// replica fsync) rate, so they ride along in front of the next data chunk,
// or go out on the beat when the publisher is idle. The hook must not
// retain cb's slices (the ledger recycles them), so everything is copied
// here.
func (a *Agent) onCommit(cb ledger.CommitBatch) {
	var msgs, acks []byte
	for off := 0; off < len(cb.Records); {
		rec, n, err := ledger.NextRecord(cb.Records[off:])
		if err != nil {
			// The ledger just wrote these bytes; a parse failure here is
			// a programming error, not runtime input.
			panic(fmt.Sprintf("qledger: commit batch does not re-parse: %v", err))
		}
		if rec.Ack {
			acks = append(acks, cb.Records[off:off+n]...)
		} else {
			msgs = append(msgs, cb.Records[off:off+n]...)
		}
		off += n
	}
	var frames [][]byte
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.ackBuf = append(a.ackBuf, acks...)
	if len(msgs) > 0 || len(a.ackBuf) >= maxChunk {
		// Deferred acks go in front: an ack's message record always sits in
		// an earlier chunk (the consumer acked a mirrored publication), so
		// prepending cannot reorder an ack before its message.
		records := append(a.ackBuf, msgs...)
		a.ackBuf = nil
		frames = a.buildChunksLocked(records)
	}
	a.lag.Set(int64(len(a.outbox)))
	a.mu.Unlock()
	if a.broadcast(frames, a.ctr.batchesSent) {
		_ = a.d.Flush()
	}
}

// broadcast publishes chunk frames, counting each in ctr, and reports
// whether there were any.
func (a *Agent) broadcast(frames [][]byte, ctr *telemetry.Counter) bool {
	for _, f := range frames {
		_ = a.d.Publish(subjBatch, f)
		ctr.Inc()
	}
	return len(frames) > 0
}

// buildChunksLocked cuts a validated record run into outbox chunks at
// record boundaries (maxChunk each) and returns the frames to broadcast.
// Caller holds a.mu.
func (a *Agent) buildChunksLocked(records []byte) [][]byte {
	var frames [][]byte
	for len(records) > 0 {
		end := 0
		var ids []uint64
		for end < len(records) {
			rec, n, err := ledger.NextRecord(records[end:])
			if err != nil {
				panic(fmt.Sprintf("qledger: chunk run does not re-parse: %v", err))
			}
			if end > 0 && end+n > maxChunk {
				break
			}
			if !rec.Ack {
				ids = append(ids, rec.ID)
			}
			end += n
		}
		a.nextSeq++
		now := time.Now()
		c := &chunk{
			frame: AppendFrame(nil, Frame{
				Type: FrameBatch, Origin: a.origin, Seq: a.nextSeq,
				Records: records[:end],
			}),
			ids:     ids,
			acks:    make(map[string]struct{}),
			done:    make(chan struct{}),
			sent:    now,
			created: now,
		}
		a.outbox[a.nextSeq] = c
		for _, id := range ids {
			a.idSeq[id] = a.nextSeq
		}
		frames = append(frames, c.frame)
		records = records[end:]
	}
	return frames
}

// Gate blocks a PublishGuaranteed caller until the chunk carrying its
// ledger id reaches quorum, the timeout passes, or the agent closes. It
// is installed as the host's guarantee gate, and runs on the publishing
// caller, never on the loop. On success it reports when the write quorum
// was reached (unix ns; 0 when the stamp is unknown — e.g. the id was never
// replicated), which the bus layer turns into the trace timeline's
// HopQuorumAck hop.
func (a *Agent) Gate(id uint64) (int64, error) {
	a.mu.Lock()
	seq, ok := a.idSeq[id]
	if !ok {
		// Already at quorum (acks can land between the commit hook and
		// the publisher waking up — handleAck parked the stamp), or not
		// replicated at all.
		at := a.recentQ[id]
		delete(a.recentQ, id)
		a.mu.Unlock()
		return at, nil
	}
	c := a.outbox[seq]
	a.mu.Unlock()
	if c == nil {
		return 0, nil
	}
	timer := time.NewTimer(a.cfg.AckTimeout)
	defer timer.Stop()
	select {
	case <-c.done: // at quorum, or the agent closed
		a.mu.Lock()
		closed := a.closed
		delete(a.recentQ, id) // collected via the chunk below
		a.mu.Unlock()
		if closed {
			return 0, ErrClosed
		}
		return c.quorumAt, nil
	case <-timer.C:
		a.lost.Set(1)
		a.ctr.quorumTimeouts.Inc()
		if a.rec != nil {
			a.rec.Record(telemetry.EventRepl, "quorum-timeout", int64(id), int64(seq))
		}
		a.mu.Lock()
		got := len(c.acks)
		a.mu.Unlock()
		return 0, fmt.Errorf("%w (id %d, %d/%d replica acks)",
			ErrQuorumTimeout, id, got, a.need)
	}
}

// oldestOutstandingMs reports the age, in milliseconds, of the oldest
// chunk still awaiting its write quorum (0 with an empty outbox). It is
// the "repl-lag" watch's sample: a healthy group keeps it near the
// replica round trip, a stalled or partitioned replica set lets it grow
// toward AckTimeout.
func (a *Agent) oldestOutstandingMs() int64 {
	a.mu.Lock()
	var oldest time.Time
	for _, c := range a.outbox {
		if oldest.IsZero() || c.created.Before(oldest) {
			oldest = c.created
		}
	}
	a.mu.Unlock()
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest).Milliseconds()
}

// handleAck credits one replica ack to the publisher's outbox. MaxSeq
// closes every straggling chunk at or below the replica's contiguous
// high-water mark — content the replica provably holds even if the exact
// ack frame for it was lost.
func (a *Agent) handleAck(f Frame) {
	if f.Origin != a.origin || f.Replica == "" {
		return
	}
	a.ctr.acksRecv.Inc()
	var ready []*chunk
	now := time.Now()
	a.mu.Lock()
	for seq, c := range a.outbox {
		if seq != f.Seq && seq > f.MaxSeq {
			continue
		}
		if _, dup := c.acks[f.Replica]; dup {
			continue
		}
		c.acks[f.Replica] = struct{}{}
		if len(c.acks) >= a.need {
			c.quorumAt = now.UnixNano()
			delete(a.outbox, seq)
			if len(a.recentQ) > 4096 {
				// Crude epoch clear: a gate for an evicted id reports an
				// unknown (zero) quorum stamp, nothing worse.
				clear(a.recentQ)
			}
			for _, id := range c.ids {
				delete(a.idSeq, id)
				a.recentQ[id] = c.quorumAt
			}
			ready = append(ready, c)
			a.ctr.quorumWait.Observe(now.Sub(c.created))
		}
	}
	if len(ready) > 0 {
		a.lost.Set(0)
	}
	a.lag.Set(int64(len(a.outbox)))
	a.mu.Unlock()
	for _, c := range ready {
		close(c.done)
	}
}

// resend retransmits the chunks that have gone a full RetryInterval without
// reaching quorum. Reflooding the whole outbox every tick would congest the
// medium exactly when the replicas are behind.
func (a *Agent) resend(now time.Time) {
	var frames [][]byte
	a.mu.Lock()
	for _, c := range a.outbox {
		if now.Sub(c.sent) < a.cfg.RetryInterval {
			continue
		}
		c.sent = now
		frames = append(frames, c.frame)
	}
	a.mu.Unlock()
	if a.broadcast(frames, a.ctr.retransms) {
		_ = a.d.Flush()
	}
}

// publishBeat beats, first flushing the deferred ack records: with no data
// chunk to ride on, replica trimming proceeds at beat cadence.
func (a *Agent) publishBeat() {
	var frames [][]byte
	a.mu.Lock()
	if len(a.ackBuf) > 0 && !a.closed {
		records := a.ackBuf
		a.ackBuf = nil
		frames = a.buildChunksLocked(records)
	}
	a.mu.Unlock()
	a.broadcast(frames, a.ctr.batchesSent)
	_ = a.d.Publish(subjBeat, a.beatFrame)
	_ = a.d.Flush()
}

// ---------------------------------------------------------------------------
// Replica side

// maxDrain caps how many heard batch frames one replica group commit
// applies.
const maxDrain = 256

// applyBatches applies the batch frames heard since the last group commit.
func (a *Agent) applyBatches() {
	if len(a.batches) == 0 {
		return
	}
	a.handleBatches(a.batches)
	clear(a.batches) // the frames are views of their deliveries
	a.batches, a.gather = a.batches[:0], time.Time{}
}

// noteHeard restarts origin's silence clock at the next scan. Only an agent
// with a store, which may come to foster the origin, keeps one.
func (a *Agent) noteHeard(origin string) {
	if a.store == nil || origin == "" || origin == a.origin {
		return
	}
	a.heard[origin] = time.Time{}
}

// handleBatches stores a run of mirrored chunks — one ledger append (one
// fsync) per origin — and acks them. In the common in-order case one ack
// frame per origin covers the whole run via the contiguous high-water
// mark; chunks applied above a gap get an exact-seq ack each. Duplicates
// (retransmissions) skip the disk but still ack — the content is already
// durable here.
func (a *Agent) handleBatches(frames []Frame) {
	var order []string
	seqs := make(map[string][]uint64)
	recs := make(map[string][][]byte)
	for _, f := range frames {
		if f.Origin == "" || f.Seq == 0 {
			continue
		}
		if _, ok := seqs[f.Origin]; !ok {
			order = append(order, f.Origin)
		}
		seqs[f.Origin] = append(seqs[f.Origin], f.Seq)
		recs[f.Origin] = append(recs[f.Origin], f.Records)
	}
	sent := 0
	for _, origin := range order {
		contig, err := a.store.ApplyRun(origin, seqs[origin], recs[origin])
		if err != nil {
			continue // disk trouble: withhold the acks, the publisher retries
		}
		a.ctr.batchesStored.Add(uint64(len(seqs[origin])))
		acked := make(map[uint64]bool)
		for _, seq := range seqs[origin] {
			if seq <= contig || acked[seq] {
				continue // covered by the closing high-water ack below
			}
			acked[seq] = true
			_ = a.d.Publish(subjAck, AppendFrame(nil, Frame{
				Type: FrameAck, Origin: origin, Seq: seq, Replica: a.replica,
				MaxSeq: contig,
			}))
			sent++
		}
		if contig > 0 {
			_ = a.d.Publish(subjAck, AppendFrame(nil, Frame{
				Type: FrameAck, Origin: origin, Seq: contig, Replica: a.replica,
				MaxSeq: contig,
			}))
			sent++
		}
	}
	if sent > 0 {
		_ = a.d.Flush()
		a.ctr.acksSent.Add(uint64(sent))
	}
}

// handleReadReq answers a recovery coordinator's majority read with this
// replica's pending set for the origin. Replicas holding nothing answer
// too: an empty reply still counts toward the read quorum.
func (a *Agent) handleReadReq(f Frame) {
	if a.store == nil || f.Origin == "" || f.Round == 0 {
		return
	}
	rep := AppendFrame(nil, Frame{
		Type: FrameReadRep, Origin: f.Origin, Round: f.Round,
		Replica: a.replica, Records: a.store.PendingRecords(f.Origin, maxReadRep),
		MaxSeq: a.store.Contiguous(f.Origin),
	})
	_ = a.d.Publish(subjReadRep, rep)
	_ = a.d.Flush()
}
