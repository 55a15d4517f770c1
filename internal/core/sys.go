package core

import (
	"time"

	"infobus/internal/busproto"
	"infobus/internal/sysagent"
	"infobus/internal/telemetry"
)

// This file is everything host-specific about "_sys" telemetry: which
// watches and history series a host registers and how a host publishes. The
// objects, subjects, cadences and probe answers are internal/sysagent's; the
// host loop (loop.go) hears the probes and hands the agent the time.

// historyFamilies bounds the subject-family table published with each
// SysHistory object (merged across the daemon's per-lane tables).
const historyFamilies = 16

// ledgerBacklogRaise is the ledger pending count at which the
// "ledger-backlog" alarm raises.
const ledgerBacklogRaise = 4096

// sysConfig is the tierless part of the host's agent config.
func (h *Host) sysConfig() sysagent.Config {
	return sysagent.Config{
		Node:      h.name,
		Registry:  h.reg,
		TypeCache: h.typeCache,
		Publish:   h.publishSys,
		Metrics:   h.metrics,
	}
}

// publishSys is the internal publish path: through the daemon directly,
// which is why applications going through Bus.Publish can be denied the
// "_sys.>" space without breaking the export. Best-effort: a closing
// daemon returns ErrClosed, which is fine.
func (h *Host) publishSys(subj string, payload []byte) {
	s, err := h.subjects.Parse(subj)
	if err != nil {
		return
	}
	_ = h.daemon.Publish(s, payload)
	_ = h.daemon.Flush()
}

// startSys plugs the host's enabled tiers into its "_sys" agent. With every
// tier off there is none.
func (h *Host) startSys(cfg HostConfig, hcfg telemetry.HealthConfig, relPrefix string) error {
	tc := cfg.Telemetry
	if tc.StatsInterval <= 0 && tc.HistoryInterval <= 0 && h.engine == nil {
		return nil
	}
	sc := h.sysConfig()
	sc.StatsInterval = tc.StatsInterval
	if tc.HistoryInterval > 0 {
		h.hist = telemetry.NewHistory(telemetry.HistoryConfig{Interval: tc.HistoryInterval})
		h.trackDefaults(cfg.ReplicationFactor > 0 || cfg.ReplicaDir != "", relPrefix)
		sc.History = h.hist
		ticks := tc.HistoryDigestTicks
		if ticks == 0 {
			ticks = sysagent.DigestSamples
		}
		if ticks > 0 {
			sc.DigestEvery = time.Duration(ticks) * h.hist.Interval()
		}
		sc.Families = func() []telemetry.TopKEntry { return h.daemon.TopSubjects(historyFamilies) }
	}
	if h.engine != nil {
		h.watchDefaults(hcfg, relPrefix)
		sc.Engine, sc.HealthInterval = h.engine, hcfg.Interval
	}
	var err error
	h.sys, err = sysagent.New(sc)
	return err
}

// watchDefaults registers the host-level alarm watches. The daemon
// registers its own (per-client queue depth, dedup-ring pressure) because
// it owns those signals; the host registers the retransmission rate of its
// reliable stream and the guaranteed-delivery ledger backlog, because those
// layers only expose gauges and counters, not policy.
func (h *Host) watchDefaults(hcfg telemetry.HealthConfig, relPrefix string) {
	// Retransmit storm: the per-second rate of the host's retransmissions —
	// the reliable stream's plus the guaranteed-delivery retrier's, since
	// both re-occupy the medium. A lossy segment, a receiver NAK-looping,
	// or a guaranteed publication with no live consumer drives this;
	// sustained storms starve the shared medium (the appendix's throughput
	// figures assume a lightly loaded Ethernet).
	relRetrans := h.metrics.Counter(relPrefix + ".retransmits")
	guarRetrans := h.ctr.guarRetransmits
	h.engine.WatchRateFunc(telemetry.WatchConfig{
		Kind:  "retransmit-storm",
		Raise: hcfg.RetransmitStormRate,
	}, func() int64 { return int64(relRetrans.Load() + guarRetrans.Load()) })
	if h.ledger != nil {
		// Ledger backlog: guaranteed publications no consumer has
		// acknowledged. Growth means the retrier is spinning on a
		// publication nobody subscribes to, or consumers are gone.
		h.engine.Watch(telemetry.WatchConfig{
			Kind:  "ledger-backlog",
			Raise: ledgerBacklogRaise,
		}, h.metrics.Gauge("ledger.pending").Load)
	}
}

// trackDefaults registers the host's standing history series. Instruments
// are fetched by name from the shared metrics registry, so layers that
// attach later (the qledger replication agent) feed the same rings.
func (h *Host) trackDefaults(replicated bool, relPrefix string) {
	m, hist := h.metrics, h.hist
	hist.TrackRate("bus.published", m.Counter("bus.published"))
	hist.TrackRate("bus.events", m.Counter("bus.events"))
	hist.TrackRate("bus.published_guaranteed", m.Counter("bus.published_guaranteed"))
	hist.TrackRate("daemon.inbound", m.Counter("daemon.inbound"))
	hist.TrackRate("daemon.delivered_local", m.Counter("daemon.delivered_local"))
	hist.TrackRate(relPrefix+".retransmits", m.Counter(relPrefix+".retransmits"))
	// Aggregate delivery backlog across the daemon's lanes: where a slow
	// consumer's queue actually sits.
	hist.TrackLevelFunc("daemon.lane_depth", func() int64 {
		var sum int64
		for _, d := range h.daemon.LaneDepths() {
			sum += d
		}
		return sum
	})
	if h.ledger != nil {
		hist.TrackRate("ledger.commits", m.Counter("ledger.commits"))
		hist.TrackRate("ledger.fsyncs", m.Counter("ledger.fsyncs"))
		hist.TrackLevel("ledger.pending", m.Gauge("ledger.pending"))
		hist.TrackHist("ledger.commit_ns", m.Histogram("ledger.commit_ns"))
	}
	if replicated {
		// Registered before the qledger agent attaches; the registry hands
		// the agent the same instruments by name.
		hist.TrackRate("qledger.acks_recv", m.Counter("qledger.acks_recv"))
		hist.TrackLevel("qledger.repl_lag", m.Gauge("qledger.repl_lag"))
		hist.TrackHist("qledger.quorum_wait_ns", m.Histogram("qledger.quorum_wait_ns"))
	}
	if h.tracing {
		hist.TrackHist("daemon.trace_e2e_ns", m.Histogram("daemon.trace_e2e_ns"))
	}
}

// publishTraceSidecar emits the late stage of a sampled guaranteed
// publication — the quorum-ack hop, known only after the envelope has
// been disseminated — through the host's agent. A host with every tier off
// gets a tierless agent (the Sys classes and the publish func, nothing to
// tick) on its first sidecar. By then h.reg has been harvesting peers'
// classes: if one of them is a stranger under a Sys name there is no agent
// (sysagent.New) and the sidecar is skipped.
func (h *Host) publishTraceSidecar(traceID uint64, quorumAt int64) {
	h.mu.Lock()
	if h.sys == nil && !h.closed {
		h.sys, _ = sysagent.New(h.sysConfig())
	}
	sys := h.sys
	h.mu.Unlock()
	if sys != nil {
		sys.Trace(traceID, []busproto.TraceHop{{Kind: busproto.HopQuorumAck, Node: h.name, At: quorumAt}})
	}
}
