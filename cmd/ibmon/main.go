// Command ibmon is a bus monitor (sniffer): it joins a multi-process UDP
// bus, subscribes to the given patterns, and pretty-prints every received
// object through the introspective print utility — objects of types the
// monitor has never seen included, since types travel self-describing
// (P2).
//
//	ibmon -listen 127.0.0.1:7009 -peers 127.0.0.1:7001,127.0.0.1:7002 -sub '>'
//
// With -sys it watches the bus watching itself: it subscribes to the
// reserved "_sys.>" telemetry space and periodically publishes a probe on
// "_sys.ping", so every exporting node answers with a pong and a fresh
// SysStats object. Consecutive SysStats snapshots from the same node are
// differenced into per-interval rates (msgs/s, bytes/s, retransmits/s);
// SysAlarm raise/clear edges and SysDump flight-recorder answers render as
// one-line events and verbatim text. Sampled per-hop traces riding on
// observed publications are assembled into full stage paths —
// publisher → ledger-stage → group-commit → quorum-ack → … → consumer
// lane hops — with per-stage latency percentiles, printed on exit (and
// periodically with -traces); SysTrace sidecars on "_sys.trace.>" (the
// quorum-ack stamp of replicated guaranteed publications) merge into the
// assembled routes by trace id. The kinds ibmon knows (stats, alarm, dump,
// trace, history, mesh status) it reads into the structs their publishers
// declare them with (telemetry.Schema, mesh.Schema), by attribute name, so a
// node of another build still renders what both know; every other object,
// "_sys" or not, renders through the generic print path.
//
//	ibmon -listen 127.0.0.1:7009 -peers 127.0.0.1:7001 -sys
//	ibmon -listen 127.0.0.1:7009 -peers 127.0.0.1:7001 -sys -dump
//
// With -sys -watch it renders live flight-data columns instead of raw
// events: each "_sys.history.<node>" digest (history-enabled nodes
// publish them every couple of seconds) becomes one line of rates, lane
// depth, commit/quorum percentiles, and the heaviest subject families.
//
//	ibmon -listen 127.0.0.1:7009 -peers 127.0.0.1:7001 -sys -watch
//
// With -sys -mesh it renders the router mesh: each "_sys.mesh.status.<node>"
// snapshot (every router publishes them periodically)
// becomes one line of spanning-tree state — elected root, hop cost, tree
// parent, and per-link port state / live peer count / aggregated interest
// heard on the link, from the hosts there and the routers behind it alike.
// Mesh-flap alarms arrive through the ordinary "_sys.alarm" rendering.
//
//	ibmon -listen 127.0.0.1:7009 -peers 127.0.0.1:7001 -sys -mesh
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"infobus"
	"infobus/internal/mesh"
	"infobus/internal/mop"
	"infobus/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7009", "UDP listen address")
	peers := flag.String("peers", "", "comma-separated UDP addresses of bus hosts")
	subFlag := flag.String("sub", ">", "comma-separated subscription patterns")
	sys := flag.Bool("sys", false, "monitor bus telemetry: subscribe _sys.> and ping exporters")
	pingEvery := flag.Duration("ping", 5*time.Second, "probe interval in -sys mode (0 disables)")
	dump := flag.Bool("dump", false, "publish a _sys.dump probe on each ping tick (prints flight recorders)")
	traces := flag.Duration("traces", 0, "print the assembled trace table at this interval (0: only on exit)")
	watch := flag.Bool("watch", false, "live flight-data mode: render _sys.history digests as rate/percentile columns (implies -sys)")
	meshMode := flag.Bool("mesh", false, "render router-mesh status ads as spanning-tree/link rows (implies -sys)")
	flag.Parse()
	if *watch || *meshMode {
		*sys = true
	}

	seg := infobus.NewStaticUDPSegment(*listen, strings.Split(*peers, ","))
	host, err := infobus.NewHost(seg, "ibmon", infobus.HostConfig{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibmon: %v\n", err)
		os.Exit(1)
	}
	defer host.Close()
	bus, err := host.NewBus("monitor")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibmon: %v\n", err)
		os.Exit(1)
	}

	mon := &monitor{
		rates: make(map[string]*snapshot),
		asm:   telemetry.NewTraceAssembler(),
		watch: *watch,
		mesh:  *meshMode,
	}

	patterns := strings.Split(*subFlag, ",")
	if *sys {
		patterns = []string{"_sys.>"}
	}
	for _, pattern := range patterns {
		pattern = strings.TrimSpace(pattern)
		if pattern == "" {
			continue
		}
		sub, err := bus.Subscribe(pattern)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ibmon: subscribe %q: %v\n", pattern, err)
			os.Exit(1)
		}
		fmt.Printf("ibmon: watching %s\n", pattern)
		go func() {
			for ev := range sub.C {
				mon.handle(ev)
			}
		}()
	}

	if *sys && *pingEvery > 0 {
		go func() {
			nonce := time.Now().UnixNano()
			ticker := time.NewTicker(*pingEvery)
			defer ticker.Stop()
			for {
				nonce++
				if err := bus.Publish(infobus.SysPingSubject, nonce); err != nil {
					return
				}
				if *dump {
					if err := bus.Publish(infobus.SysDumpSubject, nonce); err != nil {
						return
					}
				}
				<-ticker.C
			}
		}()
	}
	if *traces > 0 {
		go func() {
			ticker := time.NewTicker(*traces)
			defer ticker.Stop()
			for range ticker.C {
				if len(mon.asm.Routes()) > 0 {
					fmt.Print(mon.asm.Render())
				}
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	if len(mon.asm.Routes()) > 0 {
		fmt.Print(mon.asm.Render())
	}
	fmt.Println("ibmon: bye")
}

// monitor holds the -sys state: last stats snapshot per node (for rate
// differencing) and the trace assembler. All access is from the single
// subscription goroutine per pattern; with -sys there is exactly one
// pattern, so no locking is needed — the assembler locks internally for
// the periodic Render goroutine.
type monitor struct {
	rates      map[string]*snapshot
	asm        *telemetry.TraceAssembler
	watch      bool
	mesh       bool
	header     bool
	meshHeader bool
}

type snapshot struct {
	at       time.Time
	counters map[string]int64
}

func (m *monitor) handle(ev infobus.Event) {
	if len(ev.Trace) >= 2 {
		m.asm.AddTraced(ev.TraceID, ev.Trace)
	}
	subj := ev.Subject.String()
	switch {
	case strings.HasPrefix(subj, infobus.SysTracePrefix+"."):
		// Trace sidecar: late stage hops (quorum ack) merging by trace id.
		var tr telemetry.Trace
		if telemetry.SysTrace.Read(object(ev.Value), &tr) {
			m.asm.AddSidecar(tr.TraceID, tr.BusHops())
			return
		}
	case strings.HasPrefix(subj, mesh.StatusSubjectPrefix+"."):
		if m.mesh {
			if line, ok := m.meshLine(ev.Value); ok {
				fmt.Println(line)
			}
			return
		}
	case strings.HasPrefix(subj, infobus.SysHistoryPrefix+"."):
		if line, ok := m.historyLine(ev.Value); ok {
			fmt.Println(line)
			return
		}
	case strings.HasPrefix(subj, infobus.SysStatsPrefix+"."):
		if m.watch || m.mesh {
			return
		}
		if line, ok := m.statsLine(ev.Value); ok {
			fmt.Println(line)
			return
		}
	case strings.HasPrefix(subj, infobus.SysAlarmPrefix+"."):
		if line, ok := alarmLine(ev.Value); ok {
			fmt.Println(line)
			return
		}
	case strings.HasPrefix(subj, infobus.SysDumpedPrefix+"."):
		if text, ok := dumpText(ev.Value); ok {
			fmt.Print(text)
			return
		}
	}
	if m.watch || m.mesh {
		return // live modes show their tables and alarms only
	}
	qos := ""
	if ev.Guaranteed {
		qos = " (guaranteed)"
	}
	fmt.Printf("[%s]%s %s\n", subj, qos, infobus.Print(ev.Value))
}

// historyLine renders one SysHistory digest as a row of rate/percentile
// columns: publication and delivery rates averaged over the digest
// window, the delivery-lane backlog, commit and quorum latency p95s, and
// the heaviest subject families.
func (m *monitor) historyLine(v infobus.Value) (string, bool) {
	var d telemetry.HistorySnapshot
	if !telemetry.SysHistory.Read(object(v), &d) {
		return "", false
	}
	var b strings.Builder
	if m.watch && !m.header {
		m.header = true
		b.WriteString(fmt.Sprintf("%-12s %9s %9s %9s %7s %10s %10s  %s\n",
			"node", "pub/s", "in/s", "dlv/s", "depth", "commit p95", "quorum p95", "top families"))
	}
	rate := func(name string) string {
		for _, s := range d.Series {
			if s.Name != name || len(s.Samples) == 0 {
				continue
			}
			var sum int64
			for _, smp := range s.Samples {
				sum += smp.V
			}
			per := d.RatePerSec(sum) / float64(len(s.Samples))
			return fmt.Sprintf("%.0f", per)
		}
		return "-"
	}
	level := func(name string) string {
		for _, s := range d.Series {
			if s.Name != name || len(s.Samples) == 0 {
				continue
			}
			return fmt.Sprintf("%d", s.Samples[len(s.Samples)-1].V)
		}
		return "-"
	}
	p95 := func(name string) string {
		for _, s := range d.Series {
			if s.Name != name || len(s.Samples) == 0 {
				continue
			}
			// Latest window with observations; earlier ones may be idle.
			for i := len(s.Samples) - 1; i >= 0; i-- {
				if s.Samples[i].V > 0 {
					return time.Duration(s.Samples[i].P95).Round(time.Microsecond).String()
				}
			}
			return "idle"
		}
		return "-"
	}
	fams := make([]string, 0, 3)
	for i, f := range d.Families {
		if i == 3 {
			break
		}
		fams = append(fams, fmt.Sprintf("%s(%d)", f.Family, f.Msgs))
	}
	b.WriteString(fmt.Sprintf("%-12s %9s %9s %9s %7s %10s %10s  %s",
		d.Node, rate("bus.published"), rate("daemon.inbound"),
		rate("daemon.delivered_local"), level("daemon.lane_depth"),
		p95("ledger.commit_ns"), p95("qledger.quorum_wait_ns"),
		strings.Join(fams, " ")))
	for _, a := range d.Alarms {
		edge := "CLEAR"
		if a.Raised {
			edge = "RAISE"
		}
		b.WriteString(fmt.Sprintf("\n[alarm edge %s] %s %s:%s value=%d at %s",
			d.Node, edge, a.Kind, a.Target, a.Value, a.At.Format("15:04:05.000")))
	}
	return b.String(), true
}

// meshLine renders one MeshStatus snapshot as a spanning-tree row: the
// elected root, this router's hop cost and tree parent, then one cell per
// link with its port state, live peer count, and the aggregated interest
// heard there, hosts included (first few prefixes). The ad is self-describing
// and read by attribute name, so a monitor built before a field was added
// still renders the rest.
func (m *monitor) meshLine(v infobus.Value) (string, bool) {
	ad, ok := mesh.ReadStatus(object(v))
	if !ok {
		return "", false
	}
	var b strings.Builder
	if !m.meshHeader {
		m.meshHeader = true
		b.WriteString(fmt.Sprintf("%-12s %-10s %4s %-10s  %s\n",
			"router", "root", "cost", "parent", "links (state/peers/interest heard, hosts included)"))
	}
	parent := ad.Parent
	if parent == "" {
		parent = "-" // the root has no parent
	}
	cells := make([]string, 0, len(ad.Links))
	for _, l := range ad.Links {
		pats := ""
		if n := len(l.Patterns); n > 0 {
			show := l.Patterns
			if n > 3 {
				show = show[:3]
			}
			pats = " " + strings.Join(show, ",")
			if n > 3 {
				pats += fmt.Sprintf(",+%d", n-3)
			}
		}
		cells = append(cells, fmt.Sprintf("%s[%s/%d%s]", l.Name, l.State, l.Peers, pats))
	}
	b.WriteString(fmt.Sprintf("%-12s %-10s %4d %-10s  %s",
		ad.Router, ad.Root, ad.Cost, parent, strings.Join(cells, " ")))
	return b.String(), true
}

// statsLine differences a SysStats snapshot against the node's previous
// one: msgs/s from the daemon's inbound counter (router.forwarded for
// routers), bytes/s from the reliable streams' delivered-byte counters,
// retransmits/s from their retransmission counters.
func (m *monitor) statsLine(v infobus.Value) (string, bool) {
	var st telemetry.Stats
	if !telemetry.SysStats.Read(object(v), &st) || st.Node == "" || st.At.IsZero() {
		return "", false
	}
	node := st.Node
	cur := &snapshot{at: st.At, counters: make(map[string]int64)}
	for _, mt := range st.Metrics {
		if mt.Kind == telemetry.KindCounter || mt.Kind == telemetry.KindGauge {
			cur.counters[mt.Name] = mt.Value
		}
	}
	prev := m.rates[node]
	m.rates[node] = cur
	if prev == nil {
		return fmt.Sprintf("[stats %s] baseline snapshot (%d metrics)", node, len(cur.counters)), true
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return fmt.Sprintf("[stats %s] duplicate snapshot", node), true
	}
	rate := func(names ...string) float64 {
		var d int64
		for name := range cur.counters {
			for _, want := range names {
				if name == want || strings.HasSuffix(name, want) {
					d += cur.counters[name] - prev.counters[name]
					break
				}
			}
		}
		return float64(d) / dt
	}
	msgs := rate("daemon.inbound", "router.forwarded")
	bytes := rate(".delivered_bytes")
	retx := rate(".retransmits")
	return fmt.Sprintf("[stats %s] %.0f msgs/s  %s/s  %.0f retx/s (over %.1fs)",
		node, msgs, fmtBytes(bytes), retx, dt), true
}

// alarmLine renders a SysAlarm edge: RAISE in the caller's face, clear
// quietly symmetric.
func alarmLine(v infobus.Value) (string, bool) {
	var ev telemetry.AlarmEvent
	if !telemetry.SysAlarm.Read(object(v), &ev) {
		return "", false
	}
	edge := "CLEAR"
	if ev.Raised {
		edge = "RAISE"
	}
	at := ""
	if !ev.At.IsZero() {
		at = " at " + ev.At.Format("15:04:05.000")
	}
	kind := ev.Kind
	if ev.Target != "" {
		kind += ":" + ev.Target
	}
	return fmt.Sprintf("[alarm %s] %s %s value=%d threshold=%d%s",
		ev.Node, edge, kind, ev.Value, ev.Threshold, at), true
}

// dumpText renders a SysDump answer: a header plus the node's verbatim
// flight-recorder text, indented so interleaved dumps stay readable.
func dumpText(v infobus.Value) (string, bool) {
	var d telemetry.Dump
	if !telemetry.SysDump.Read(object(v), &d) {
		return "", false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "[dump %s] %d events recorded\n", d.Node, d.Events)
	for _, line := range strings.Split(strings.TrimRight(d.Text, "\n"), "\n") {
		b.WriteString("  ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String(), true
}

// object returns v as an object, or nil (which no kind reads).
func object(v infobus.Value) *mop.Object {
	o, _ := v.(*mop.Object)
	return o
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}
