// Command busd runs an Information Bus host in its own OS process, over
// real UDP sockets, with an interactive console: the per-host daemon of
// §3.1 plus a small shell for publishing and subscribing.
//
// Start a two-host bus in two terminals:
//
//	busd -listen 127.0.0.1:7001 -peers 127.0.0.1:7002
//	busd -listen 127.0.0.1:7002 -peers 127.0.0.1:7001
//
// Console commands:
//
//	sub <pattern>            subscribe ("news.>", "fab5.*.temp", ...)
//	pub <subject> <text>     publish a string object
//	pubn <subject> <number>  publish an int object
//	pubg <subject> <text>    publish with guaranteed delivery (-ledger)
//	stats                    daemon and protocol counters
//	metrics                  full telemetry registry snapshot
//	alarms                   currently raised health alarms (-health)
//	dump                     flight-recorder dump (-health)
//	quit
//
// With -ledger <path> the host logs guaranteed publications (pubg) to a
// write-ahead log. -replication N or -replica-dir <dir> attaches the quorum
// ledger tier on top of the host (infobus.Replicate): -replication N
// mirrors committed batches to N peer replicas and acknowledges pubg at
// majority durability; peers started with -replica-dir store those mirrors
// and elect a recovery coordinator, which replays a dead publisher's
// pending entries through the same retrier a host runs over its own ledger
// (-replica-ack-timeout and -repl-fsync tune the quorum wait and replica
// durability).
//
// With -health <interval> the host runs the health tier: slow-consumer /
// retransmit-storm / dedup-pressure / ledger-backlog alarms publish on
// "_sys.alarm.<name>.<kind>", and "_sys.dump" probes are answered with the
// flight recorder. With -history <interval> it runs the flight-data tier:
// rates, depths, and latency percentiles sampled into ≈64 s rings,
// answering "_sys.history" probes (and publishing periodic digests) on
// "_sys.history.<name>". With -debug-addr the host serves net/http/pprof,
// a /metrics JSON snapshot, the /dump flight-recorder text, and the
// /history time-series window over HTTP. The debug server is off by
// default and meant for loopback addresses only — it exposes profiling
// data and is entirely unauthenticated; never bind it to a public
// interface.
//
// Anything received on a subscription is pretty-printed through the
// generic introspective print utility, whatever its type (P2).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"infobus"
	"infobus/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7001", "UDP listen address of this host")
	peers := flag.String("peers", "", "comma-separated UDP addresses of the other hosts")
	name := flag.String("name", "busd", "host name")
	statsEvery := flag.Duration("stats-interval", 0, "publish host stats on _sys.stats.<name> at this interval (0 disables)")
	sampling := flag.Float64("trace-sampling", 0, "fraction of publications to trace per-hop (0 disables, 1 every message)")
	healthEvery := flag.Duration("health", 0, "run the health tier (alarms on _sys.alarm.>, flight recorder) sampling at this interval (0 disables)")
	historyEvery := flag.Duration("history", 0, "run the flight-data tier (time-series history on _sys.history.<name>) sampling at this interval (0 disables; 250ms is typical)")
	debugAddr := flag.String("debug-addr", "", "serve pprof + /metrics + /dump + /history on this address (UNAUTHENTICATED: loopback only, e.g. 127.0.0.1:6060; empty disables)")
	compact := flag.Bool("compact", false, "publish with type-dictionary compression (class descriptors cross the wire once; receivers need no flag)")
	ledgerPath := flag.String("ledger", "", "write-ahead log path enabling guaranteed delivery (pubg); empty disables")
	replication := flag.Int("replication", 0, "mirror committed guaranteed batches to this many peer replicas and ack at majority durability (needs -ledger)")
	replicaAck := flag.Duration("replica-ack-timeout", 0, "how long pubg waits for a write quorum before reporting the guarantee unconfirmed (0 selects the default)")
	replFsync := flag.String("repl-fsync", "", "replica-side fsync policy: batch (fsync per applied run) or lazy (no fsync); empty selects batch")
	replicaDir := flag.String("replica-dir", "", "store mirrored peers' replica logs under this directory (enrolls the host as a replica)")
	deliveryLanes := flag.Int("delivery-lanes", 0, "delivery lanes: shards of senders, each with its own inbound worker and queue column (0 selects min(GOMAXPROCS, 8); 1 is a single lane)")
	flag.Parse()

	seg := infobus.NewStaticUDPSegment(*listen, strings.Split(*peers, ","))
	host, err := infobus.NewHost(seg, *name, infobus.HostConfig{
		CompactTypes:  *compact,
		LedgerPath:    *ledgerPath,
		LedgerSync:    *ledgerPath != "",
		DeliveryLanes: *deliveryLanes,
		Telemetry: infobus.TelemetryConfig{
			StatsInterval:   *statsEvery,
			TraceSampling:   *sampling,
			Health:          infobus.HealthConfig{Interval: *healthEvery},
			HistoryInterval: *historyEvery,
		},
	})
	if err == nil && (*replication > 0 || *replicaDir != "") {
		if err = infobus.Replicate(host, infobus.ReplicationConfig{
			Factor:      *replication,
			AckTimeout:  *replicaAck,
			FsyncPolicy: *replFsync,
			Dir:         *replicaDir,
		}); err != nil {
			_ = host.Close()
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "busd: %v\n", err)
		os.Exit(1)
	}
	defer host.Close()
	if *debugAddr != "" {
		handler := telemetry.DebugHandler(host.Metrics(), host.Recorder(), host.History())
		srv := &http.Server{Addr: *debugAddr, Handler: handler, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			fmt.Printf("busd: debug server on http://%s/ (pprof, /metrics, /dump, /history) — do not expose beyond loopback\n", *debugAddr)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "busd: debug server: %v\n", err)
			}
		}()
		defer srv.Close()
	}
	bus, err := host.NewBus("console")
	if err != nil {
		fmt.Fprintf(os.Stderr, "busd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("busd: host %q on %s (peers: %s)\n", *name, *listen, *peers)
	fmt.Println("busd: commands: sub <pattern> | pub <subject> <text> | pubn <subject> <n> | pubg <subject> <text> | stats | metrics | alarms | dump | quit")

	subs := make(map[string]*infobus.Subscription)
	printer := make(chan string, 64)
	go func() {
		for line := range printer {
			fmt.Println(line)
		}
	}()

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return
		case "sub":
			if len(fields) != 2 {
				fmt.Println("usage: sub <pattern>")
				continue
			}
			pattern := fields[1]
			if _, dup := subs[pattern]; dup {
				fmt.Println("already subscribed")
				continue
			}
			sub, err := bus.Subscribe(pattern)
			if err != nil {
				fmt.Printf("sub: %v\n", err)
				continue
			}
			subs[pattern] = sub
			go func(pattern string, sub *infobus.Subscription) {
				for ev := range sub.C {
					printer <- fmt.Sprintf("<- [%s] %s", ev.Subject, infobus.Print(ev.Value))
				}
			}(pattern, sub)
			fmt.Printf("subscribed to %s\n", pattern)
		case "pubg":
			if len(fields) < 3 {
				fmt.Println("usage: pubg <subject> <text>")
				continue
			}
			id, err := bus.PublishGuaranteed(fields[1], strings.Join(fields[2:], " "))
			if err != nil {
				fmt.Printf("pubg: %v\n", err)
				continue
			}
			fmt.Printf("=> [%s] id=%d (guaranteed)\n", fields[1], id)
		case "pub", "pubn":
			if len(fields) < 3 {
				fmt.Printf("usage: %s <subject> <value>\n", fields[0])
				continue
			}
			var value infobus.Value
			if fields[0] == "pubn" {
				n, err := strconv.ParseInt(fields[2], 10, 64)
				if err != nil {
					fmt.Printf("pubn: %v\n", err)
					continue
				}
				value = n
			} else {
				value = strings.Join(fields[2:], " ")
			}
			if err := bus.Publish(fields[1], value); err != nil {
				fmt.Printf("pub: %v\n", err)
				continue
			}
			fmt.Printf("-> [%s] %s\n", fields[1], infobus.Print(value))
		case "stats":
			d := host.Daemon()
			fmt.Printf("daemon: %+v\n", d.Stats())
			fmt.Printf("reliable: %+v\n", d.Conn().Stats())
		case "metrics":
			for _, m := range host.Metrics().Snapshot() {
				fmt.Println(m)
			}
		case "alarms":
			alarms := host.ActiveAlarms()
			if host.Recorder() == nil {
				fmt.Println("health tier disabled (start with -health <interval>)")
				continue
			}
			if len(alarms) == 0 {
				fmt.Println("no alarms raised")
				continue
			}
			for _, a := range alarms {
				label := a.Kind
				if a.Target != "" {
					label += ":" + a.Target
				}
				fmt.Printf("RAISED %s value=%d threshold=%d\n", label, a.Value, a.Threshold)
			}
		case "dump":
			if text := host.HealthDump(); text != "" {
				fmt.Print(text)
			} else {
				fmt.Println("health tier disabled (start with -health <interval>)")
			}
		default:
			fmt.Printf("unknown command %q\n", fields[0])
		}
	}
}
