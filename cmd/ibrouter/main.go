// Command ibrouter runs an information router (§3.1) bridging two
// multi-process UDP buses: publications cross only when the far side holds
// a matching subscription, with optional subject-prefix rewriting.
//
//	ibrouter \
//	  -a.listen 127.0.0.1:7101 -a.peers 127.0.0.1:7001 \
//	  -b.listen 127.0.0.1:7102 -b.peers 127.0.0.1:8001 \
//	  -b.rewrite fab5=plants.east.fab5
//
// Every router runs the mesh protocol: routers sharing a segment hear each
// other's hellos on "_sys.mesh.hello", elect a spanning tree (lowest -name
// wins root; a redundant link blocks instead of duplicating traffic), and
// propagate aggregated interest hop by hop, so publications traverse only
// subscriber-bearing segments. -name is the router's mesh id and must be
// unique per router: two routers sharing one cannot elect against each
// other, so a cycle through the pair is cut only by the hop budget, and
// count each other's hellos in "mesh.id_conflicts". The default is derived
// from the host name and -a.listen: unique per process on one machine, and
// across machines that do not share a host name. Watch the tree with
// `ibmon -sys -mesh`.
//
//	ibrouter -name r-east -a.listen ... -b.listen ...
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"infobus"
	"infobus/internal/router"
	"infobus/internal/subject"
)

func main() {
	aListen := flag.String("a.listen", "127.0.0.1:7101", "side A listen address")
	aPeers := flag.String("a.peers", "", "side A bus hosts")
	aRewrite := flag.String("a.rewrite", "", "prefix rewrite applied to traffic forwarded ONTO side A (from=to)")
	bListen := flag.String("b.listen", "127.0.0.1:7102", "side B listen address")
	bPeers := flag.String("b.peers", "", "side B bus hosts")
	bRewrite := flag.String("b.rewrite", "", "prefix rewrite applied to traffic forwarded ONTO side B (from=to)")
	verbose := flag.Bool("v", false, "log every forwarded message")
	name := flag.String("name", "", "router name (mesh id: must be unique per router, lowest becomes root; default ibrouter-<hostname>-<a.listen>)")
	flag.Parse()
	if *name == "" {
		// -a.listen alone collides across machines (every copy of the
		// README command line listens on 127.0.0.1:7101).
		host, _ := os.Hostname()
		*name = "ibrouter-" + host + "-" + *aListen
	}

	segA := infobus.NewStaticUDPSegment(*aListen, strings.Split(*aPeers, ","))
	segB := infobus.NewStaticUDPSegment(*bListen, strings.Split(*bPeers, ","))

	opts := infobus.RouterOptions{Name: *name}
	if *verbose {
		opts.Log = os.Stdout
	}
	r, err := infobus.NewRouter(opts,
		infobus.RouterAttachment{Segment: segA, Name: "A", Rules: parseRules(*aRewrite)},
		infobus.RouterAttachment{Segment: segB, Name: "B", Rules: parseRules(*bRewrite)},
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibrouter: %v\n", err)
		os.Exit(1)
	}
	defer r.Close()
	fmt.Printf("ibrouter: bridging A(%s) <-> B(%s)\n", *aListen, *bListen)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	ticker := time.NewTicker(10 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			fmt.Printf("ibrouter: final stats %+v\n", r.Stats())
			return
		case <-ticker.C:
			fmt.Printf("ibrouter: stats %+v\n", r.Stats())
			st := r.MeshStatus()
			fmt.Printf("ibrouter: mesh root=%s cost=%d parent=%q topo-changes=%d id-conflicts=%d\n",
				st.Root, st.Cost, st.Parent, st.TopoChanges, st.IDConflicts)
		}
	}
}

func parseRules(spec string) []router.Rule {
	if spec == "" {
		return nil
	}
	from, to, ok := strings.Cut(spec, "=")
	if !ok {
		fmt.Fprintf(os.Stderr, "ibrouter: bad rewrite %q (want from=to)\n", spec)
		os.Exit(1)
	}
	match, err := subject.ParsePattern(from + ".>")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ibrouter: bad rewrite prefix %q: %v\n", from, err)
		os.Exit(1)
	}
	return []router.Rule{{Match: match, FromPrefix: from, ToPrefix: to}}
}
