// Trading floor: the full §5 example (Figures 3 and 4) in one runnable
// program.
//
// Two news adapters parse distinct vendor wire formats (Dow-Jones-like and
// Reuters-like) into subtypes of a common Story supertype and publish them
// under topic subjects. A trader's News Monitor builds a headline summary
// list through a view and renders full stories by introspection. The
// Object Repository captures every story into relational tables generated
// from the types' meta-data. Then — §5.2, dynamic system evolution — the
// Keyword Generator comes on-line mid-run, and the already-running monitor
// starts showing keyword properties without any restart.
//
//	go run ./examples/tradingfloor
package main

import (
	"fmt"
	"log"
	"time"

	"infobus"
	"infobus/internal/adapter"
	"infobus/internal/feeds"
	"infobus/internal/keyword"
	"infobus/internal/monitor"
	"infobus/internal/relstore"
	"infobus/internal/repository"
)

func main() {
	netCfg := infobus.DefaultNetConfig()
	netCfg.Speedup = 100
	seg := infobus.NewSimSegment(netCfg)
	defer seg.Close()

	newBus := func(hostname, app string) *infobus.Bus {
		h, err := infobus.NewHost(seg, hostname, infobus.HostConfig{})
		if err != nil {
			log.Fatal(err)
		}
		b, err := h.NewBus(app)
		if err != nil {
			log.Fatal(err)
		}
		return b
	}

	// --- Figure 3: adapters, monitor, repository -------------------------
	djBus := newBus("dj-feed-host", "dj-adapter")
	reBus := newBus("reuters-feed-host", "reuters-adapter")
	deskBus := newBus("trader-desk", "news-monitor")
	repoBus := newBus("db-host", "object-repository")

	djTypes, err := adapter.DefineNewsTypes(djBus.Registry())
	if err != nil {
		log.Fatal(err)
	}
	reTypes, err := adapter.DefineNewsTypes(reBus.Registry())
	if err != nil {
		log.Fatal(err)
	}

	mon, err := monitor.New(deskBus, "news.>", monitor.DefaultView())
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()

	repo := repository.New(relstore.NewDB(), repoBus.Registry())
	capture, err := repository.NewCaptureServer(repo, repoBus, "news.>")
	if err != nil {
		log.Fatal(err)
	}
	defer capture.Close()

	djIn := make(chan string, 16)
	reIn := make(chan string, 16)
	djAdapter := adapter.NewFeedAdapter("dow-jones", djBus, djTypes, adapter.ParseDJ, djIn)
	defer djAdapter.Close()
	reAdapter := adapter.NewFeedAdapter("reuters", reBus, reTypes, adapter.ParseReuters, reIn)
	defer reAdapter.Close()

	gen := feeds.NewGenerator(1993)
	fmt.Println("=== wire feeds begin ===")
	for i := 0; i < 3; i++ {
		djIn <- feeds.DJRaw(gen.Next())
		reIn <- feeds.ReutersRaw(gen.Next())
	}
	waitFor(func() bool { return mon.Len() == 6 && capture.Captured() == 6 })

	fmt.Println("\n=== trader's headline summary list (view-rendered) ===")
	for _, h := range mon.Headlines() {
		fmt.Println(" ", h)
	}

	fmt.Println("\n=== trader selects story 0 (introspective full display) ===")
	full, err := mon.Select(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(full)

	fmt.Println("=== repository state (schema generated from meta-data) ===")
	fmt.Println("tables:", repo.DB().Tables())
	storyType, err := repoBus.Registry().Lookup("Story")
	if err != nil {
		log.Fatal(err)
	}
	n, err := repo.Count(storyType)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stories stored (hierarchy query over Story): %d\n", n)

	// --- Figure 4: the Keyword Generator comes on-line mid-run ----------
	fmt.Println("\n=== keyword generator comes on-line (nothing restarts) ===")
	kwBus := newBus("kw-host", "keyword-generator")
	kw, err := keyword.New(kwBus, nil, keyword.DefaultCategories())
	if err != nil {
		log.Fatal(err)
	}
	defer kw.Close()

	before := mon.Len()
	djIn <- feeds.DJRaw(gen.Next())
	waitFor(func() bool {
		return mon.Len() == before+1 && mon.PropertyCount(before) > 0
	})
	fmt.Println("\n=== the same monitor now shows keyword properties ===")
	full, err = mon.Select(before)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(full)
	fmt.Printf("keyword generator: processed=%d annotated=%d\n", kw.Processed(), kw.Published())
}

func waitFor(cond func() bool) {
	deadline := time.After(30 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			log.Fatal("timed out waiting for pipeline")
		case <-time.After(5 * time.Millisecond):
		}
	}
}
