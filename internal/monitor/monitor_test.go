package monitor

import (
	"strings"
	"testing"
	"time"

	"infobus/internal/adapter"
	"infobus/internal/core"
	"infobus/internal/feeds"
	"infobus/internal/keyword"
	"infobus/internal/mop"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/relstore"
	"infobus/internal/repository"
	"infobus/internal/transport"
)

func fastSeg() *transport.SimSegment {
	cfg := netsim.DefaultConfig()
	cfg.Speedup = 5000
	return transport.NewSimSegment(cfg)
}

func newBus(t *testing.T, seg transport.Segment, host string) *core.Bus {
	t.Helper()
	h, err := core.NewHost(seg, host, core.HostConfig{Reliable: reliable.Config{
		NakInterval:        2 * time.Millisecond,
		GapTimeout:         300 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  5 * time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	b, err := h.NewBus("app")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(3 * time.Millisecond):
		}
	}
}

func TestViewRendering(t *testing.T) {
	reg := mop.NewRegistry()
	types, err := adapter.DefineNewsTypes(reg)
	if err != nil {
		t.Fatal(err)
	}
	story := mop.MustNew(types.DJ).
		MustSet("headline", "GMC announces record earnings this quarter beating all estimates by far").
		MustSet("ticker", "GMC").
		MustSet("published", time.Date(1993, 12, 6, 9, 30, 0, 0, time.UTC))
	v := DefaultView()
	row := v.RenderRow(story)
	if !strings.Contains(row, "GMC") {
		t.Errorf("row = %q", row)
	}
	if !strings.Contains(row, "…") {
		t.Errorf("long headline not truncated: %q", row)
	}
	// A view over an object missing the attributes renders blanks, not
	// errors (generic tools never break on new types).
	other := mop.MustNew(mop.MustNewClass("Odd", nil, []mop.Attr{
		{Name: "x", Type: mop.Int},
	}, nil))
	row = v.RenderRow(other)
	if strings.TrimSpace(row) != "" {
		t.Errorf("row over unrelated type = %q", row)
	}
}

func TestMonitorCollectsAndDisplays(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	pubBus := newBus(t, seg, "feedhost")
	monBus := newBus(t, seg, "deskhost")
	types, err := adapter.DefineNewsTypes(pubBus.Registry())
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(monBus, "news.>", DefaultView())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	gen := feeds.NewGenerator(5)
	var facts []feeds.StoryFacts
	for i := 0; i < 3; i++ {
		f := gen.Next()
		facts = append(facts, f)
		obj, err := adapter.ParseDJ(feeds.DJRaw(f), types)
		if err != nil {
			t.Fatal(err)
		}
		if err := pubBus.Publish(f.Subject(), obj); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return mon.Len() == 3 }, "3 stories")
	heads := mon.Headlines()
	for i, f := range facts {
		if !strings.Contains(heads[i], f.Ticker) {
			t.Errorf("headline %d = %q", i, heads[i])
		}
	}
	// Full display via introspection includes nested structure.
	full, err := mon.Select(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DowJonesStory {", "IndustryGroup {", facts[0].Headline} {
		if !strings.Contains(full, want) {
			t.Errorf("full display missing %q:\n%s", want, full)
		}
	}
	if _, err := mon.Select(99); err == nil {
		t.Error("Select out of range should fail")
	}
}

// TestKeywordGeneratorEnrichesMonitor is the §5.2 dynamic-evolution story
// end to end: monitor running, keyword generator comes on-line later, and
// the monitor starts showing keyword properties with no change anywhere.
func TestKeywordGeneratorEnrichesMonitor(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	pubBus := newBus(t, seg, "feedhost")
	monBus := newBus(t, seg, "deskhost")
	kwBus := newBus(t, seg, "kwhost")
	types, err := adapter.DefineNewsTypes(pubBus.Registry())
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(monBus, "news.>", DefaultView())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// Story published BEFORE the keyword service exists.
	early := mop.MustNew(types.DJ).
		MustSet("headline", "GMC announces record earnings").
		MustSet("body", "earnings beat estimates; trading volume heavy").
		MustSet("category", "equity").
		MustSet("ticker", "GMC")
	if err := pubBus.Publish("news.equity.gmc", early); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return mon.Len() == 1 }, "early story")
	if mon.PropertyCount(0) != 0 {
		t.Fatal("no properties expected yet")
	}

	// The Keyword Generator comes on-line (new service, nothing restarts).
	kw, err := keyword.New(kwBus, nil, keyword.DefaultCategories())
	if err != nil {
		t.Fatal(err)
	}
	defer kw.Close()

	// A new story arrives; the generator annotates it; the monitor
	// associates the Property with the story.
	late := mop.MustNew(types.DJ).
		MustSet("headline", "TKN names new chief executive").
		MustSet("body", "the board said the appointment settles a long dispute").
		MustSet("category", "equity").
		MustSet("ticker", "TKN")
	if err := pubBus.Publish("news.equity.tkn", late); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return mon.Len() == 2 }, "late story")
	waitFor(t, func() bool { return mon.PropertyCount(1) > 0 }, "keyword property")

	full, err := mon.Select(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full, "property keywords:") {
		t.Errorf("full display missing property:\n%s", full)
	}
	for _, want := range []string{"chief executive", "board", "dispute"} {
		if !strings.Contains(full, want) {
			t.Errorf("keywords missing %q:\n%s", want, full)
		}
	}
	if kw.Processed() == 0 || kw.Published() == 0 {
		t.Errorf("generator stats: processed=%d published=%d", kw.Processed(), kw.Published())
	}
}

// TestTradingFloorPipeline wires Figure 3 end to end: two vendor feed
// adapters publish stories; the News Monitor displays them; the Object
// Repository capture server stores every one (including subtype-aware
// querying afterwards).
func TestTradingFloorPipeline(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	djHost := newBus(t, seg, "dj-adapter")
	reHost := newBus(t, seg, "reuters-adapter")
	deskHost := newBus(t, seg, "trader-desk")
	repoHost := newBus(t, seg, "repository")

	djTypes, err := adapter.DefineNewsTypes(djHost.Registry())
	if err != nil {
		t.Fatal(err)
	}
	reTypes, err := adapter.DefineNewsTypes(reHost.Registry())
	if err != nil {
		t.Fatal(err)
	}

	mon, err := New(deskHost, "news.>", DefaultView())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	repo := repository.New(relstore.NewDB(), repoHost.Registry())
	capture, err := repository.NewCaptureServer(repo, repoHost, "news.>")
	if err != nil {
		t.Fatal(err)
	}
	defer capture.Close()

	djIn := make(chan string, 16)
	reIn := make(chan string, 16)
	djAdapter := adapter.NewFeedAdapter("dj", djHost, djTypes, adapter.ParseDJ, djIn)
	defer djAdapter.Close()
	reAdapter := adapter.NewFeedAdapter("reuters", reHost, reTypes, adapter.ParseReuters, reIn)
	defer reAdapter.Close()

	gen := feeds.NewGenerator(9)
	const perFeed = 4
	for i := 0; i < perFeed; i++ {
		djIn <- feeds.DJRaw(gen.Next())
		reIn <- feeds.ReutersRaw(gen.Next())
	}
	close(djIn)
	close(reIn)

	waitFor(t, func() bool { return mon.Len() == 2*perFeed }, "all stories at the desk")
	waitFor(t, func() bool { return capture.Captured() == 2*perFeed }, "all stories captured")

	// Hierarchy query: the repository returns both vendors' stories for
	// the Story supertype.
	storyType, err := repoHost.Registry().Lookup("Story")
	if err != nil {
		t.Fatal(err)
	}
	objs, err := repo.QueryByType(storyType)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2*perFeed {
		t.Fatalf("repository holds %d stories, want %d", len(objs), 2*perFeed)
	}
	classes := map[string]int{}
	for _, o := range objs {
		classes[o.Type().Name()]++
	}
	if classes["DowJonesStory"] != perFeed || classes["ReutersStory"] != perFeed {
		t.Errorf("classes = %v", classes)
	}
}

func TestSetViewSwapsFormatLive(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	pubBus := newBus(t, seg, "feedhost")
	monBus := newBus(t, seg, "deskhost")
	types, err := adapter.DefineNewsTypes(pubBus.Registry())
	if err != nil {
		t.Fatal(err)
	}
	mon, err := New(monBus, "news.>", DefaultView())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	story := mop.MustNew(types.DJ).
		MustSet("headline", "GMC surges").
		MustSet("ticker", "GMC").
		MustSet("category", "equity").
		MustSet("djCode", "GMC")
	if err := pubBus.Publish("news.equity.gmc", story); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return mon.Len() == 1 }, "story")
	before := mon.Headlines()[0]
	if !strings.Contains(before, "GMC surges") {
		t.Fatalf("default view row = %q", before)
	}
	// The user reconfigures the summary list to show vendor codes only.
	mon.SetView(View{Columns: []ViewColumn{
		{Attr: "djCode", Width: 6},
		{Attr: "category", Width: 10},
	}})
	after := mon.Headlines()[0]
	if strings.Contains(after, "surges") || !strings.Contains(after, "GMC") || !strings.Contains(after, "equity") {
		t.Errorf("swapped view row = %q", after)
	}
}
