package keyword

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"infobus/internal/adapter"
	"infobus/internal/core"
	"infobus/internal/mop"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/rmi"
	"infobus/internal/transport"
)

func fastSeg() *transport.SimSegment {
	cfg := netsim.DefaultConfig()
	cfg.Speedup = 5000
	return transport.NewSimSegment(cfg)
}

func fastReliable() reliable.Config {
	return reliable.Config{
		NakInterval:        2 * time.Millisecond,
		GapTimeout:         300 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  5 * time.Millisecond,
	}
}

func newBus(t *testing.T, seg transport.Segment, host string) *core.Bus {
	t.Helper()
	h, err := core.NewHost(seg, host, core.HostConfig{Reliable: fastReliable()})
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

func TestScan(t *testing.T) {
	g := &Generator{cats: DefaultCategories()}
	cases := []struct {
		text string
		want []string
	}{
		{"GMC announces record earnings", []string{"earnings", "record"}},
		{"the BOARD met", []string{"board"}}, // case-insensitive
		{"nothing relevant here", nil},
		{"recall and dispute and recall", []string{"dispute", "recall"}}, // dedup + sorted
	}
	for _, c := range cases {
		got := g.Scan(c.text)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("Scan(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestPropertyPublishedOnSameSubject(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	pubBus := newBus(t, seg, "pub")
	kwBus := newBus(t, seg, "kw")
	obsBus := newBus(t, seg, "observer")
	types, err := adapter.DefineNewsTypes(pubBus.Registry())
	if err != nil {
		t.Fatal(err)
	}
	kw, err := New(kwBus, nil, DefaultCategories()) // no segment: no browse interface
	if err != nil {
		t.Fatal(err)
	}
	defer kw.Close()

	sub, err := obsBus.Subscribe("news.equity.gmc")
	if err != nil {
		t.Fatal(err)
	}
	story := mop.MustNew(types.DJ).
		MustSet("headline", "GMC announces record earnings").
		MustSet("body", "volume was heavy").
		MustSet("category", "equity").
		MustSet("ticker", "GMC")
	if err := pubBus.Publish("news.equity.gmc", story); err != nil {
		t.Fatal(err)
	}
	// The observer sees the story then the property on the SAME subject.
	var sawStory, sawProp bool
	deadline := time.After(15 * time.Second)
	for !sawStory || !sawProp {
		select {
		case ev := <-sub.C:
			obj := ev.Value.(*mop.Object)
			switch obj.Type().Name() {
			case "DowJonesStory":
				sawStory = true
			case "Property":
				sawProp = true
				if obj.MustGet("name") != PropertyName {
					t.Errorf("property name = %v", obj.MustGet("name"))
				}
				if obj.MustGet("ref") != "GMC announces record earnings" {
					t.Errorf("property ref = %v", obj.MustGet("ref"))
				}
				kws := obj.MustGet("value").(mop.List)
				if len(kws) == 0 {
					t.Error("empty keyword list")
				}
			}
		case <-deadline:
			t.Fatalf("story=%v property=%v", sawStory, sawProp)
		}
	}
	// A story with no keywords produces no property.
	dull := mop.MustNew(types.DJ).
		MustSet("headline", "GMC exists").
		MustSet("body", "nothing notable").
		MustSet("category", "equity").
		MustSet("ticker", "GMC")
	if err := pubBus.Publish("news.equity.gmc", dull); err != nil {
		t.Fatal(err)
	}
	deadline2 := time.After(5 * time.Second)
	for kw.Processed() < 2 {
		select {
		case <-deadline2:
			t.Fatal("second story never processed")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if kw.Published() != 1 {
		t.Errorf("Published = %d, want 1 (dull story has no keywords)", kw.Published())
	}
	// The generator must not annotate its own Property publications
	// (processed counts only story-shaped objects).
	if kw.Processed() != 2 {
		t.Errorf("Processed = %d, want 2", kw.Processed())
	}
	// Without a segment the generator answers no discovery of its service.
	if _, err := rmi.Dial(obsBus, seg, browseService, rmi.DialOptions{
		DiscoveryWindow: 200 * time.Millisecond,
		Reliable:        fastReliable(),
	}); !errors.Is(err, rmi.ErrNoServer) {
		t.Errorf("Dial %s = %v, want ErrNoServer", browseService, err)
	}
}

func TestBrowseInterface(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	kwBus := newBus(t, seg, "kw")
	clientBus := newBus(t, seg, "client")
	kw, err := newGenerator(kwBus, seg, DefaultCategories(), "svc.kw.test",
		rmi.ServerOptions{Reliable: fastReliable()})
	if err != nil {
		t.Fatal(err)
	}
	defer kw.Close()

	c, err := rmi.Dial(clientBus, seg, "svc.kw.test", rmi.DialOptions{
		DiscoveryWindow: 200 * time.Millisecond,
		Timeout:         300 * time.Millisecond,
		Retries:         3,
		Reliable:        fastReliable(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cats, err := c.Invoke("categories")
	if err != nil {
		t.Fatal(err)
	}
	if len(cats.(mop.List)) != 4 {
		t.Errorf("categories = %v", cats)
	}
	kws, err := c.Invoke("keywords", "results")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(kws) != "[earnings quarter record]" {
		t.Errorf("keywords = %v", kws)
	}
	// Extend the taxonomy at run time through the service interface.
	added, err := c.Invoke("addKeyword", "results", "dividend")
	if err != nil || added != true {
		t.Fatalf("addKeyword = %v, %v", added, err)
	}
	added, err = c.Invoke("addKeyword", "results", "dividend")
	if err != nil || added != false {
		t.Fatalf("duplicate addKeyword = %v, %v", added, err)
	}
	kws, err = c.Invoke("keywords", "results")
	if err != nil || len(kws.(mop.List)) != 4 {
		t.Fatalf("keywords after add = %v, %v", kws, err)
	}
	// Introspection: the browse interface describes itself (P2).
	iface := c.Interface()
	if op, ok := iface.Operation("addKeyword"); !ok ||
		op.Signature() != "addKeyword(category string, keyword string) -> bool" {
		t.Errorf("remote signature = %+v", op)
	}
}
