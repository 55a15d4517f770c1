// Package keyword implements the Keyword Generator of §5.2: a service
// introduced into a running system without any changes to existing
// applications. It "subscribes to stories on major subjects and searches
// the text of each story for 'keywords' that have been designated under
// several major 'categories'. For each Story object, a list of keywords is
// constructed as a named Property object of the Story object and published
// under the same subject. It also supports an interactive interface that
// allows clients to browse categories and associated keywords."
//
// Because the News Monitor already understands Property objects, and
// communication is anonymous (P4), the monitor starts enriching its
// display the moment this service comes on-line — "the user's world
// becomes much richer" with no recompilation anywhere.
package keyword

import (
	"sort"
	"strings"
	"sync"

	"infobus/internal/adapter"
	"infobus/internal/core"
	"infobus/internal/mop"
	"infobus/internal/rmi"
	"infobus/internal/transport"
)

// PropertyName is the name of the properties this service publishes.
const PropertyName = "keywords"

// Categories maps a category name to the keywords designated under it.
type Categories map[string][]string

// DefaultCategories is a starter taxonomy for the trading-floor demo.
func DefaultCategories() Categories {
	return Categories{
		"management": {"chief executive", "board", "names new"},
		"results":    {"earnings", "record", "quarter"},
		"risk":       {"recall", "dispute", "settles"},
		"markets":    {"surges", "slips", "volume"},
	}
}

// Generator is the running keyword service.
type Generator struct {
	bus  *core.Bus
	rmiS *rmi.Server

	mu        sync.Mutex
	cats      Categories
	processed uint64
	published uint64
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup
}

// BrowseInterface is the generator's interactive RMI interface: clients
// can browse categories and their keywords (and extend them at run time).
var BrowseInterface = mop.MustNewClass("KeywordBrowser", nil, nil, []mop.Operation{
	{Name: "categories", Result: mop.ListOf(mop.String)},
	{Name: "keywords", Params: []mop.Param{{Name: "category", Type: mop.String}}, Result: mop.ListOf(mop.String)},
	{Name: "addKeyword", Params: []mop.Param{
		{Name: "category", Type: mop.String}, {Name: "keyword", Type: mop.String},
	}, Result: mop.Bool},
})

// The story subjects the generator scans, and the RMI service subject of its
// browse interface.
const (
	storySubjects = "news.>"
	browseService = "svc.keywords"
)

// New starts a keyword generator on the bus. seg is needed only for the
// browse interface's point-to-point endpoint: with seg nil the generator
// serves no browse interface.
func New(bus *core.Bus, seg transport.Segment, cats Categories) (*Generator, error) {
	return newGenerator(bus, seg, cats, browseService, rmi.ServerOptions{})
}

// newGenerator is New with the browse server's service subject and options,
// which in-package tests choose.
func newGenerator(bus *core.Bus, seg transport.Segment, cats Categories, service string, ropts rmi.ServerOptions) (*Generator, error) {
	if cats == nil {
		cats = Categories{}
	}
	g := &Generator{bus: bus, cats: cats, done: make(chan struct{})}
	if err := bus.Registry().Register(adapter.PropertyType); err != nil {
		return nil, err
	}
	sub, err := bus.Subscribe(storySubjects)
	if err != nil {
		return nil, err
	}
	g.wg.Add(1)
	go g.scanLoop(sub)
	if seg != nil {
		srv, err := rmi.NewServer(bus, seg, service, BrowseInterface, g.browse, ropts)
		if err != nil {
			g.Close()
			return nil, err
		}
		g.rmiS = srv
	}
	return g, nil
}

// Processed returns how many stories have been scanned.
func (g *Generator) Processed() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.processed
}

// Published returns how many keyword properties have been published.
func (g *Generator) Published() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.published
}

// Close stops the service.
func (g *Generator) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()
	close(g.done)
	if g.rmiS != nil {
		_ = g.rmiS.Close()
	}
	g.wg.Wait()
}

func (g *Generator) scanLoop(sub *core.Subscription) {
	defer g.wg.Done()
	defer sub.Cancel()
	for {
		select {
		case <-g.done:
			return
		case ev, ok := <-sub.C:
			if !ok {
				return
			}
			g.handle(ev)
		}
	}
}

func (g *Generator) handle(ev core.Event) {
	story, ok := ev.Value.(*mop.Object)
	if !ok {
		return
	}
	// Only annotate story-like objects: anything with headline and body
	// string attributes. Introspection (P2), not type name matching, so
	// future story types are annotated too.
	headline, err1 := stringAttr(story, "headline")
	body, err2 := stringAttr(story, "body")
	if err1 != nil || err2 != nil {
		return // not a story-shaped object (e.g. our own Property)
	}
	g.mu.Lock()
	g.processed++
	g.mu.Unlock()

	found := g.Scan(headline + " " + body)
	if len(found) == 0 {
		return
	}
	prop := mop.MustNew(adapter.PropertyType).
		MustSet("name", PropertyName).
		MustSet("ref", headline).
		MustSet("value", toList(found))
	if err := g.bus.Publish(ev.Subject.String(), prop); err != nil {
		return
	}
	g.mu.Lock()
	g.published++
	g.mu.Unlock()
}

// Scan returns the keywords found in the text, sorted and deduplicated.
func (g *Generator) Scan(text string) []string {
	lower := strings.ToLower(text)
	set := map[string]struct{}{}
	g.mu.Lock()
	for _, kws := range g.cats {
		for _, kw := range kws {
			if strings.Contains(lower, strings.ToLower(kw)) {
				set[kw] = struct{}{}
			}
		}
	}
	g.mu.Unlock()
	out := make([]string, 0, len(set))
	for kw := range set {
		out = append(out, kw)
	}
	sort.Strings(out)
	return out
}

// browse serves the interactive RMI interface.
func (g *Generator) browse(op string, args []mop.Value) (mop.Value, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch op {
	case "categories":
		names := make([]string, 0, len(g.cats))
		for c := range g.cats {
			names = append(names, c)
		}
		sort.Strings(names)
		return toList(names), nil
	case "keywords":
		kws := append([]string(nil), g.cats[args[0].(string)]...)
		sort.Strings(kws)
		return toList(kws), nil
	case "addKeyword":
		cat, kw := args[0].(string), args[1].(string)
		for _, existing := range g.cats[cat] {
			if existing == kw {
				return false, nil
			}
		}
		g.cats[cat] = append(g.cats[cat], kw)
		return true, nil
	default:
		return nil, rmi.ErrBadOp
	}
}

func stringAttr(o *mop.Object, name string) (string, error) {
	v, err := o.Get(name)
	if err != nil {
		return "", err
	}
	s, _ := v.(string)
	return s, nil
}

func toList(ss []string) mop.List {
	out := make(mop.List, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}
