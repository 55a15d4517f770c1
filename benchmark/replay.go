package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/daemon"
	"infobus/internal/ledger"
	"infobus/internal/mop"
	"infobus/internal/reliable"
	"infobus/internal/router"
	"infobus/internal/subject"
	"infobus/internal/wire"
)

// The layer replay is the traced run. After the timed phases it pushes the
// workload's own message stream through each layer's public functions on
// one goroutine, message by message in pipeline order, wrapping each call
// in an in-memory span. Nothing inside the program is instrumented: a
// layer's cost is what its public entry point costs a caller.

type spanName uint8

const (
	spanMsg spanName = iota // root: one per replayed message
	spanWireMarshal
	spanSubjectParse
	spanLedgerAppend
	spanBusprotoEncode
	spanReliableSend
	spanBroadcast
	spanRouterFast
	spanRouterTraced
	spanReliableRecv
	spanBusprotoPeek
	spanBusprotoDecode
	spanSubjectMatch
	spanPublishLocal
	spanWireUnmarshal
	spanLedgerAck
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"msg", "wire.marshal", "subject.parse", "ledger.append", "busproto.encode", "reliable.send",
	"transport.broadcast", "router.forward_fast", "router.forward_traced", "reliable.recv", "busproto.peek",
	"busproto.decode", "subject.match", "daemon.publish_local", "wire.unmarshal", "ledger.ack",
}

// span is one timed call. trace identifies the message, parent the span
// that caused this one (-1 for a root).
type span struct {
	name       spanName
	trace      uint32
	parent     int32
	start, end int64
}

// tracer keeps spans in memory. The replay runs on one goroutine, but the
// benchmark segment also reports calls made by the layers' own background
// goroutines (an interest advertisement, say), so the tracer locks.
type tracer struct {
	mu    sync.Mutex
	on    bool
	trace uint32
	spans []span
	open  []int32
}

// start turns recording on or off; next sets the trace id of the spans that
// follow.
func (t *tracer) start(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// take returns the spans recorded so far and starts over.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	t.spans = make([]span, 0, cap(spans))
	return spans
}

func (t *tracer) next(trace uint32) {
	t.mu.Lock()
	t.trace = trace
	t.mu.Unlock()
}

func (t *tracer) begin(name spanName) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := int32(len(t.spans))
	t.open = append(t.open, id)
	t.spans = append(t.spans, span{name: name, trace: t.trace, parent: parent, start: nanotime()})
	return id
}

func (t *tracer) end(id int32) {
	now := nanotime()
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return // a background goroutine's span, begun before the spans were taken
	}
	t.spans[id].end = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// msgState carries one message through the replay pipeline.
type msgState struct {
	n        int64
	obj      *mop.Object
	subjStr  string
	traced   bool
	subj     subject.Subject
	id       uint64
	payload  []byte
	frame    []byte
	datagram []byte
	rframe   []byte
	env      busproto.Envelope
	matched  int
	value    mop.Value
}

// rig is every layer instance the replay drives, built the way the
// workload's topology configures them.
type rig struct {
	w  *spec
	in *inputs
	tr *tracer

	dict  *wire.SendDict
	reg   *mop.Registry
	cache *wire.TypeCache

	relSeg           *memSegment
	sendEP, recvEP   *memEndpoint
	sender, receiver *reliable.Conn

	interner *subject.Interner
	trie     *subject.Trie[int]

	dSeg    *memSegment
	daemon  *daemon.Daemon
	clients []*daemon.Client
	localOf []int // per subject index: applications of one consumer host that want it

	led *ledger.Ledger
	dir string

	rtSegs []*memSegment
	rt     *router.Router
}

// quietConn keeps a replay connection's own timers off the segment: a
// heartbeat would land among the held datagrams.
var quietConn = reliable.Config{HeartbeatInterval: time.Hour}

func newRig(w *spec, in *inputs, tr *tracer, scratch string) (r *rig, err error) {
	r = &rig{w: w, in: in, tr: tr, reg: mop.NewRegistry(), cache: wire.NewTypeCache(0),
		interner: subject.NewInterner(0), trie: subject.NewTrie[int]()}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if w.compact {
		r.dict = wire.NewSendDict(0)
	}

	r.relSeg = newMemSegment("replay")
	r.relSeg.tr, r.relSeg.hold = tr, true
	ep, _ := r.relSeg.NewEndpoint("send")
	r.sendEP = ep.(*memEndpoint)
	ep, _ = r.relSeg.NewEndpoint("recv")
	r.recvEP = ep.(*memEndpoint)
	r.sender = reliable.New(r.sendEP, quietConn)
	r.receiver = reliable.New(r.recvEP, quietConn)

	// The subscription set and the local fan-out of one consumer host.
	r.dSeg = newMemSegment("local")
	r.dSeg.tr = tr
	ep, _ = r.dSeg.NewEndpoint("daemon")
	r.daemon = daemon.New(ep, quietConn, daemon.Options{})
	r.localOf = make([]int, len(in.subjects))
	app := -1
	var client *daemon.Client
	for i, s := range in.subs {
		if s.host != 0 {
			break
		}
		pat := subject.MustParsePattern(s.pattern)
		r.trie.Add(pat, i)
		if s.app != app {
			app = s.app
			if client, err = r.daemon.NewClient(fmt.Sprintf("app%d", app)); err != nil {
				return r, err
			}
			r.clients = append(r.clients, client)
		}
		if err = client.Subscribe(pat); err != nil {
			return r, err
		}
	}
	for idx := range in.subjects {
		seen := map[int]bool{}
		for _, s := range in.subs {
			if s.host == 0 && s.want[idx] {
				seen[s.app] = true
			}
		}
		r.localOf[idx] = len(seen)
	}

	if w.guaranteed {
		if r.dir, err = os.MkdirTemp(scratch, "replay-ledger-"); err != nil {
			return r, err
		}
		if r.led, err = ledger.Open(r.dir+"/ledger", ledger.Options{}); err != nil {
			return r, err
		}
	}
	if w.routed {
		a, b := newMemSegment("ra"), newMemSegment("rb")
		a.tr, b.tr = tr, tr
		r.rtSegs = []*memSegment{a, b}
		r.rt, err = router.New(router.Options{Name: "replay", Reliable: quietConn, InterestTTL: time.Hour},
			router.Attachment{Segment: a, Name: "a"}, router.Attachment{Segment: b, Name: "b"})
		if err != nil {
			return r, err
		}
		if err = r.seedInterest(b); err != nil {
			return r, err
		}
	}
	return r, nil
}

// seedInterest advertises the consumer host's patterns on the router's
// egress segment over the wire, as its daemon would, waits until the router
// wants the flow there, and detaches - so the egress then carries the
// router's send path and nothing else.
func (r *rig) seedInterest(seg *memSegment) error {
	ep, _ := seg.NewEndpoint("interest")
	conn := reliable.New(ep, quietConn)
	defer conn.Close()
	go func() {
		for range conn.Recv() {
		}
	}()
	var pats []string
	for _, s := range r.in.subs {
		if s.host == 0 {
			pats = append(pats, s.pattern)
		}
	}
	ad := busproto.Encode(busproto.Envelope{Kind: busproto.KindInterest, Patterns: pats})
	flow := subject.MustParse(r.in.subjects[r.in.cycle[0]])
	deadline := time.Now().Add(drainTimeout)
	for !r.rt.WantsOn("b", flow) {
		if time.Now().After(deadline) {
			return fmt.Errorf("replay: interest never reached the router")
		}
		if err := conn.Publish(ad); err != nil {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func (r *rig) close() {
	if r.rt != nil {
		_ = r.rt.Close()
	}
	if r.daemon != nil {
		_ = r.daemon.Close()
	}
	if r.sender != nil {
		_ = r.sender.Close()
		_ = r.receiver.Close()
	}
	for _, s := range append([]*memSegment{r.relSeg, r.dSeg}, r.rtSegs...) {
		if s != nil {
			_ = s.Close()
		}
	}
	if r.led != nil {
		_ = r.led.Close()
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}

// step is one layer call of the pipeline.
type step struct {
	name spanName
	on   func(st *msgState) bool // nil: every message
	do   func(st *msgState) error
	post func(st *msgState) error // bookkeeping and checks, outside the span
}

func (s *step) run(st *msgState, tr *tracer) error {
	if s.on != nil && !s.on(st) {
		return nil
	}
	id := tr.begin(s.name)
	err := s.do(st)
	tr.end(id)
	if err == nil && s.post != nil {
		err = s.post(st)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", spanNames[s.name], err)
	}
	return nil
}

const replayOrigin = "mem:replay:origin#0000000000000001"

// steps returns the workload's pipeline in message order. Every step works
// on what the step before it produced.
func (r *rig) steps() []step {
	w := r.w
	all := []step{
		{name: spanWireMarshal, do: func(st *msgState) (err error) {
			if r.dict != nil {
				st.payload, err = r.dict.AppendMarshal(st.payload[:0], st.obj)
			} else {
				st.payload, err = wire.AppendMarshal(st.payload[:0], st.obj)
			}
			return err
		}},
		{name: spanSubjectParse, do: func(st *msgState) (err error) {
			st.subj, err = r.interner.Parse(st.subjStr)
			return err
		}},
	}
	if w.guaranteed {
		all = append(all, step{name: spanLedgerAppend, do: func(st *msgState) (err error) {
			st.id, err = r.led.Append(st.subjStr, st.payload)
			return err
		}})
	}
	all = append(all,
		step{name: spanBusprotoEncode, do: func(st *msgState) error {
			e := busproto.Envelope{
				Kind:    busproto.DataKind(w.guaranteed, w.compact, st.traced),
				Subject: st.subjStr, Payload: st.payload,
			}
			if w.guaranteed {
				e.ID, e.Origin = st.id, replayOrigin
			}
			if st.traced {
				e.TraceID = uint64(st.n) + 1
				e.Trace = []busproto.TraceHop{{Node: "pub", At: 1}}
			}
			st.frame = busproto.AppendEncode(st.frame[:0], e)
			return nil
		}},
		step{name: spanReliableSend, do: func(st *msgState) error {
			return r.sender.Publish(st.frame)
		}, post: func(st *msgState) error {
			held := r.sendEP.takeHeld()
			if len(held) != 1 {
				return fmt.Errorf("replay: reliable send put %d datagrams on the segment, want 1", len(held))
			}
			st.datagram = held[0]
			return nil
		}},
	)
	if w.routed {
		forward := func(st *msgState) error { return r.rt.Inject("a", "replay-pub", st.frame) }
		all = append(all,
			step{name: spanRouterFast, on: func(st *msgState) bool { return !st.traced }, do: forward},
			step{name: spanRouterTraced, on: func(st *msgState) bool { return st.traced }, do: forward})
	}
	all = append(all,
		step{name: spanReliableRecv, do: func(st *msgState) error {
			r.recvEP.inject(r.sendEP.addr, st.datagram)
			m, ok := <-r.receiver.Recv()
			if !ok {
				return fmt.Errorf("replay: receiver closed")
			}
			st.rframe = m.Payload
			return nil
		}},
		step{name: spanBusprotoPeek, do: func(st *msgState) error {
			_, err := busproto.Peek(st.rframe)
			return err
		}},
		step{name: spanBusprotoDecode, do: func(st *msgState) (err error) {
			st.env, err = busproto.Decode(st.rframe)
			return err
		}},
		step{name: spanSubjectMatch, do: func(st *msgState) error {
			st.matched = len(r.trie.Match(st.subj))
			return nil
		}, post: func(st *msgState) error {
			if got, want := st.matched > 0, r.localOf[r.in.subjectOf(st.n)] > 0; got != want {
				return fmt.Errorf("replay: subject %s matched=%v, want %v", st.subjStr, got, want)
			}
			return nil
		}},
		step{name: spanPublishLocal, do: func(st *msgState) (err error) {
			switch {
			case w.guaranteed:
				err = r.daemon.PublishGuaranteed(st.subj, st.env.Payload, st.id)
			case w.compact:
				err = r.daemon.PublishCompact(st.subj, st.env.Payload)
			default:
				err = r.daemon.Publish(st.subj, st.env.Payload)
			}
			if err != nil {
				return err
			}
			st.matched = 0
			for _, c := range r.clients {
				for {
					if _, ok := c.TryNext(); !ok {
						break
					}
					st.matched++
				}
			}
			return nil
		}, post: func(st *msgState) error {
			if want := r.localOf[r.in.subjectOf(st.n)]; st.matched != want {
				return fmt.Errorf("replay: local fan-out of %s delivered %d, want %d", st.subjStr, st.matched, want)
			}
			return nil
		}},
		step{name: spanWireUnmarshal, do: func(st *msgState) (err error) {
			st.value, err = wire.UnmarshalWith(st.env.Payload, r.reg, r.cache)
			return err
		}, post: func(st *msgState) error {
			o, ok := st.value.(*mop.Object)
			if !ok {
				return fmt.Errorf("replay: message %d came back as %T", st.n, st.value)
			}
			if seq, _ := o.GetAt(slotSeq).(int64); seq != st.n || contentSum(o) != contentSum(st.obj) {
				return fmt.Errorf("replay: message %d came back different", st.n)
			}
			return nil
		}},
	)
	if w.guaranteed {
		all = append(all, step{name: spanLedgerAck, do: func(st *msgState) error { return r.led.Ack(st.id) }})
	}
	return all
}

func (r *rig) load(st *msgState, n int64) {
	st.n = n
	st.obj = r.in.object(0, n)
	if err := st.obj.SetAt(slotSeq, n); err != nil {
		panic(err)
	}
	st.subjStr = r.in.subjects[r.in.subjectOf(n)]
	st.traced = r.w.telemetry && n%10 == 9 // the topology samples every 10th publication
}

// layerCost is what the replay found for one span name.
type layerCost struct {
	selfNs float64 // median self time
	allocs float64 // per call
	bytes  float64 // per call
}

type replayResult struct {
	cost       [numSpanNames]layerCost
	spans      []span
	emptySpan  float64 // ns an empty span measures
	spanCost   float64 // ns a span costs its parent
	appsPerMsg float64 // Bus deliveries per message over all consumer hosts
}

const replayWarmup = 200

// runReplay replays replayMsgs messages of publisher 0 after a warm-up.
func runReplay(w *spec, in *inputs, scratch string) (*replayResult, error) {
	tr := &tracer{spans: make([]span, 0, (w.replayMsgs+4096)*int(numSpanNames))}
	r, err := newRig(w, in, tr, scratch)
	if err != nil {
		return nil, err
	}
	defer r.close()
	steps := r.steps()
	res := &replayResult{}
	base := int64(len(in.probes)) // replay the schedule proper, not the set-up probes

	// Warm-up, untraced: caches fill, the receiver leaves its join grace.
	st := &msgState{}
	for i := int64(0); i < replayWarmup; i++ {
		r.load(st, base+i)
		for _, s := range steps {
			if err := s.run(st, tr); err != nil {
				return nil, err
			}
		}
	}

	// What a span costs: an empty span reads emptySpan on its own clock and
	// takes spanCost out of its parent's.
	runtime.GC()
	tr.start(true)
	root := tr.begin(spanMsg)
	t0 := nanotime()
	const calib = 4096
	for i := 0; i < calib; i++ {
		tr.end(tr.begin(spanBroadcast))
	}
	res.spanCost = float64(nanotime()-t0) / calib
	tr.end(root)
	empty := make([]float64, 0, calib)
	for _, s := range tr.take() {
		if s.name == spanBroadcast {
			empty = append(empty, float64(s.end-s.start))
		}
	}
	res.emptySpan = median(empty)

	// The span pass: message-major, the order a message meets the layers.
	for i := int64(0); i < int64(w.replayMsgs); i++ {
		r.load(st, base+replayWarmup+i)
		tr.next(uint32(i + 1))
		root := tr.begin(spanMsg)
		for _, s := range steps {
			if err := s.run(st, tr); err != nil {
				return nil, err
			}
		}
		tr.end(root)
	}
	tr.start(false)
	res.spans = tr.take()
	res.selfTimes()

	// The allocation pass: layer-major over fresh messages, so the heap
	// counters can be read around one layer at a time.
	// No more messages than pool objects: each keeps its own stamped object.
	nAlloc := min(w.replayMsgs, 1000, w.pool)
	states := make([]*msgState, nAlloc)
	for i := range states {
		states[i] = &msgState{}
		r.load(states[i], base+replayWarmup+int64(w.replayMsgs+i))
	}
	var m0, m1 runtime.MemStats
	for _, s := range steps {
		calls := 0
		runtime.ReadMemStats(&m0)
		for _, st := range states {
			if s.on != nil && !s.on(st) {
				continue
			}
			if err := s.run(st, tr); err != nil {
				return nil, err
			}
			calls++
		}
		runtime.ReadMemStats(&m1)
		if calls > 0 {
			c := &res.cost[s.name]
			c.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
			c.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(calls)
		}
	}
	// The medium's own copy, so it can be taken out of reliable.send.
	frame := states[0].frame
	runtime.ReadMemStats(&m0)
	for i := 0; i < nAlloc; i++ {
		_ = r.sendEP.Broadcast(frame)
	}
	runtime.ReadMemStats(&m1)
	r.sendEP.takeHeld()
	bc := &res.cost[spanBroadcast]
	bc.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(nAlloc)
	bc.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(nAlloc)
	send := &res.cost[spanReliableSend]
	send.allocs = max(0, send.allocs-bc.allocs)
	send.bytes = max(0, send.bytes-bc.bytes)

	var apps int
	for _, idx := range in.cycle {
		apps += r.localOf[idx]
	}
	res.appsPerMsg = float64(apps) / float64(len(in.cycle)) * float64(w.consHosts)
	return res, nil
}

// selfTimes turns the spans into per-layer medians: a span's self time is
// its duration minus what its children cover, both corrected for the
// clock reads the spans themselves cost.
func (res *replayResult) selfTimes() {
	child := make([]float64, len(res.spans))
	for _, s := range res.spans {
		if s.parent >= 0 {
			child[s.parent] += float64(s.end-s.start) - res.emptySpan + res.spanCost
		}
	}
	var self [numSpanNames][]float64
	for i, s := range res.spans {
		self[s.name] = append(self[s.name], max(0, float64(s.end-s.start)-res.emptySpan-child[i]))
	}
	for name := range self {
		res.cost[name].selfNs = median(self[name])
	}
}

// writeSpans dumps the spans as JSON, one object per span, parents by index.
func writeSpans(path string, spans []span) error {
	type out struct {
		ID      int    `json:"id"`
		Name    string `json:"name"`
		TraceID uint32 `json:"trace_id"`
		Parent  int32  `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, s := range spans {
		if err := enc.Encode(out{i, spanNames[s.name], s.trace, s.parent, s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
