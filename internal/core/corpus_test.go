package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"infobus/internal/busproto"
	"infobus/internal/daemon"
	"infobus/internal/mop"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/transport"
	"infobus/internal/wire"
)

// The wire corpus (testdata/corpus at the root of the repository) keeps the
// frames one build of the bus put on the wire, so that every later build is
// shown to read them: a bus is upgraded one host at a time (the paper's R1),
// and hosts of two builds share a segment. A set is one build's frames:
//
//   - busproto/: one envelope per kind, traced and not, and an ack of one id
//     and of a run list;
//   - reliable/: one frame per type, the data frames carrying those envelopes;
//   - deliveries: the objects an application must receive from them, in order.
//
// epoch64 is the last build whose epoch was 64 bits and whose origin token was
// "<address>#<16 hex digits>"; head is this build's. -update rewrites head
// alone, from this build's producers (a daemon's identity, a reliable
// machine's frames, the envelope and object encoders); the packages that
// decode the frames then record what they read:
//
//	go test ./internal/core/ -run TestCorpus -update
//	go test ./internal/busproto/ ./internal/reliable/ -run TestCorpus -update
var update = flag.Bool("update", false, "rewrite the head set of testdata/corpus from this build's encoders")

const (
	corpusDir  = "../../testdata/corpus"
	corpusHead = "head"
	// corpusAddr is the address the corpus host writes from: the benchmark
	// medium's form, so an epoch64 origin token is the 28 bytes the benchmark's
	// guaranteed publications carried.
	corpusAddr = "mem:a:1:pub"
	corpusPeer = "mem:b:1:sub"
	corpusSeed = 11
)

// corpusBroadcast and corpusUnicast are the reliable frames in the order a
// host hears them: the broadcast stream (sequence 1, then 2-9 in one batch,
// then the heartbeat that advertises 9), then what is sent to it alone.
var (
	corpusBroadcast = []string{"data", "data-batch", "heart"}
	corpusUnicast   = []string{"udata", "nak", "uack"}
)

// corpusSets lists the corpus's sets.
func corpusSets(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var sets []string
	for _, e := range entries {
		if e.IsDir() {
			sets = append(sets, e.Name())
		}
	}
	if !slices.Contains(sets, "epoch64") || !slices.Contains(sets, corpusHead) {
		t.Fatalf("corpus sets %v: want epoch64 and %s", sets, corpusHead)
	}
	return sets
}

func readCorpus(t *testing.T, path ...string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(append([]string{corpusDir}, path...)...))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// addrEndpoint is an endpoint with the address the corpus host writes from.
type addrEndpoint struct {
	transport.Endpoint
	addr string
}

func (e addrEndpoint) Addr() string { return e.addr }

// captureWire keeps every frame a machine writes, in order.
type captureWire struct{ frames [][]byte }

func (w *captureWire) Send(_ string, frame []byte) error {
	w.frames = append(w.frames, bytes.Clone(frame))
	return nil
}

func (w *captureWire) Broadcast(frame []byte) error { return w.Send("", frame) }

// writeCorpus writes what a host of this build, seeded corpusSeed at
// corpusAddr, puts on the wire into dir.
func writeCorpus(t *testing.T, dir string) {
	seg := transport.NewManualSimSegment(netsim.DefaultConfig(), virtualStart)
	defer seg.Close()
	ep, err := seg.NewEndpoint("corpus")
	if err != nil {
		t.Fatal(err)
	}
	d := daemon.New(addrEndpoint{ep, corpusAddr}, reliable.Config{Seed: corpusSeed}, daemon.Options{})
	origin := d.Identity()
	_ = d.Close()

	quote := mop.MustNewClass("CorpusQuote", nil, []mop.Attr{
		{Name: "symbol", Type: mop.String},
		{Name: "kind", Type: mop.Int},
		{Name: "price", Type: mop.Float},
	}, nil)
	at := virtualStart.UnixNano()
	hop := []busproto.TraceHop{{Node: corpusAddr, Kind: busproto.HopNode, At: at}}
	stages := []busproto.TraceHop{
		{Node: "pub", Kind: busproto.HopLedgerStage, At: at},
		{Node: corpusAddr, Kind: busproto.HopNode, At: at + 1500},
	}
	cases := []struct {
		name string
		env  busproto.Envelope
	}{
		{"k01-publish", busproto.Envelope{Kind: busproto.KindPublish}},
		{"k02-guaranteed", busproto.Envelope{Kind: busproto.KindGuaranteed, ID: 1, Origin: origin}},
		{"k03-ack", busproto.Envelope{Kind: busproto.KindGuarAck, ID: 7, Origin: origin}},
		{"k03-ack-runs", busproto.Envelope{Kind: busproto.KindGuarAck, ID: 3, Origin: origin, Acked: []uint64{3, 4, 5, 9, 12, 13}}},
		{"k04-interest", busproto.Envelope{Kind: busproto.KindInterest, Patterns: []string{"corpus.>", "quotes.*.nyse"}}},
		{"k05-publish-traced", busproto.Envelope{Kind: busproto.KindPublishTraced, Hops: 1, TraceID: 0x5e1, Trace: hop}},
		{"k06-guaranteed-traced", busproto.Envelope{Kind: busproto.KindGuaranteedTraced, ID: 2, Origin: origin, TraceID: 0x5e2, Trace: stages}},
		{"k07-publish-compact", busproto.Envelope{Kind: busproto.KindPublishCompact}},
		{"k08-guaranteed-compact", busproto.Envelope{Kind: busproto.KindGuaranteedCompact, ID: 3, Origin: origin}},
		{"k09-publish-compact-traced", busproto.Envelope{Kind: busproto.KindPublishCompactTraced, Hops: 2, TraceID: 0x5e3, Trace: hop}},
		{"k10-guaranteed-compact-traced", busproto.Envelope{Kind: busproto.KindGuaranteedCompactTraced, ID: 4, Origin: origin, TraceID: 0x5e4, Trace: stages}},
	}
	envs := make(map[string][]byte, len(cases))
	var deliveries strings.Builder
	for _, c := range cases {
		e := c.env
		if base := e.Base(); base == busproto.KindPublish || base == busproto.KindGuaranteed {
			e.Subject = "corpus." + c.name[:3]
			obj := mop.MustNew(quote).MustSet("symbol", c.name).MustSet("kind", int64(e.Kind)).MustSet("price", 100.25+float64(e.Kind))
			if e.Compact() {
				e.Payload, err = wire.NewSendDict(0).AppendMarshal(nil, obj) // the definitions ride along
			} else {
				e.Payload, err = wire.Marshal(obj)
			}
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&deliveries, "%s %s\n", e.Subject, strconv.Quote(mop.Sprint(obj)))
		}
		envs[c.name] = busproto.Encode(e)
	}

	clock := func() time.Time { return virtualStart }
	var pubWire, subWire captureWire
	pub := reliable.NewMachine(&pubWire, reliable.Config{Seed: corpusSeed, Batching: true}, 1, clock)
	publish := func(names ...string) {
		for _, n := range names {
			if err := pub.Publish(envs[n]); err != nil {
				t.Fatal(err)
			}
		}
		if err := pub.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	publish("k01-publish")
	publish("k02-guaranteed", "k04-interest", "k05-publish-traced", "k06-guaranteed-traced",
		"k07-publish-compact", "k08-guaranteed-compact", "k09-publish-compact-traced", "k10-guaranteed-compact-traced")
	pub.Tick(virtualStart)
	pub.Tick(virtualStart.Add(time.Second)) // idle: the heartbeat
	if err := pub.SendTo(corpusPeer, envs["k03-ack-runs"]); err != nil {
		t.Fatal(err)
	}
	sub := reliable.NewMachine(&subWire, reliable.Config{Seed: corpusSeed + 1}, 1, clock)
	sub.OnDatagram(corpusAddr, pubWire.frames[3]) // the unicast data: its ack
	sub.OnDatagram(corpusAddr, pubWire.frames[0])
	sub.OnDatagram(corpusAddr, pubWire.frames[2]) // the heartbeat reveals 2-9 missing: the nak
	sub.Tick(virtualStart)
	if len(pubWire.frames) != 4 || len(subWire.frames) != 2 {
		t.Fatalf("the machines wrote %d and %d frames, want 4 (data, batch, heartbeat, unicast data) and 2 (ack, nak)",
			len(pubWire.frames), len(subWire.frames))
	}
	frames := map[string][]byte{
		"data": pubWire.frames[0], "data-batch": pubWire.frames[1], "heart": pubWire.frames[2],
		"udata": pubWire.frames[3], "uack": subWire.frames[0], "nak": subWire.frames[1],
	}

	for _, sub := range []string{"busproto", "reliable"} {
		if err := os.RemoveAll(filepath.Join(dir, sub)); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write := func(path string, b []byte) {
		if err := os.WriteFile(filepath.Join(dir, path), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range envs {
		write(filepath.Join("busproto", name+".frame"), b)
	}
	for name, b := range frames {
		write(filepath.Join("reliable", name+".frame"), b)
	}
	write("deliveries", []byte(deliveries.String()))
}

// TestCorpusReachesTheApplication: the frames of every corpus set, sent in
// order from one endpoint through a manual segment, reach an application on
// a host of this build — the objects of the data envelopes in the order they
// were published, each once — and its guaranteed publications are
// acknowledged to their origin as it was written: an epoch64 origin is 28 bytes.
// The control frames (the heartbeat, and a nak, an ack and an envelope ack
// that name nothing the host sent) are read and ignored.
func TestCorpusReachesTheApplication(t *testing.T) {
	if *update {
		writeCorpus(t, filepath.Join(corpusDir, corpusHead))
	}
	for _, set := range corpusSets(t) {
		t.Run(set, func(t *testing.T) {
			want := strings.SplitAfter(string(readCorpus(t, set, "deliveries")), "\n")
			want = want[:len(want)-1]
			gh, err := busproto.Peek(readCorpus(t, set, "busproto", "k02-guaranteed.frame"))
			if err != nil {
				t.Fatal(err)
			}
			origin := string(gh.Origin)
			if set == "epoch64" && len(origin) != 28 {
				t.Fatalf("epoch64 origin %q is %d bytes, want 28", origin, len(origin))
			}

			seg := transport.NewManualSimSegment(netsim.DefaultConfig(), virtualStart)
			defer seg.Close()
			old, err := seg.NewEndpoint("old")
			if err != nil {
				t.Fatal(err)
			}
			h := newHost(t, seg, "new", HostConfig{})
			bus, err := h.NewBus("app")
			if err != nil {
				t.Fatal(err)
			}
			sub, err := bus.Subscribe("corpus.>")
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range corpusBroadcast {
				if err := old.Broadcast(readCorpus(t, set, "reliable", name+".frame")); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range corpusUnicast {
				if err := old.Send(h.Daemon().Addr(), readCorpus(t, set, "reliable", name+".frame")); err != nil {
					t.Fatal(err)
				}
			}

			var got []string
			acked := map[uint64]bool{}
			done := pump(seg, func() bool { return len(got) >= len(want) && len(acked) >= 4 }, func(wait <-chan time.Time) {
				select {
				case ev := <-sub.C:
					got = append(got, fmt.Sprintf("%s %s\n", ev.Subject, strconv.Quote(mop.Sprint(ev.Value))))
				case dg := <-old.Recv():
					for _, p := range reliable.DecodeDataPayloads(dg.Payload) {
						h, err := busproto.Peek(p)
						if err != nil || h.Kind != busproto.KindGuarAck {
							continue
						}
						if string(h.Origin) != origin {
							t.Fatalf("acknowledgement to origin %q, want %q", h.Origin, origin)
						}
						h.EachAcked(func(id uint64) { acked[id] = true })
					}
				case <-wait:
				}
			})
			if !done {
				t.Errorf("timed out with %d of %d deliveries and ids %v acknowledged", len(got), len(want), acked)
			}
			if !slices.Equal(got, want) {
				t.Errorf("the application received\n%s\nwant\n%s", strings.Join(got, ""), strings.Join(want, ""))
			}
			for id := uint64(1); id <= 4; id++ {
				if !acked[id] {
					t.Errorf("guaranteed id %d never acknowledged (acked %v)", id, acked)
				}
			}
		})
	}
}

// pump moves a manual segment's clock a millisecond at a time, calling step
// with a short wait between moves, until done holds, and reports whether it
// did within ten seconds of wall time. The hosts on the segment run their
// own goroutines in wall time; its clock only lets their datagrams arrive.
func pump(seg *transport.SimSegment, done func() bool, step func(wait <-chan time.Time)) bool {
	now := seg.Network().Now()
	for deadline := time.Now().Add(10 * time.Second); !done(); {
		if time.Now().After(deadline) {
			return false
		}
		now = now.Add(time.Millisecond)
		seg.Network().AdvanceTo(now)
		step(time.After(100 * time.Microsecond))
	}
	return true
}
