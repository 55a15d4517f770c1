package core

import (
	"errors"
	"testing"
	"time"

	"infobus/internal/mop"
	"infobus/internal/telemetry"
	"infobus/internal/wire"
)

// classSyncLab is a class-NAK part taken out of its host: what it publishes
// is kept per subject, and the clock is the test's.
type classSyncLab struct {
	cs   *classSync
	sent map[string][][]byte
}

func newClassSyncLab(dict *wire.SendDict) *classSyncLab {
	m := telemetry.NewRegistry()
	l := &classSyncLab{sent: map[string][][]byte{}}
	l.cs = &classSync{
		reg: mop.NewRegistry(), cache: wire.NewTypeCache(0), dict: dict,
		ctr: &busCounters{
			classNakSent: m.Counter("sent"), classNakServed: m.Counter("served"), classDefsHarvested: m.Counter("harvested"),
		},
		interval: 50 * time.Millisecond,
		publish:  func(subj string, payload []byte) { l.sent[subj] = append(l.sent[subj], payload) },
		want:     map[uint64]bool{},
	}
	return l
}

// TestClassNakOnVirtualTime: a fingerprint miss is requested at the very
// next tick, re-requested every interval while anything is wanted, and not
// at all once the definition has been harvested — when the part has no
// deadline and the host loop sleeps. The holder's half answers from its send
// dictionary.
func TestClassNakOnVirtualTime(t *testing.T) {
	dict := wire.NewSendDict(1 << 30)
	obj := mop.MustNew(thicknessType()).MustSet("station", "litho8").MustSet("microns", 2.0)
	if _, err := dict.AppendMarshal(nil, obj); err != nil { // the definitions ride this one
		t.Fatal(err)
	}
	refsOnly, err := dict.AppendMarshal(nil, obj)
	if err != nil {
		t.Fatal(err)
	}
	holder, asker := newClassSyncLab(dict), newClassSyncLab(nil)

	now := virtualStart
	if next := asker.cs.tick(now); !next.IsZero() || len(asker.sent) != 0 {
		t.Fatalf("with nothing wanted tick = %v and published %v, want no deadline and nothing", next, asker.sent)
	}
	var missing *wire.MissingFingerprintsError
	if _, err := wire.UnmarshalWith(refsOnly, asker.cs.reg, asker.cs.cache); !errors.As(err, &missing) {
		t.Fatalf("decoding a reference-only message on a cold cache: %v", err)
	}
	if !asker.cs.request(missing.FPs) || asker.cs.request(missing.FPs) {
		t.Fatal("request reports a new fingerprint exactly once")
	}
	reqs := func() int { return len(asker.sent[telemetry.ClassReqSubject]) }
	if next := asker.cs.tick(now); reqs() != 1 || !next.Equal(now.Add(50*time.Millisecond)) {
		t.Fatalf("the tick after a miss: %d requests, next %v; want 1 at once and the re-request an interval on", reqs(), next)
	}
	for _, step := range []struct {
		after time.Duration
		reqs  int
	}{{10 * time.Millisecond, 1}, {49 * time.Millisecond, 1}, {50 * time.Millisecond, 2}, {99 * time.Millisecond, 2}, {100 * time.Millisecond, 3}} {
		if asker.cs.tick(virtualStart.Add(step.after)); reqs() != step.reqs {
			t.Fatalf("%v after the miss: %d requests, want %d", step.after, reqs(), step.reqs)
		}
	}

	holder.cs.serveRequest(asker.sent[telemetry.ClassReqSubject][0])
	defs := holder.sent[telemetry.ClassDefSubject]
	if len(defs) != 1 {
		t.Fatalf("the holder published %d replies, want 1", len(defs))
	}
	asker.cs.serveRequest(asker.sent[telemetry.ClassReqSubject][0]) // holds nothing yet: silent
	// Every host hears every reply: only the first resolves anything.
	if first, again := asker.cs.harvestReply(defs[0]), asker.cs.harvestReply(defs[0]); !first || again || len(asker.cs.want) != 0 {
		t.Fatalf("harvest resolved %v then %v leaving %d wanted, want true, false and none", first, again, len(asker.cs.want))
	}
	if next := asker.cs.tick(virtualStart.Add(time.Second)); !next.IsZero() || reqs() != 3 || len(asker.sent[telemetry.ClassDefSubject]) != 0 {
		t.Fatalf("after the harvest: next %v, %d requests; want no deadline and no fourth request", next, reqs())
	}
	if v, err := wire.UnmarshalWith(refsOnly, asker.cs.reg, asker.cs.cache); err != nil || v.(*mop.Object).MustGet("microns") != 2.0 {
		t.Fatalf("the stashed message still does not decode: %v, %v", v, err)
	}
}

// TestClassNakWantedSetBounded: the outstanding set stops growing at
// maxWantedFPs; what does not fit relies on the publisher's inline fallback.
func TestClassNakWantedSetBounded(t *testing.T) {
	l := newClassSyncLab(nil)
	fps := make([]uint64, 2*maxWantedFPs)
	for i := range fps {
		fps[i] = uint64(i + 1)
	}
	if !l.cs.request(fps) || len(l.cs.want) != maxWantedFPs {
		t.Fatalf("%d fingerprints wanted, want the cap %d", len(l.cs.want), maxWantedFPs)
	}
	if l.cs.request(fps[maxWantedFPs:]) {
		t.Error("a request beyond the cap reported something new")
	}
	l.cs.tick(virtualStart)
	v, err := wire.Unmarshal(l.sent[telemetry.ClassReqSubject][0], mop.NewRegistry())
	if err != nil || len(wire.RequestedFPs(v)) != maxWantedFPs {
		t.Errorf("the request names %d fingerprints (%v), want %d", len(wire.RequestedFPs(v)), err, maxWantedFPs)
	}
}
