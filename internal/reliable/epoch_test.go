package reliable

import (
	"encoding/binary"
	"os"
	"slices"
	"testing"
	"time"

	"infobus/internal/telemetry"
)

// TestSeededEpochs: seeds 1-65536 give 65536 distinct odd epochs, none longer
// than 5 uvarint bytes, so test hosts with distinct seeds never share one.
// Auto-seeded machines made within one clock tick get odd 5-byte epochs too.
func TestSeededEpochs(t *testing.T) {
	seen := make(map[uint64]uint64, 1<<16)
	check := func(seed, e uint64) {
		t.Helper()
		if e&1 == 0 || len(binary.AppendUvarint(nil, e)) > 5 {
			t.Fatalf("seed %d: epoch %#x is even or longer than 5 uvarint bytes", seed, e)
		}
		if prev, dup := seen[e]; dup && seed != 0 {
			t.Fatalf("seeds %d and %d share epoch %#x", prev, seed, e)
		}
		seen[e] = seed
	}
	for seed := uint64(1); seed <= 1<<16; seed++ {
		e := newEpoch(seed, virtualStart)
		if again := newEpoch(seed, virtualStart.Add(time.Hour)); again != e {
			t.Fatalf("seed %d: epoch %#x, then %#x", seed, e, again)
		}
		check(seed, e)
	}
	for i := 0; i < 64; i++ {
		check(0, newEpoch(0, virtualStart))
	}
}

// TestRestartAcrossEpochWidths: a sender that restarts from a 64-bit epoch
// (what a host of an older build sends; this one is the corpus's) to a
// 32-bit one, and back, starts its stream over each time — a restart is
// recorded, and its messages, numbered from 1 again, are delivered rather
// than taken for duplicates — on the broadcast stream and on a unicast one.
func TestRestartAcrossEpochWidths(t *testing.T) {
	wide := wideEpoch(t)
	narrow := newEpoch(corpusSeed, virtualStart)
	if len(binary.AppendUvarint(nil, wide)) < 9 || len(binary.AppendUvarint(nil, narrow)) > 5 {
		t.Fatalf("epochs %#x and %#x: want a 64-bit and a 32-bit one", wide, narrow)
	}
	var b stub
	rec := telemetry.NewRecorder(64)
	m := newMachine(&b, Config{HeartbeatInterval: time.Hour}, 1, b.now, telemetry.NewRegistry(), CounterPrefix, rec)
	const sender = "stub:sender"
	for _, typ := range []byte{frameData, frameUData} {
		for _, epoch := range []uint64{wide, narrow, wide} {
			for seq := uint64(1); seq <= 3; seq++ {
				m.OnDatagram(sender, seqFrame(typ, epoch, seq))
			}
			if got := seqs(take(m)); !slices.Equal(got, []uint64{1, 2, 3}) {
				t.Fatalf("frame type %d, epoch %#x: delivered %v, want [1 2 3]", typ, epoch, got)
			}
		}
	}
	if d := m.Stats().Duplicates; d != 0 {
		t.Errorf("%d messages taken for duplicates", d)
	}
	var restarts []uint64
	for _, ev := range rec.Events() {
		if ev.Kind == telemetry.EventRestart {
			restarts = append(restarts, uint64(ev.A), uint64(ev.B))
		}
	}
	if want := []uint64{narrow, wide, wide, narrow}; !slices.Equal(restarts, want) {
		t.Errorf("restarts recorded as (new, old) epochs %#x, want %#x", restarts, want)
	}
}

// corpusSeed is the seed the corpus host was built with.
const corpusSeed = 11

// wideEpoch reads the epoch of the corpus's epoch64 data frame: what a host of
// that build seeded corpusSeed sends.
func wideEpoch(t *testing.T) uint64 {
	t.Helper()
	data, err := os.ReadFile("../../testdata/corpus/epoch64/reliable/data.frame")
	if err != nil {
		t.Fatal(err)
	}
	f, err := decodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	return f.data.epoch
}
