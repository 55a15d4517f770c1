package telemetry

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestTopKBasic(t *testing.T) {
	tk := NewTopK(2)
	tk.Note("a.x", 10)
	tk.Note("a.x", 10)
	tk.NoteDrop("a.x")
	tk.NoteDrop("never.noted")
	tk.Note("b.y", 5)
	snap := tk.Snapshot()
	if len(snap) != 2 || snap[0].Family != "a.x" || snap[0].Msgs != 2 ||
		snap[0].Bytes != 20 || snap[0].Drops != 1 || snap[0].Err != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	// Third family evicts the minimum (b.y) and inherits its count.
	tk.Note("c.z", 1)
	snap = tk.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("table grew past k: %+v", snap)
	}
	var cz *TopKEntry
	for i := range snap {
		if snap[i].Family == "c.z" {
			cz = &snap[i]
		}
		if snap[i].Family == "b.y" {
			t.Fatalf("minimum not evicted: %+v", snap)
		}
	}
	if cz == nil || cz.Msgs != 2 || cz.Err != 1 {
		t.Fatalf("space-saving inheritance: %+v", snap)
	}
}

// TestTopKZipfAccuracy drives a K=64 table with Zipf-distributed families
// and checks the true heavy hitters all survive with small relative error.
func TestTopKZipfAccuracy(t *testing.T) {
	const k = 64
	tk := NewTopK(k)
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1, 4096)
	truth := make(map[string]uint64)
	for i := 0; i < 200000; i++ {
		fam := fmt.Sprintf("fam%d.sub", zipf.Uint64())
		truth[fam]++
		tk.Note(fam, 64)
	}
	snap := tk.Snapshot()
	if len(snap) != k {
		t.Fatalf("table size %d, want %d", len(snap), k)
	}
	tabled := make(map[string]TopKEntry, len(snap))
	for _, e := range snap {
		tabled[e.Family] = e
	}
	// The true top-16 families must all be present with ≤10% overcount
	// (space-saving never undercounts).
	type fc struct {
		fam string
		n   uint64
	}
	var ranked []fc
	for f, n := range truth {
		ranked = append(ranked, fc{f, n})
	}
	for i := 0; i < len(ranked); i++ {
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].n > ranked[i].n {
				ranked[i], ranked[j] = ranked[j], ranked[i]
			}
		}
	}
	for _, want := range ranked[:16] {
		got, ok := tabled[want.fam]
		if !ok {
			t.Fatalf("heavy hitter %s (%d msgs) missing from table", want.fam, want.n)
		}
		if got.Msgs < want.n {
			t.Fatalf("%s undercounted: %d < %d", want.fam, got.Msgs, want.n)
		}
		if got.Msgs-got.Err > want.n {
			t.Fatalf("%s overcount exceeds Err bound: %d-%d > %d",
				want.fam, got.Msgs, got.Err, want.n)
		}
		if float64(got.Msgs-want.n) > 0.10*float64(want.n)+float64(got.Err) {
			t.Fatalf("%s overcount too large: got %d want %d err %d",
				want.fam, got.Msgs, want.n, got.Err)
		}
	}
}

func TestMergeTopK(t *testing.T) {
	a := []TopKEntry{{Family: "x", Msgs: 5, Bytes: 50, Err: 1}, {Family: "y", Msgs: 2}}
	b := []TopKEntry{{Family: "x", Msgs: 3, Bytes: 30, Drops: 1, Err: 2}, {Family: "z", Msgs: 9}}
	got := MergeTopK(2, a, b)
	if len(got) != 2 || got[0].Family != "z" || got[1].Family != "x" {
		t.Fatalf("merge: %+v", got)
	}
	if got[1].Msgs != 8 || got[1].Bytes != 80 || got[1].Drops != 1 || got[1].Err != 2 {
		t.Fatalf("merged x: %+v", got[1])
	}
	if all := MergeTopK(0, a, b); len(all) != 3 {
		t.Fatalf("k=0 keeps all: %+v", all)
	}
}
