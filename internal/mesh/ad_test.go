package mesh

import (
	"fmt"
	"strings"
	"testing"
)

func TestHelloAdRoundTrip(t *testing.T) {
	mt := MustTypes()
	in := HelloAd{
		Router: "rb", Root: "ra", Cost: 3, Parent: "ra", Seq: 42,
		Links: []LinkInfo{
			{Name: "S1", State: "forwarding", Peers: 2},
			{Name: "S2", State: "blocked", Peers: 1},
		},
	}
	payload, err := MarshalHello(mt, in)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseAd(payload)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := v.(HelloAd)
	if !ok {
		t.Fatalf("parsed %T", v)
	}
	if out.Router != in.Router || out.Root != in.Root || out.Cost != in.Cost ||
		out.Parent != in.Parent || out.Seq != in.Seq || len(out.Links) != 2 ||
		out.Links[1].State != "blocked" {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestStatusAdRoundTrip(t *testing.T) {
	mt := MustTypes()
	in := StatusAd{
		Node: "router-a", Router: "ra", Root: "ra", Cost: 0, Seq: 9,
		Links: []LinkInfo{{Name: "S1", State: "forwarding", Peers: 1, Patterns: []string{"a.>"}}},
	}
	payload, err := MarshalStatus(mt, in)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseAd(payload)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := v.(StatusAd)
	if !ok || out.Node != "router-a" || len(out.Links) != 1 || len(out.Links[0].Patterns) != 1 {
		t.Fatalf("round trip: %+v (%T)", v, v)
	}
}

// TestParseAdCaps: oversized pattern lists truncate (narrowing is safe),
// invalid patterns drop without poisoning siblings, and bad structural
// shapes reject. The pattern list is a status row's: interest itself
// arrives as a busproto.KindInterest envelope, whose caps
// TestInterestTableCaps checks where the table applies them.
func TestParseAdCaps(t *testing.T) {
	mt := MustTypes()
	var pats []string
	for i := 0; i < MaxAdPatterns+50; i++ {
		pats = append(pats, fmt.Sprintf("p%d.>", i))
	}
	pats[3] = "bad..pattern"
	pats[5] = strings.Repeat("x", 600) // over subject.MaxLength
	payload, err := MarshalStatus(mt, StatusAd{Router: "r", Links: []LinkInfo{{Name: "S1", Patterns: pats}}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseAd(payload)
	if err != nil {
		t.Fatal(err)
	}
	out := v.(StatusAd).Links[0].Patterns
	if len(out) == 0 || len(out) > MaxAdPatterns {
		t.Fatalf("pattern cap not enforced: %d", len(out))
	}
	for _, p := range out {
		if p == "bad..pattern" || len(p) > 500 {
			t.Fatalf("invalid pattern survived: %q", p)
		}
	}

	// Missing router id rejects.
	bad, err := MarshalStatus(mt, StatusAd{Router: ""})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseAd(bad); err == nil {
		t.Fatal("empty router id must reject")
	}
	// Negative cost rejects (it would win every election forever).
	badHello, err := MarshalHello(mt, HelloAd{Router: "r", Root: "r", Cost: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseAd(badHello); err == nil {
		t.Fatal("negative cost must reject")
	}
	// Arbitrary junk rejects without panicking.
	if _, err := ParseAd([]byte("not a wire message")); err == nil {
		t.Fatal("junk must reject")
	}
	if _, err := ParseAd(make([]byte, maxAdBytes+1)); err == nil {
		t.Fatal("oversize payload must reject before decoding")
	}
}

// FuzzMeshAd: the mesh advertisement codec is network input on every
// segment a router attaches to; arbitrary bytes must never panic, and
// anything accepted must be within the documented caps.
func FuzzMeshAd(f *testing.F) {
	mt := MustTypes()
	seedHello, _ := MarshalHello(mt, HelloAd{
		Router: "rb", Root: "ra", Cost: 3, Parent: "ra", Seq: 42,
		Links: []LinkInfo{{Name: "S1", State: "forwarding", Peers: 2}},
	})
	seedStatus, _ := MarshalStatus(mt, StatusAd{
		Node: "router-a", Router: "ra", Root: "ra", Seq: 9,
		Links: []LinkInfo{{Name: "S1", State: "forwarding", Patterns: []string{"a.>"}}},
	})
	f.Add(seedHello)
	f.Add(seedStatus)
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ParseAd(data)
		if err != nil {
			return
		}
		switch ad := v.(type) {
		case HelloAd:
			if ad.Router == "" || ad.Root == "" || ad.Cost < 0 {
				t.Fatalf("accepted invalid hello %+v", ad)
			}
			if len(ad.Links) > MaxAdLinks {
				t.Fatalf("link cap breached: %d", len(ad.Links))
			}
		case StatusAd:
			if ad.Router == "" || len(ad.Links) > MaxAdLinks {
				t.Fatalf("accepted invalid status %+v", ad)
			}
			for _, l := range ad.Links {
				if len(l.Patterns) > MaxAdPatterns {
					t.Fatalf("link pattern cap breached: %d", len(l.Patterns))
				}
			}
		default:
			t.Fatalf("unknown accepted type %T", v)
		}
	})
}
