package mesh

import (
	"fmt"
	"strings"
	"testing"
)

func TestHelloAdRoundTrip(t *testing.T) {
	in := HelloAd{
		Router: "rb", Root: "ra", Cost: 3, Parent: "ra", Seq: 42,
		Links: []LinkInfo{
			{Name: "S1", State: "forwarding", Peers: 2},
			{Name: "S2", State: "blocked", Peers: 1},
		},
	}
	payload, err := MarshalHello(&in)
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
	in := StatusAd{
		Node: "router-a", Router: "ra", Root: "ra", Cost: 0, Seq: 9,
		Links: []LinkInfo{{Name: "S1", State: "forwarding", Peers: 1, Patterns: []string{"a.>"}}},
	}
	payload, err := MarshalStatus(&in)
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
	var pats []string
	for i := 0; i < MaxAdPatterns+50; i++ {
		pats = append(pats, fmt.Sprintf("p%d.>", i))
	}
	pats[3] = "bad..pattern"
	pats[5] = strings.Repeat("x", 600) // over subject.MaxLength
	payload, err := MarshalStatus(&StatusAd{Router: "r", Links: []LinkInfo{{Name: "S1", Patterns: pats}}})
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
	bad, err := MarshalStatus(&StatusAd{Router: ""})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseAd(bad); err == nil {
		t.Fatal("empty router id must reject")
	}
	// Negative cost rejects (it would win every election forever).
	badHello, err := MarshalHello(&HelloAd{Router: "r", Root: "r", Cost: -1})
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

// TestDeclaredCapsBite: the link and identifier caps are `max=` bounds in the
// struct tags; this ties those literals to the constants that document them.
// A link list over MaxAdLinks is cut to it, an identifier of maxTokenLen
// reads, one byte more reads as absent — which rejects the ad when the
// identifier is required and drops the link when it is the link's name.
func TestDeclaredCapsBite(t *testing.T) {
	parse := func(ad any) (any, error) {
		var payload []byte
		var err error
		switch ad := ad.(type) {
		case HelloAd:
			payload, err = MarshalHello(&ad)
		case StatusAd:
			payload, err = MarshalStatus(&ad)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ParseAd(payload)
	}
	var links []LinkInfo
	for i := 0; i < MaxAdLinks+10; i++ {
		links = append(links, LinkInfo{Name: fmt.Sprintf("S%d", i)})
	}
	v, err := parse(HelloAd{Router: "r", Root: "r", Links: links})
	if err != nil || len(v.(HelloAd).Links) != MaxAdLinks {
		t.Fatalf("link cap: %v, %d links", err, len(v.(HelloAd).Links))
	}
	fits, over := strings.Repeat("x", maxTokenLen), strings.Repeat("x", maxTokenLen+1)
	if v, err := parse(HelloAd{Router: fits, Root: fits, Parent: fits}); err != nil || v.(HelloAd).Parent != fits {
		t.Fatalf("identifiers at the cap must read: %v", err)
	}
	if _, err := parse(HelloAd{Router: over, Root: "r"}); err == nil {
		t.Fatal("oversized router id must reject")
	}
	if _, err := parse(HelloAd{Router: "r", Root: over}); err == nil {
		t.Fatal("oversized root id must reject")
	}
	if _, err := parse(StatusAd{Router: over}); err == nil {
		t.Fatal("oversized status router id must reject")
	}
	v, err = parse(StatusAd{Router: "r", Node: over, Parent: over,
		Links: []LinkInfo{{Name: over}, {Name: "S1", State: over}}})
	if err != nil {
		t.Fatal(err)
	}
	st := v.(StatusAd)
	if st.Node != "" || st.Parent != "" || len(st.Links) != 1 || st.Links[0].Name != "S1" || st.Links[0].State != "" {
		t.Fatalf("oversized optional identifiers must read as absent: %+v", st)
	}
}

// FuzzMeshAd: the mesh advertisement codec is network input on every
// segment a router attaches to; arbitrary bytes must never panic, and
// anything accepted must be within the documented caps.
func FuzzMeshAd(f *testing.F) {
	seedHello, _ := MarshalHello(&HelloAd{
		Router: "rb", Root: "ra", Cost: 3, Parent: "ra", Seq: 42,
		Links: []LinkInfo{{Name: "S1", State: "forwarding", Peers: 2}},
	})
	seedStatus, _ := MarshalStatus(&StatusAd{
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
