package busproto

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The wire corpus: see internal/core/corpus_test.go for what it holds and
// how a set is written. Here each envelope is decoded, and -update records
// what this build reads from the head set's envelopes.
var update = flag.Bool("update", false, "record this build's decode of the head set of testdata/corpus")

// corpusFrames returns the path of every envelope in the corpus.
func corpusFrames(tb testing.TB) []string {
	tb.Helper()
	paths, err := filepath.Glob("../../testdata/corpus/*/busproto/*.frame")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no corpus envelopes (%v)", err)
	}
	return paths
}

// addCorpusSeeds seeds a fuzzer with every envelope in the corpus.
func addCorpusSeeds(f *testing.F) {
	for _, path := range corpusFrames(f) {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// describe prints an envelope field by field, as a corpus .want holds it.
func describe(e Envelope) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kind %d\nhops %d\nid %d\norigin %x\nsubject %q\n", e.Kind, e.Hops, e.ID, e.Origin, e.Subject)
	if e.Acked != nil {
		fmt.Fprintf(&b, "acked %v\n", e.Acked)
	}
	if e.Patterns != nil {
		fmt.Fprintf(&b, "patterns %q\n", e.Patterns)
	}
	if e.Traced() {
		fmt.Fprintf(&b, "trace %#x\n", e.TraceID)
		for _, h := range e.Trace {
			fmt.Fprintf(&b, "hop %s %q %d\n", HopKindName(h.Kind), h.Node, h.At)
		}
	}
	fmt.Fprintf(&b, "payload %d %x\n", len(e.Payload), e.Payload)
	return b.String()
}

// TestCorpusDecodes: every envelope of every corpus set — one per kind,
// traced and not, and an ack of one id and of a run list, from the last
// build with 28-byte origin tokens and from this one — decodes at this build
// to the fields its .want records, Peek agrees with Decode, and the envelope
// re-encodes to exactly its bytes.
func TestCorpusDecodes(t *testing.T) {
	sets := map[string]int{}
	for _, path := range corpusFrames(t) {
		set := filepath.Base(filepath.Dir(filepath.Dir(path)))
		sets[set]++
		frame, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Decode(frame)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := Peek(frame); err != nil {
			t.Errorf("%s: Peek: %v", path, err)
		}
		if again := Encode(e); string(again) != string(frame) {
			t.Errorf("%s re-encodes to % x", path, again)
		}
		wantPath := strings.TrimSuffix(path, ".frame") + ".want"
		if *update && set == "head" {
			if err := os.WriteFile(wantPath, []byte(describe(e)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(wantPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := describe(e); got != string(want) {
			t.Errorf("%s decodes to\n%swant\n%s", path, got, want)
		}
	}
	for _, set := range []string{"epoch64", "head"} {
		if sets[set] != 11 {
			t.Errorf("set %s holds %d envelopes, want 11: kinds 1-10 and the run-list ack", set, sets[set])
		}
	}
}
