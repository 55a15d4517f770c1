package reliable

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The wire corpus: see internal/core/corpus_test.go for what it holds and
// how a set is written. Here each frame is decoded, and -update records what
// this build reads from the head set's frames.
var update = flag.Bool("update", false, "record this build's decode of the head set of testdata/corpus")

// corpusFrames returns the path of every reliable frame in the corpus.
func corpusFrames(tb testing.TB) []string {
	tb.Helper()
	paths, err := filepath.Glob("../../testdata/corpus/*/reliable/*.frame")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no corpus frames (%v)", err)
	}
	return paths
}

// addCorpusSeeds seeds a fuzzer with every frame in the corpus.
func addCorpusSeeds(f *testing.F) {
	for _, path := range corpusFrames(f) {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
}

// describe prints a frame field by field, as a corpus .want holds it; a
// message's payload is its length and first bytes (the envelopes are in the
// corpus's busproto/ beside it).
func describe(f frame) string {
	var b strings.Builder
	switch f.typ {
	case frameData, frameUData:
		fmt.Fprintf(&b, "type %d\nepoch %#x\n", f.typ, f.data.epoch)
		for _, m := range f.data.msgs {
			fmt.Fprintf(&b, "seq %d payload %d %x\n", m.seq, len(m.payload), m.payload[:min(len(m.payload), 16)])
		}
	case frameNak:
		fmt.Fprintf(&b, "type %d\nepoch %#x\nfrom %d\nto %d\n", f.typ, f.nak.epoch, f.nak.from, f.nak.to)
	case frameUAck:
		fmt.Fprintf(&b, "type %d\nepoch %#x\ncum %d\n", f.typ, f.ack.epoch, f.ack.cum)
	case frameHeart:
		fmt.Fprintf(&b, "type %d\nepoch %#x\nmax %d\n", f.typ, f.heart.epoch, f.heart.maxSeq)
	}
	return b.String()
}

// encode is the frame's encoding at this build.
func encode(f frame) []byte {
	switch f.typ {
	case frameData, frameUData:
		return encodeData(*f.data)
	case frameNak:
		return encodeNak(f.nak)
	case frameUAck:
		return encodeAck(f.ack)
	default:
		return encodeHeart(f.heart)
	}
}

// TestCorpusDecodes: every frame of every corpus set — one per type, a data
// frame of one message and a batch among them, from the last build with
// 64-bit epochs and from this one — decodes at this build to the fields its
// .want records and re-encodes to exactly its bytes.
func TestCorpusDecodes(t *testing.T) {
	sets := map[string]int{}
	for _, path := range corpusFrames(t) {
		set := filepath.Base(filepath.Dir(filepath.Dir(path)))
		sets[set]++
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := decodeFrame(data)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if again := encode(f); !bytes.Equal(again, data) {
			t.Errorf("%s re-encodes to % x", path, again)
		}
		wantPath := strings.TrimSuffix(path, ".frame") + ".want"
		if *update && set == "head" {
			if err := os.WriteFile(wantPath, []byte(describe(f)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(wantPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := describe(f); got != string(want) {
			t.Errorf("%s decodes to\n%swant\n%s", path, got, want)
		}
	}
	for _, set := range []string{"epoch64", "head"} {
		if sets[set] != 6 {
			t.Errorf("set %s holds %d frames, want 6: data, data-batch, nak, udata, uack, heart", set, sets[set])
		}
	}
}
