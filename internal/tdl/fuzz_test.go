package tdl

import (
	"reflect"
	"strings"
	"testing"
)

// depthOf is the nesting the reader counted for e: one per list and per
// quote on the path to the deepest atom.
func depthOf(e Sexp) int {
	switch x := e.(type) {
	case Quoted:
		return 1 + depthOf(x.X)
	case []Sexp:
		deepest := 0
		for _, sub := range x {
			deepest = max(deepest, depthOf(sub))
		}
		return 1 + deepest
	}
	return 1
}

// FuzzRead: the s-expression reader never panics, refuses nesting past
// maxParseDepth, and whatever it accepts FormatSexp prints back as source
// that reads to the same tree.
func FuzzRead(f *testing.F) {
	for _, src := range []string{
		newsProgram,
		"(+ 1 2)", "(a (b c) \"str\")", "'(1 2)", "; comment\n42", "-3.5", "#t", "x-y?z", // TestParser
		"(", ")", `"abc`, `"a\q"`, "(a))", // TestParserErrors
		`(define (adder n) (lambda (x) (+ x n)))`,
		`(cond ((< 2 1) "a") ((< 1 2) "b") (else "c"))`,
		`(let* ((a 2) (b (* a a)) (c (+ a b))) c)`,
		`(publish 'fab5.temp 21.5)`,
		"nil '() 1.0 1e6 -0.0 +Inf 0x1p-2 \"tab\\there\\n\" \"café \x01\"",
		strings.Repeat("(", maxParseDepth+1), strings.Repeat("'", maxParseDepth+1) + "x",
		strings.Repeat("(", maxParseDepth) + strings.Repeat(")", maxParseDepth),
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := ParseAll(src)
		if err != nil {
			return
		}
		printed := make([]string, len(tree))
		for i, e := range tree {
			if d := depthOf(e); d > maxParseDepth {
				t.Fatalf("accepted an expression nested %d deep, past maxParseDepth", d)
			}
			printed[i] = FormatSexp(e)
		}
		again, err := ParseAll(strings.Join(printed, "\n"))
		if err != nil {
			t.Fatalf("%q was read, but what it prints as is not: %v\n%s", src, err, strings.Join(printed, "\n"))
		}
		if !reflect.DeepEqual(tree, again) {
			t.Fatalf("%q reads to %#v, prints as %q and re-reads to %#v", src, tree, printed, again)
		}
	})
}
