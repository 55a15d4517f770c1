package tdl

import (
	"errors"
	"strings"
	"testing"

	"infobus/internal/mop"
	"infobus/internal/wire"
)

func evalOK(t *testing.T, in *Interp, src string) mop.Value {
	t.Helper()
	v, err := in.EvalString(src)
	if err != nil {
		t.Fatalf("EvalString(%q): %v", src, err)
	}
	return v
}

func TestParser(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"(+ 1 2)", "(+ 1 2)"},
		{"(a (b c) \"str\")", `(a (b c) "str")`},
		{"'(1 2)", "'(1 2)"},
		{"; comment\n42", "42"},
		{"-3.5", "-3.5"},
		{"#t", "#t"},
		{"x-y?z", "x-y?z"},
	}
	for _, c := range cases {
		e, err := ParseOne(c.src)
		if err != nil {
			t.Errorf("ParseOne(%q): %v", c.src, err)
			continue
		}
		if got := FormatSexp(e); got != c.want {
			t.Errorf("ParseOne(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParserErrors(t *testing.T) {
	cases := []struct {
		src  string
		want error
	}{
		{"(", ErrUnexpectedEOF},
		{")", ErrUnbalancedParen},
		{`"abc`, ErrUnterminated},
		{`"a\q"`, ErrBadToken},
		{"(a))", ErrUnbalancedParen},
	}
	for _, c := range cases {
		if _, err := ParseAll(c.src); !errors.Is(err, c.want) {
			t.Errorf("ParseAll(%q) error = %v, want %v", c.src, err, c.want)
		}
	}
}

func TestArithmeticAndLogic(t *testing.T) {
	in := New(nil, nil)
	cases := []struct {
		src  string
		want mop.Value
	}{
		{"(+ 1 2 3)", int64(6)},
		{"(- 10 3 2)", int64(5)},
		{"(- 5)", int64(-5)},
		{"(* 2 3 4)", int64(24)},
		{"(/ 10 2)", int64(5)},
		{"(+ 1 2.5)", 3.5},
		{"(mod 10 3)", int64(1)},
		{"(= 3 3)", true},
		{"(= 3 3.0)", true},
		{"(< 1 2)", true},
		{"(> \"b\" \"a\")", true},
		{"(<= 2 2)", true},
		{"(not #f)", true},
		{"(and #t 1 \"x\")", true},
		{"(and #t #f)", false},
		{"(or #f 7)", int64(7)},
		{"(or #f #f)", false},
		{"(eq? (list 1 2) (list 1 2))", true},
		{"(if (< 1 2) \"yes\" \"no\")", "yes"},
		{"(if #f \"yes\")", nil},
	}
	for _, c := range cases {
		got := evalOK(t, in, c.src)
		if !mop.EqualValues(got, c.want) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	in := New(nil, nil)
	for _, src := range []string{"(/ 1 0)", "(mod 1 0)", "(+ 1 \"x\")", "(< 1 \"x\")"} {
		if _, err := in.EvalString(src); err == nil {
			t.Errorf("%s should error", src)
		}
	}
}

func TestDefineLambdaLet(t *testing.T) {
	in := New(nil, nil)
	evalOK(t, in, "(define x 10)")
	if got := evalOK(t, in, "x"); got != int64(10) {
		t.Errorf("x = %v", got)
	}
	evalOK(t, in, "(define (square n) (* n n))")
	if got := evalOK(t, in, "(square 7)"); got != int64(49) {
		t.Errorf("(square 7) = %v", got)
	}
	if got := evalOK(t, in, "((lambda (a b) (+ a b)) 2 3)"); got != int64(5) {
		t.Errorf("lambda = %v", got)
	}
	if got := evalOK(t, in, "(let ((a 1) (b 2)) (+ a b))"); got != int64(3) {
		t.Errorf("let = %v", got)
	}
	// Closures capture their environment.
	evalOK(t, in, `(define (adder n) (lambda (x) (+ x n)))
	               (define add5 (adder 5))`)
	if got := evalOK(t, in, "(add5 3)"); got != int64(8) {
		t.Errorf("closure = %v", got)
	}
	// set! mutates enclosing binding.
	evalOK(t, in, `(define counter 0)
	               (define (bump) (set! counter (+ counter 1)))`)
	evalOK(t, in, "(bump) (bump)")
	if got := evalOK(t, in, "counter"); got != int64(2) {
		t.Errorf("counter = %v", got)
	}
	if _, err := in.EvalString("(set! nosuch 1)"); !errors.Is(err, ErrUnboundSymbol) {
		t.Errorf("set! unbound error = %v", err)
	}
	if _, err := in.EvalString("unbound"); !errors.Is(err, ErrUnboundSymbol) {
		t.Errorf("unbound error = %v", err)
	}
	if _, err := in.EvalString("(square 1 2)"); !errors.Is(err, ErrArity) {
		t.Errorf("arity error = %v", err)
	}
	if _, err := in.EvalString("(3 4)"); !errors.Is(err, ErrNotCallable) {
		t.Errorf("not callable error = %v", err)
	}
}

func TestWhileLoop(t *testing.T) {
	in := New(nil, nil)
	got := evalOK(t, in, `
	  (define i 0)
	  (define total 0)
	  (while (< i 5)
	    (set! total (+ total i))
	    (set! i (+ i 1)))
	  total`)
	if got != int64(10) {
		t.Errorf("while sum = %v", got)
	}
}

func TestListsAndHigherOrder(t *testing.T) {
	in := New(nil, nil)
	cases := []struct {
		src  string
		want string
	}{
		{"(list 1 2 3)", "(1 2 3)"},
		{"(length (list 1 2))", "2"},
		{"(nth (list \"a\" \"b\") 1)", "b"},
		{"(append (list 1) (list 2 3))", "(1 2 3)"},
		{"(map (lambda (x) (* x x)) (list 1 2 3))", "(1 4 9)"},
		{"(filter (lambda (x) (> x 1)) (list 1 2 3))", "(2 3)"},
	}
	for _, c := range cases {
		got := FormatValue(evalOK(t, in, c.src))
		if got != c.want {
			t.Errorf("%s = %s, want %s", c.src, got, c.want)
		}
	}
	if _, err := in.EvalString("(nth (list 1) 5)"); !errors.Is(err, ErrType) {
		t.Errorf("nth out of range error = %v", err)
	}
}

func TestStrings(t *testing.T) {
	in := New(nil, nil)
	cases := []struct {
		src  string
		want mop.Value
	}{
		{`(concat "a" "b" 3)`, "ab3"},
		{`(string-length "abcd")`, int64(4)},
		{`(substring "hello" 1 3)`, "el"},
		{`(contains? "hello world" "wor")`, true},
		{`(upcase "gm")`, "GM"},
	}
	for _, c := range cases {
		got := evalOK(t, in, c.src)
		if !mop.EqualValues(got, c.want) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

const newsProgram = `
(defclass Story ()
  ((headline string)
   (body string)
   (sources (list string))))

(defclass DowJonesStory (Story)
  ((djCode string)))

(defmethod summary ((s Story))
  (concat "STORY: " (slot-value s 'headline)))

(defmethod summary ((s DowJonesStory))
  (concat "DJ/" (slot-value s 'djCode) ": " (slot-value s 'headline)))
`

func TestDefclassRegistersTypes(t *testing.T) {
	reg := mop.NewRegistry()
	in := New(reg, nil)
	evalOK(t, in, newsProgram)
	story, err := reg.Lookup("Story")
	if err != nil {
		t.Fatal(err)
	}
	dj, err := reg.Lookup("DowJonesStory")
	if err != nil {
		t.Fatal(err)
	}
	if !dj.IsSubtypeOf(story) {
		t.Error("TDL-defined subtype relation missing")
	}
	if a, ok := dj.Attr("sources"); !ok || a.Type.Kind() != mop.KindList {
		t.Errorf("sources attr = %+v, %v", a, ok)
	}
	if dj.NumAttrs() != 4 {
		t.Errorf("DowJonesStory attrs = %d", dj.NumAttrs())
	}
}

func TestMakeInstanceAndSlots(t *testing.T) {
	in := New(nil, nil)
	evalOK(t, in, newsProgram)
	got := evalOK(t, in, `
	  (define s (make-instance 'DowJonesStory
	              'headline "GM soars"
	              'djCode "GMC"
	              'sources (list "DJ" "wire")))
	  (slot-value s 'headline)`)
	if got != "GM soars" {
		t.Errorf("slot-value = %v", got)
	}
	if got := evalOK(t, in, "(set-slot! s 'headline \"updated\") (slot-value s 'headline)"); got != "updated" {
		t.Errorf("set-slot! = %v", got)
	}
	// Type errors surface from the mop layer.
	if _, err := in.EvalString("(set-slot! s 'headline 5)"); !errors.Is(err, mop.ErrTypeMismatch) {
		t.Errorf("set-slot! type error = %v", err)
	}
	if _, err := in.EvalString("(make-instance 'NoSuch)"); !errors.Is(err, mop.ErrTypeUnknown) {
		t.Errorf("make-instance unknown class error = %v", err)
	}
	if _, err := in.EvalString("(make-instance 'Story 'nope 1)"); !errors.Is(err, mop.ErrNoAttr) {
		t.Errorf("make-instance bad slot error = %v", err)
	}
}

// TestSetSlotOnADecodedObject: an object off the wire is frozen, so
// set-slot! on it fails with an error wrapping mop.ErrFrozen and leaves it
// as it was; (clone o) is editable.
func TestSetSlotOnADecodedObject(t *testing.T) {
	in := New(nil, nil)
	evalOK(t, in, newsProgram)
	story := evalOK(t, in, `(make-instance 'DowJonesStory 'headline "GM soars" 'djCode "GMC")`)
	payload, err := wire.Marshal(story)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wire.UnmarshalWith(payload, in.Registry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	in.Define("d", decoded)
	if _, err := in.EvalString(`(set-slot! d 'headline "updated")`); !errors.Is(err, mop.ErrFrozen) {
		t.Errorf("set-slot! on a decoded object = %v, want ErrFrozen", err)
	}
	if got := evalOK(t, in, "(slot-value d 'headline)"); got != "GM soars" {
		t.Errorf("after a refused set-slot! the headline is %v", got)
	}
	if got := evalOK(t, in, `(define c (clone d)) (set-slot! c 'headline "updated") (slot-value c 'headline)`); got != "updated" {
		t.Errorf("set-slot! on a clone = %v", got)
	}
	if got := evalOK(t, in, "(slot-value d 'headline)"); got != "GM soars" {
		t.Errorf("a clone's set-slot! shows in the decoded object: %v", got)
	}
}

func TestMethodDispatch(t *testing.T) {
	in := New(nil, nil)
	evalOK(t, in, newsProgram)
	evalOK(t, in, `
	  (define base (make-instance 'Story 'headline "plain"))
	  (define dj (make-instance 'DowJonesStory 'headline "GM" 'djCode "GMC"))`)
	if got := evalOK(t, in, "(summary base)"); got != "STORY: plain" {
		t.Errorf("summary base = %v", got)
	}
	if got := evalOK(t, in, "(summary dj)"); got != "DJ/GMC: GM" {
		t.Errorf("summary dj (most specific method) = %v", got)
	}
	// A subtype without its own method inherits the supertype's.
	evalOK(t, in, `
	  (defclass ReutersStory (Story) ((priority int)))
	  (define r (make-instance 'ReutersStory 'headline "re"))`)
	if got := evalOK(t, in, "(summary r)"); got != "STORY: re" {
		t.Errorf("inherited dispatch = %v", got)
	}
	// No applicable method.
	evalOK(t, in, "(defclass Other () ())")
	if _, err := in.EvalString("(summary (make-instance 'Other))"); !errors.Is(err, ErrNoMethod) {
		t.Errorf("no-method error = %v", err)
	}
	if _, err := in.EvalString("(summary 42)"); !errors.Is(err, ErrNoMethod) {
		t.Errorf("dispatch on non-object error = %v", err)
	}
	// Redefining a method on the same class replaces it (live upgrade).
	evalOK(t, in, `(defmethod summary ((s Story)) "v2")`)
	if got := evalOK(t, in, "(summary base)"); got != "v2" {
		t.Errorf("redefined method = %v", got)
	}
}

func TestIntrospectionBuiltins(t *testing.T) {
	in := New(nil, nil)
	evalOK(t, in, newsProgram)
	evalOK(t, in, "(define s (make-instance 'DowJonesStory 'headline \"h\"))")
	if got := evalOK(t, in, "(type-of s)"); got != "DowJonesStory" {
		t.Errorf("type-of = %v", got)
	}
	if got := evalOK(t, in, "(instance-of? s 'Story)"); got != true {
		t.Errorf("instance-of? = %v", got)
	}
	got := FormatValue(evalOK(t, in, "(attribute-names s)"))
	if got != "(headline body sources djCode)" {
		t.Errorf("attribute-names = %v", got)
	}
	if got := evalOK(t, in, "(attribute-type s 'sources)"); got != "list<string>" {
		t.Errorf("attribute-type = %v", got)
	}
	if got := evalOK(t, in, "(class-exists? 'Story)"); got != true {
		t.Errorf("class-exists? = %v", got)
	}
	if got := evalOK(t, in, "(class-exists? 'Nope)"); got != false {
		t.Errorf("class-exists? = %v", got)
	}
	desc := evalOK(t, in, "(describe 'DowJonesStory)").(string)
	if !strings.Contains(desc, "class DowJonesStory : Story") {
		t.Errorf("describe = %q", desc)
	}
	// Generic print utility works on TDL-defined instances too (P2).
	var sb strings.Builder
	in2 := New(nil, &sb)
	evalOK(t, in2, newsProgram)
	evalOK(t, in2, "(print (make-instance 'Story 'headline \"x\"))")
	if !strings.Contains(sb.String(), `headline: "x"`) {
		t.Errorf("print output = %q", sb.String())
	}
}

func TestDefclassErrors(t *testing.T) {
	in := New(nil, nil)
	cases := []struct {
		src  string
		want error
	}{
		{"(defclass)", ErrBadForm},
		{"(defclass X (NoSuper) ())", mop.ErrTypeUnknown},
		{"(defclass X () ((a nosuchtype)))", mop.ErrTypeUnknown},
		{"(defclass X () (a))", ErrBadForm},
		{"(defclass X () ((a int) (a int)))", mop.ErrDupAttr},
		{"(defmethod f ((x NoClass)) 1)", mop.ErrTypeUnknown},
		{"(defmethod f (x) 1)", ErrBadForm},
	}
	for _, c := range cases {
		if _, err := in.EvalString(c.src); !errors.Is(err, c.want) {
			t.Errorf("%s error = %v, want %v", c.src, err, c.want)
		}
	}
	// Redefinition of a class is rejected (types are immutable).
	evalOK(t, in, "(defclass X () ((a int)))")
	if _, err := in.EvalString("(defclass X () ((b int)))"); !errors.Is(err, mop.ErrTypeExists) {
		t.Errorf("class redefinition error = %v", err)
	}
}

func TestGoInterop(t *testing.T) {
	reg := mop.NewRegistry()
	in := New(reg, nil)
	evalOK(t, in, newsProgram)
	// Go code creates an object of a TDL-defined class and calls a TDL
	// method on it — the paper's "new types handled at run time".
	story, err := reg.Lookup("Story")
	if err != nil {
		t.Fatal(err)
	}
	obj := mop.MustNew(story).MustSet("headline", "from Go")
	in.Define("fromGo", obj)
	if got := evalOK(t, in, "(summary fromGo)"); got != "STORY: from Go" {
		t.Errorf("cross-language dispatch = %v", got)
	}
	v, err := in.Call("summary", obj)
	if err != nil || v != "STORY: from Go" {
		t.Errorf("Call = %v, %v", v, err)
	}
	if _, err := in.Call("nosuchfn"); !errors.Is(err, ErrUnboundSymbol) {
		t.Errorf("Call unknown error = %v", err)
	}
	names := in.GenericNames()
	if len(names) != 1 || names[0] != "summary" {
		t.Errorf("GenericNames = %v", names)
	}
}

func TestRecursionDepthGuard(t *testing.T) {
	in := New(nil, nil)
	evalOK(t, in, "(define (loop n) (loop (+ n 1)))")
	if _, err := in.EvalString("(loop 0)"); !errors.Is(err, ErrDepth) {
		t.Errorf("runaway recursion error = %v", err)
	}
}

func TestQuoteForms(t *testing.T) {
	in := New(nil, nil)
	if got := evalOK(t, in, "'sym"); got != "sym" {
		t.Errorf("'sym = %v", got)
	}
	if got := FormatValue(evalOK(t, in, "'(a 1 (b))")); got != "(a 1 (b))" {
		t.Errorf("quoted list = %v", got)
	}
	if got := evalOK(t, in, "(quote x)"); got != "x" {
		t.Errorf("(quote x) = %v", got)
	}
	if got := evalOK(t, in, "nil"); got != nil {
		t.Errorf("nil = %v", got)
	}
}

func TestDefineBuiltinHostExtension(t *testing.T) {
	in := New(nil, nil)
	var published []string
	in.DefineBuiltin("publish", 2, func(args []mop.Value) (mop.Value, error) {
		subj, ok := args[0].(string)
		if !ok {
			return nil, errors.New("subject must be a string")
		}
		published = append(published, subj+"="+FormatValue(args[1]))
		return true, nil
	})
	if got := evalOK(t, in, `(publish 'fab5.temp 21.5)`); got != true {
		t.Errorf("publish = %v", got)
	}
	if len(published) != 1 || published[0] != "fab5.temp=21.5" {
		t.Errorf("published = %v", published)
	}
	// Errors from host builtins surface as evaluation errors.
	if _, err := in.EvalString(`(publish 42 "x")`); err == nil {
		t.Error("host error not propagated")
	}
	// Arity enforced.
	if _, err := in.EvalString(`(publish 'a)`); !errors.Is(err, ErrArity) {
		t.Errorf("arity error = %v", err)
	}
	// Variadic host builtin.
	in.DefineBuiltin("sum-all", -1, func(args []mop.Value) (mop.Value, error) {
		var total int64
		for _, a := range args {
			total += a.(int64)
		}
		return total, nil
	})
	if got := evalOK(t, in, "(sum-all 1 2 3 4)"); got != int64(10) {
		t.Errorf("sum-all = %v", got)
	}
}

func TestParserDepthGuard(t *testing.T) {
	deep := strings.Repeat("(", 100_000) + "1" + strings.Repeat(")", 100_000)
	if _, err := ParseAll(deep); !errors.Is(err, ErrTooNested) {
		t.Errorf("deep parse error = %v, want ErrTooNested", err)
	}
	// Reasonable nesting still parses.
	ok := strings.Repeat("(list ", 100) + "1" + strings.Repeat(")", 100)
	if _, err := ParseAll(ok); err != nil {
		t.Errorf("100-deep parse failed: %v", err)
	}
}

func TestCondAndLetStar(t *testing.T) {
	in := New(nil, nil)
	cases := []struct {
		src  string
		want mop.Value
	}{
		{`(cond ((< 2 1) "a") ((< 1 2) "b") (else "c"))`, "b"},
		{`(cond ((< 2 1) "a") (else "c"))`, "c"},
		{`(cond ((< 2 1) "a"))`, nil},
		{`(cond (7))`, int64(7)}, // bare truthy test returns its value
		{`(let* ((a 2) (b (* a a)) (c (+ a b))) c)`, int64(6)},
	}
	for _, c := range cases {
		got := evalOK(t, in, c.src)
		if !mop.EqualValues(got, c.want) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
	if _, err := in.EvalString(`(cond bad)`); !errors.Is(err, ErrBadForm) {
		t.Errorf("cond bad clause = %v", err)
	}
	if _, err := in.EvalString(`(let* (x) 1)`); !errors.Is(err, ErrBadForm) {
		t.Errorf("let* bad binding = %v", err)
	}
}

func TestReduceAndReverse(t *testing.T) {
	in := New(nil, nil)
	if got := evalOK(t, in, "(reduce (lambda (acc x) (+ acc x)) 0 (list 1 2 3 4))"); got != int64(10) {
		t.Errorf("reduce = %v", got)
	}
	if got := evalOK(t, in, `(reduce (lambda (acc x) (concat acc x)) "" (list "a" "b" "c"))`); got != "abc" {
		t.Errorf("string reduce = %v", got)
	}
	if got := FormatValue(evalOK(t, in, "(reverse (list 1 2 3))")); got != "(3 2 1)" {
		t.Errorf("reverse = %v", got)
	}
	if _, err := in.EvalString("(reduce + 0 5)"); !errors.Is(err, ErrType) {
		t.Errorf("reduce non-list = %v", err)
	}
	if _, err := in.EvalString("(reverse 5)"); !errors.Is(err, ErrType) {
		t.Errorf("reverse non-list = %v", err)
	}
}
