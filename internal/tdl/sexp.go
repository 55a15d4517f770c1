// Package tdl implements TDL, the small interpreted language "based on
// CLOS" that the Information Bus uses for dynamic classing (P3). TDL
// programs define classes (which register mop types at run time), define
// methods with class-based dispatch, and create and manipulate instances.
//
// The surface syntax is a Lisp s-expression subset:
//
//	(defclass Story ()
//	  ((headline string)
//	   (sources (list string))))
//
//	(defclass DowJonesStory (Story)
//	  ((djCode string)))
//
//	(defmethod summary ((s Story))
//	  (concat (slot-value s 'headline) "..."))
//
//	(define gm (make-instance 'DowJonesStory 'headline "GM up" 'djCode "GMC"))
//	(summary gm)        ; dispatches on the class of gm
//
// Classes defined in TDL are ordinary mop classes: they are registered in
// the interpreter's mop.Registry, marshal on the bus with the
// self-describing wire format, and are introspectable by every generic tool
// (P2). This is how a running system gains new types without recompilation.
package tdl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Syntax node kinds. A parsed expression is one of:
//
//	Symbol        identifier
//	string        literal
//	int64/float64 literal
//	bool          literal (#t / #f)
//	Quoted        'expr
//	[]Sexp        list
type Sexp = any

// Symbol is a TDL identifier.
type Symbol string

// Quoted wraps a quoted expression: 'x parses as Quoted{Symbol("x")}.
type Quoted struct {
	X Sexp
}

// Parse errors.
var (
	ErrUnexpectedEOF   = errors.New("tdl: unexpected end of input")
	ErrUnbalancedParen = errors.New("tdl: unbalanced parenthesis")
	ErrBadToken        = errors.New("tdl: bad token")
	ErrUnterminated    = errors.New("tdl: unterminated string literal")
	ErrTooNested       = errors.New("tdl: expression nested too deeply")
)

// maxParseDepth bounds expression nesting so pathological input cannot
// overflow the parser's stack.
const maxParseDepth = 2000

// ParseAll parses a program into its top-level expressions.
func ParseAll(src string) ([]Sexp, error) {
	p := &parser{src: src}
	var out []Sexp
	for {
		p.skipSpace()
		if p.eof() {
			return out, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// ParseOne parses exactly one expression and rejects trailing content.
func ParseOne(src string) (Sexp, error) {
	all, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(all) != 1 {
		return nil, fmt.Errorf("tdl: expected one expression, got %d", len(all))
	}
	return all[0], nil
}

type parser struct {
	src   string
	pos   int
	line  int
	depth int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte { return p.src[p.pos] }

func (p *parser) skipSpace() {
	for !p.eof() {
		c := p.peek()
		switch {
		case c == ';': // comment to end of line
			for !p.eof() && p.peek() != '\n' {
				p.pos++
			}
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) errf(err error, format string, args ...any) error {
	return fmt.Errorf("line %d: %s: %w", p.line+1, fmt.Sprintf(format, args...), err)
}

func (p *parser) expr() (Sexp, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxParseDepth {
		return nil, p.errf(ErrTooNested, "depth %d", p.depth)
	}
	p.skipSpace()
	if p.eof() {
		return nil, p.errf(ErrUnexpectedEOF, "expression expected")
	}
	switch c := p.peek(); {
	case c == '(':
		p.pos++
		var list []Sexp
		for {
			p.skipSpace()
			if p.eof() {
				return nil, p.errf(ErrUnexpectedEOF, "inside list")
			}
			if p.peek() == ')' {
				p.pos++
				return list, nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
		}
	case c == ')':
		return nil, p.errf(ErrUnbalancedParen, "unexpected ')'")
	case c == '\'':
		p.pos++
		inner, err := p.expr()
		if err != nil {
			return nil, err
		}
		return Quoted{X: inner}, nil
	case c == '"':
		return p.stringLit()
	default:
		return p.atom()
	}
}

func (p *parser) stringLit() (Sexp, error) {
	p.pos++ // opening quote
	var b strings.Builder
	for {
		if p.eof() {
			return nil, p.errf(ErrUnterminated, "string literal")
		}
		c := p.peek()
		p.pos++
		switch c {
		case '"':
			return b.String(), nil
		case '\\':
			if p.eof() {
				return nil, p.errf(ErrUnterminated, "escape at end of input")
			}
			e := p.peek()
			p.pos++
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				return nil, p.errf(ErrBadToken, "unknown escape \\%c", e)
			}
		case '\n':
			return nil, p.errf(ErrUnterminated, "newline in string literal")
		default:
			b.WriteByte(c)
		}
	}
}

func isSymbolChar(c byte) bool {
	if c >= 0x80 {
		return true
	}
	r := rune(c)
	return unicode.IsLetter(r) || unicode.IsDigit(r) ||
		strings.ContainsRune("+-*/<>=!?._%&:#", r)
}

func (p *parser) atom() (Sexp, error) {
	start := p.pos
	for !p.eof() && isSymbolChar(p.peek()) {
		p.pos++
	}
	tok := p.src[start:p.pos]
	if tok == "" {
		return nil, p.errf(ErrBadToken, "character %q", p.peek())
	}
	switch tok {
	case "#t", "true":
		return true, nil
	case "#f", "false":
		return false, nil
	case "nil":
		return Quoted{X: nil}, nil // evaluates to nil
	}
	if i, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil && looksNumeric(tok) {
		return f, nil
	}
	return Symbol(tok), nil
}

func looksNumeric(tok string) bool {
	c := tok[0]
	return c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9')
}

// stringEscaper writes a string literal's content with the four escapes
// the reader knows; every other byte stands for itself there.
var stringEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)

// FormatSexp renders a parsed expression back to source, mainly for error
// messages and the REPL: what it prints reads to the same tree (FuzzRead).
func FormatSexp(e Sexp) string {
	switch x := e.(type) {
	case nil:
		return "nil"
	case Symbol:
		return string(x)
	case string:
		return `"` + stringEscaper.Replace(x) + `"`
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		s := strconv.FormatFloat(x, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eIN") {
			s += ".0" // an integral float stays a float when read back
		}
		return s
	case bool:
		if x {
			return "#t"
		}
		return "#f"
	case Quoted:
		if x.X == nil {
			return "nil" // the atom reads as Quoted{nil}
		}
		return "'" + FormatSexp(x.X)
	case []Sexp:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = FormatSexp(e)
		}
		return "(" + strings.Join(parts, " ") + ")"
	default:
		return fmt.Sprintf("%v", e)
	}
}
