package rsl

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is an arithmetic expression over integer literals and references to
// previously declared bundles.
type Expr interface {
	// Eval computes the expression given the values of already-decided
	// bundles.
	Eval(env map[string]int) (int, error)
	// Refs appends the bundle names the expression references.
	Refs(into []string) []string
	// String renders the expression in RSL syntax.
	String() string
}

// numExpr is an integer literal.
type numExpr int

func (n numExpr) Eval(map[string]int) (int, error) { return int(n), nil }
func (n numExpr) Refs(into []string) []string      { return into }
func (n numExpr) String() string                   { return strconv.Itoa(int(n)) }

// refExpr is a $name reference.
type refExpr string

func (r refExpr) Eval(env map[string]int) (int, error) {
	v, ok := env[string(r)]
	if !ok {
		return 0, fmt.Errorf("rsl: reference to undefined bundle $%s", string(r))
	}
	return v, nil
}
func (r refExpr) Refs(into []string) []string { return append(into, string(r)) }
func (r refExpr) String() string              { return "$" + string(r) }

// binExpr is a binary operation.
type binExpr struct {
	op   tokenKind
	l, r Expr
}

func (b binExpr) Eval(env map[string]int) (int, error) {
	l, err := b.l.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.r.Eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case tokPlus:
		return l + r, nil
	case tokMinus:
		return l - r, nil
	case tokStar:
		return l * r, nil
	case tokSlash:
		if r == 0 {
			return 0, fmt.Errorf("rsl: division by zero")
		}
		return l / r, nil
	}
	return 0, fmt.Errorf("rsl: unknown operator")
}

func (b binExpr) Refs(into []string) []string {
	return b.r.Refs(b.l.Refs(into))
}

func (b binExpr) String() string { return string(appendExpr(nil, b)) }

// negExpr is unary minus.
type negExpr struct{ e Expr }

func (n negExpr) Eval(env map[string]int) (int, error) {
	v, err := n.e.Eval(env)
	return -v, err
}
func (n negExpr) Refs(into []string) []string { return n.e.Refs(into) }
func (n negExpr) String() string              { return string(appendExpr(nil, n)) }

// appendExpr appends e's RSL rendering (its String form) to b.
func appendExpr(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case numExpr:
		return strconv.AppendInt(b, int64(e), 10)
	case refExpr:
		return append(append(b, '$'), e...)
	case binExpr:
		b = appendExpr(append(b, '('), e.l)
		switch e.op {
		case tokPlus:
			b = append(b, '+')
		case tokMinus:
			b = append(b, '-')
		case tokStar:
			b = append(b, '*')
		case tokSlash:
			b = append(b, '/')
		}
		return append(appendExpr(b, e.r), ')')
	case negExpr:
		return append(appendExpr(append(b, "(-"...), e.e), ')')
	}
	return append(b, e.String()...)
}

// Bundle is one declared parameter with (possibly restricted) bounds.
type Bundle struct {
	Name string
	Min  Expr
	Max  Expr
	Step Expr
}

// Restricted reports whether any bound references another bundle.
func (b Bundle) Restricted() bool {
	return len(b.Min.Refs(nil))+len(b.Max.Refs(nil))+len(b.Step.Refs(nil)) > 0
}

// Spec is an ordered list of bundles. Order matters: a bundle's bounds may
// reference only bundles declared before it (the paper's server decides
// values in declaration order).
type Spec struct {
	Bundles []Bundle
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	lex lexer
	tok token
}

// Parse parses RSL source into a validated Spec.
func Parse(src string) (*Spec, error) {
	p := parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	// Every bundle declaration names harmonyBundle once, so counting the
	// word sizes the bundle list. The count only bounds the bundles from
	// above (comments and malformed text may repeat the word), so it is
	// capped: a failing parse reserves little, and a longer spec grows the
	// list as it parses.
	spec := &Spec{Bundles: make([]Bundle, 0, min(strings.Count(src, "harmonyBundle"), 16))}
	for p.tok.kind != tokEOF {
		b, err := p.parseBundle()
		if err != nil {
			return nil, err
		}
		spec.Bundles = append(spec.Bundles, b)
	}
	if len(spec.Bundles) == 0 {
		return nil, fmt.Errorf("rsl: no bundles declared")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return token{}, fmt.Errorf("rsl: line %d: expected %v, found %v %q",
			p.tok.line, k, p.tok.kind, p.tok.text)
	}
	t := p.tok
	return t, p.advance()
}

// parseBundle parses { harmonyBundle <name> { int { <min> <max> <step> } } }.
func (p *parser) parseBundle() (Bundle, error) {
	var b Bundle
	if _, err := p.expect(tokLBrace); err != nil {
		return b, err
	}
	kw, err := p.expect(tokIdent)
	if err != nil {
		return b, err
	}
	if kw.text != "harmonyBundle" {
		return b, fmt.Errorf("rsl: line %d: expected 'harmonyBundle', found %q", kw.line, kw.text)
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return b, err
	}
	b.Name = name.text
	if _, err := p.expect(tokLBrace); err != nil {
		return b, err
	}
	typ, err := p.expect(tokIdent)
	if err != nil {
		return b, err
	}
	if typ.text != "int" {
		return b, fmt.Errorf("rsl: line %d: unsupported bundle type %q (only 'int')", typ.line, typ.text)
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return b, err
	}
	if b.Min, err = p.parseExpr(); err != nil {
		return b, err
	}
	if b.Max, err = p.parseExpr(); err != nil {
		return b, err
	}
	if b.Step, err = p.parseExpr(); err != nil {
		return b, err
	}
	for _, k := range []tokenKind{tokRBrace, tokRBrace, tokRBrace} {
		if _, err := p.expect(k); err != nil {
			return b, err
		}
	}
	return b, nil
}

// parseExpr parses addition/subtraction (lowest precedence).
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = binExpr{op: op, l: left, r: right}
	}
	return left, nil
}

// parseTerm parses multiplication/division.
func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash {
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		left = binExpr{op: op, l: left, r: right}
	}
	return left, nil
}

// parseFactor parses literals, references, parentheses and unary minus.
func (p *parser) parseFactor() (Expr, error) {
	switch p.tok.kind {
	case tokNumber:
		v, err := strconv.Atoi(p.tok.text)
		if err != nil {
			return nil, fmt.Errorf("rsl: line %d: bad number %q", p.tok.line, p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return numExpr(v), nil
	case tokRef:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return refExpr(name), nil
	case tokMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return negExpr{e: e}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, fmt.Errorf("rsl: line %d: expected expression, found %v %q",
		p.tok.line, p.tok.kind, p.tok.text)
}

// validate checks name uniqueness and that references point only to earlier
// bundles (the sequential-decision model of Appendix B).
func (s *Spec) validate() error {
	declared := map[string]int{}
	for i, b := range s.Bundles {
		if _, dup := declared[b.Name]; dup {
			return fmt.Errorf("rsl: duplicate bundle %q", b.Name)
		}
		for _, ref := range b.refs() {
			at, ok := declared[ref]
			if !ok {
				return fmt.Errorf("rsl: bundle %q references undeclared bundle $%s", b.Name, ref)
			}
			if at >= i {
				return fmt.Errorf("rsl: bundle %q references later bundle $%s", b.Name, ref)
			}
		}
		declared[b.Name] = i
	}
	return nil
}

func (b Bundle) refs() []string {
	return b.Step.Refs(b.Max.Refs(b.Min.Refs(nil)))
}
