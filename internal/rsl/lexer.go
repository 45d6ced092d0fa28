// Package rsl implements the Active Harmony resource specification language
// with the parameter-restriction extension of the paper's Appendix B.
//
// The language declares tunable parameters ("bundles") with integer ranges:
//
//	{ harmonyBundle B { int {1 10 1} } }
//
// and, with the restriction extension, range bounds may be arithmetic
// expressions over previously declared bundles:
//
//	{ harmonyBundle B { int {1 8 1} } }
//	{ harmonyBundle C { int {1 9-$B 1} } }
//
// so only feasible configurations (here B + C <= 9) are ever explored,
// shrinking the search space. The package provides the lexer and recursive
// descent parser, expression evaluation, feasible-configuration enumeration
// and counting, uniform sampling, and an adapter that exposes a restricted
// specification to the Nelder–Mead kernel through a normalized coordinate
// box.
package rsl

import (
	"fmt"
	"unicode"
)

// tokenKind discriminates lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokLBrace
	tokRBrace
	tokLParen
	tokRParen
	tokIdent  // harmonyBundle, int, parameter names
	tokNumber // integer literal
	tokRef    // $name
	tokPlus
	tokMinus
	tokStar
	tokSlash
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokRef:
		return "'$' reference"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	}
	return "unknown token"
}

// token is one lexical unit with its source position.
type token struct {
	kind tokenKind
	text string
	pos  int // byte offset in the source
	line int
}

// lexer tokenizes RSL source.
type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) lexer { return lexer{src: src, line: 1} }

// next returns the next token or an error for an illegal character.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#': // comment to end of line
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return l.lexToken()
		}
	}
	return token{kind: tokEOF, pos: l.pos, line: l.line}, nil
}

func (l *lexer) lexToken() (token, error) {
	start, line := l.pos, l.line
	c := l.src[l.pos]
	single := func(k tokenKind) (token, error) {
		l.pos++
		return token{kind: k, text: l.src[start:l.pos], pos: start, line: line}, nil
	}
	switch c {
	case '{':
		return single(tokLBrace)
	case '}':
		return single(tokRBrace)
	case '(':
		return single(tokLParen)
	case ')':
		return single(tokRParen)
	case '+':
		return single(tokPlus)
	case '-':
		return single(tokMinus)
	case '*':
		return single(tokStar)
	case '/':
		return single(tokSlash)
	case '$':
		l.pos++
		id := l.lexIdentText()
		if id == "" {
			return token{}, fmt.Errorf("rsl: line %d: '$' must be followed by a bundle name", line)
		}
		return token{kind: tokRef, text: id, pos: start, line: line}, nil
	}
	if isDigit(c) {
		for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start, line: line}, nil
	}
	if isIdentStart(rune(c)) {
		id := l.lexIdentText()
		return token{kind: tokIdent, text: id, pos: start, line: line}, nil
	}
	return token{}, fmt.Errorf("rsl: line %d: illegal character %q", line, c)
}

func (l *lexer) lexIdentText() string {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	return l.src[start:l.pos]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// tokenize lexes the whole source (used by tests).
func tokenize(src string) ([]token, error) {
	l := newLexer(src)
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
