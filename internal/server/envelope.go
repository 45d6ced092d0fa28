package server

// The envelope codec: message to and from its JSON envelope, by hand.
//
// appendMessage writes the envelope byte for byte as encoding/json marshals
// the message struct (the tags on message are the schema): field order,
// each field's omitempty rule, encoding/json's float format and its string
// escaping with HTML-safe escapes. The v1/v2 JSON lines and the v3 cold-path
// frames (register, registered, best) are pinned to those bytes.
//
// decode parses every line appendMessage can emit — compact, keys in
// schema case, no null — without reflection, and allocates only what the
// message keeps: Values, Names, Characteristics and the strings that are
// not interned (ops and directions are). Any other line goes to
// json.Unmarshal, the decoder of record, so insignificant whitespace,
// unknown or case-folded keys, null, surrogate escapes and invalid UTF-8
// keep the accept set and meaning they always had.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// appendMessage appends m's JSON envelope to dst. Like json.Marshal it
// refuses a NaN or infinite float; dst is then returned unfinished.
func appendMessage(dst []byte, m message) ([]byte, error) {
	var err error
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, m.Op)
	if m.RSL != "" {
		dst = appendString(append(dst, `,"rsl":`...), m.RSL)
	}
	if m.Direction != "" {
		dst = appendString(append(dst, `,"direction":`...), m.Direction)
	}
	if m.MaxEvals != 0 {
		dst = strconv.AppendInt(append(dst, `,"maxEvals":`...), int64(m.MaxEvals), 10)
	}
	if m.Improved {
		dst = append(dst, `,"improved":true`...)
	}
	if m.App != "" {
		dst = appendString(append(dst, `,"app":`...), m.App)
	}
	if len(m.Characteristics) > 0 {
		dst = append(dst, `,"characteristics":[`...)
		for i, c := range m.Characteristics {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendFloat(dst, c); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if m.Window != 0 {
		dst = strconv.AppendInt(append(dst, `,"window":`...), int64(m.Window), 10)
	}
	if m.Mux {
		dst = append(dst, `,"mux":true`...)
	}
	if len(m.Names) > 0 {
		dst = append(dst, `,"names":[`...)
		for i, n := range m.Names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, n)
		}
		dst = append(dst, ']')
	}
	if m.Warm {
		dst = append(dst, `,"warm":true`...)
	}
	if m.hasID {
		dst = strconv.AppendInt(append(dst, `,"id":`...), int64(m.id), 10)
	}
	if len(m.Values) > 0 {
		dst = append(dst, `,"values":[`...)
		for i, v := range m.Values {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
	}
	if m.Perf != 0 {
		if dst, err = appendFloat(append(dst, `,"perf":`...), m.Perf); err != nil {
			return dst, err
		}
	}
	if m.Evals != 0 {
		dst = strconv.AppendInt(append(dst, `,"evals":`...), int64(m.Evals), 10)
	}
	if m.Fidelity != 0 {
		if dst, err = appendFloat(append(dst, `,"fidelity":`...), m.Fidelity); err != nil {
			return dst, err
		}
	}
	if m.Msg != "" {
		dst = appendString(append(dst, `,"msg":`...), m.Msg)
	}
	return append(dst, '}'), nil
}

// appendFloat formats f as encoding/json does: like ES6 number-to-string,
// 'f' format except for magnitudes below 1e-6 or from 1e21 up, which take
// 'e' format with a one-digit negative exponent written unpadded.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("server: unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on: a
// backslash before `"` and `\`, the short escapes for \b \f \n \r and \t,
// six-byte hex escapes for the other control bytes, for <, > and &, and for
// U+2028 and U+2029, and the hex escape of U+FFFD for each byte of invalid
// UTF-8.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// decode parses one JSON envelope and normalizes the correlation id. A
// line outside the hand parser's canonical form goes to unmarshalMessage.
func decode(line []byte) (message, error) {
	if m, ok := parseMessage(line); ok {
		return m, nil
	}
	return unmarshalMessage(line)
}

// unmarshalMessage is the decoder of record: json.Unmarshal into message,
// with the correlation id in the pointer form that tells a present id 0
// apart from an absent one.
func unmarshalMessage(line []byte) (message, error) {
	var env struct {
		message
		ID *int `json:"id"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return message{}, fmt.Errorf("server: malformed message: %w", err)
	}
	m := env.message
	if m.Op == "" {
		return message{}, fmt.Errorf("server: message missing op")
	}
	if env.ID != nil {
		m.id, m.hasID = *env.ID, true
	}
	return m, nil
}

// Interned strings: a decoded op or direction equal to one of these shares
// the constant instead of allocating.
var (
	wireOps    = []string{"register", "registered", "fetch", "config", "report", "ok", "best", "error", "quit"}
	directions = []string{"max", "min"}
)

// parseMessage is decode's fast path. It accepts one compact JSON object
// whose keys are message's tags in their exact case, each with a value of
// the field's type, and reports false for anything else. Every line it
// accepts is valid JSON that json.Unmarshal decodes to the same message; a
// repeated key keeps its last value, as there.
func parseMessage(b []byte) (message, bool) {
	var m message
	p := parser{b: b}
	if !p.next('{') {
		return m, false
	}
	for {
		key, ok := p.key()
		if !ok || !p.next(':') {
			return m, false
		}
		switch string(key) {
		case "op":
			m.Op, ok = p.str(wireOps)
		case "rsl":
			m.RSL, ok = p.str(nil)
		case "direction":
			m.Direction, ok = p.str(directions)
		case "maxEvals":
			m.MaxEvals, ok = p.int()
		case "improved":
			m.Improved, ok = p.bool()
		case "app":
			m.App, ok = p.str(nil)
		case "characteristics":
			m.Characteristics, ok = list[float64](&p)
		case "window":
			m.Window, ok = p.int()
		case "mux":
			m.Mux, ok = p.bool()
		case "names":
			m.Names, ok = list[string](&p)
		case "warm":
			m.Warm, ok = p.bool()
		case "id":
			m.id, ok = p.int()
			m.hasID = true
		case "values":
			m.Values, ok = list[int](&p)
		case "perf":
			m.Perf, ok = p.float()
		case "evals":
			m.Evals, ok = p.int()
		case "fidelity":
			m.Fidelity, ok = p.float()
		case "msg":
			m.Msg, ok = p.str(nil)
		default:
			return m, false
		}
		if !ok {
			return m, false
		}
		if p.next('}') {
			return m, p.i == len(b) && m.Op != ""
		}
		if !p.next(',') {
			return m, false
		}
	}
}

// parser is a cursor over one envelope. Each method consumes one token at
// the cursor and reports false, leaving the cursor anywhere, if the token
// is not in the canonical form.
type parser struct {
	b []byte
	i int
}

func (p *parser) next(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key returns an object key's raw bytes; a key with escapes is refused.
func (p *parser) key() ([]byte, bool) {
	start := p.i
	_, esc, ok := p.scanString()
	if !ok || esc {
		return nil, false
	}
	return p.b[start+1 : p.i-1], true
}

// scanString moves past one JSON string, validating it, and returns its
// decoded length in bytes and whether it holds escapes. Surrogate escapes
// and invalid UTF-8, which json.Unmarshal replaces by U+FFFD, are refused.
func (p *parser) scanString() (n int, esc, ok bool) {
	if !p.next('"') {
		return 0, false, false
	}
	b := p.b
	for i := p.i; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return n, esc, true
		case c == '\\':
			if i+1 == len(b) {
				return 0, false, false
			}
			esc = true
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
				n++
			case 'u':
				r, ok := hex4(b[i+2:])
				if !ok || utf16.IsSurrogate(r) {
					return 0, false, false
				}
				i += 6
				n += utf8.RuneLen(r)
			default:
				return 0, false, false
			}
		case c < 0x20:
			return 0, false, false
		case c < utf8.RuneSelf:
			i++
			n++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return 0, false, false
			}
			i += size
			n += size
		}
	}
	return 0, false, false
}

// hex4 parses the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// str decodes one JSON string. Without escapes it returns the member of
// intern it equals, or else one copy of its bytes; with escapes it builds
// the decoded string in a single allocation.
func (p *parser) str(intern []string) (string, bool) {
	start := p.i
	n, esc, ok := p.scanString()
	if !ok {
		return "", false
	}
	raw := p.b[start+1 : p.i-1]
	if !esc {
		for _, s := range intern {
			if string(raw) == s {
				return s, true
			}
		}
		return string(raw), true
	}
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < len(raw); {
		j := i
		for j < len(raw) && raw[j] != '\\' {
			j++
		}
		sb.Write(raw[i:j])
		if j == len(raw) {
			break
		}
		switch c := raw[j+1]; c {
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		case 'u':
			r, _ := hex4(raw[j+2:])
			sb.WriteRune(r)
			j += 4
		default: // '"', '\\', '/'
			sb.WriteByte(c)
		}
		i = j + 2
	}
	return sb.String(), true
}

func (p *parser) bool() (bool, bool) {
	rest := p.b[p.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		p.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		p.i += 5
		return false, true
	}
	return false, false
}

// int parses a JSON integer within int's range. A fraction or exponent
// stops the parse at a byte the caller refuses, as json.Unmarshal refuses
// it for an integer field.
func (p *parser) int() (int, bool) {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var v uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (limit-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if d := i - start; d == 0 || (d > 1 && b[start] == '0') {
		return 0, false
	}
	p.i = i
	if neg {
		return int(-v), true
	}
	return int(v), true
}

// float parses one JSON number with strconv.ParseFloat, as json.Unmarshal
// does; a magnitude beyond float64's range is refused there too.
func (p *parser) float() (float64, bool) {
	b, i := p.b, p.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := func() int {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - j
	}
	first := i
	if d := digits(); d == 0 || (d > 1 && b[first] == '0') {
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, false
	}
	p.i = i
	return f, true
}

// list decodes one JSON array of T in two passes: the first validates it
// and counts its elements, the second reads them into a slice of exactly
// that length. An empty array decodes to an empty, non-nil slice, as
// json.Unmarshal leaves it.
func list[T int | float64 | string](p *parser) ([]T, bool) {
	start := p.i
	if !p.next('[') {
		return nil, false
	}
	n := 0
	if !p.next(']') {
		for {
			if !elem[T](p, nil) {
				return nil, false
			}
			n++
			if p.next(']') {
				break
			}
			if !p.next(',') {
				return nil, false
			}
		}
	}
	end := p.i
	v := make([]T, n)
	p.i = start
	for k := range v {
		p.i++ // '[' or ','
		elem(p, &v[k])
	}
	p.i = end
	return v, true
}

// elem reads one array element into v or, with v nil, only checks it: a
// string is then scanned without being copied.
func elem[T int | float64 | string](p *parser, v *T) bool {
	var ok bool
	switch v := any(v).(type) {
	case *int:
		var x int
		if x, ok = p.int(); v != nil {
			*v = x
		}
	case *float64:
		var x float64
		if x, ok = p.float(); v != nil {
			*v = x
		}
	case *string:
		if v == nil {
			_, _, ok = p.scanString()
		} else {
			*v, ok = p.str(nil)
		}
	}
	return ok
}
