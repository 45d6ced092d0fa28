package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// jsonEnvelope is the envelope as encoding/json marshalled it before the
// hand-written codec: message's exported fields in order, with the
// correlation id in its former pointer form between warm and values. It is
// the reference the codec is held to.
type jsonEnvelope struct {
	Op              string    `json:"op"`
	RSL             string    `json:"rsl,omitempty"`
	Direction       string    `json:"direction,omitempty"`
	MaxEvals        int       `json:"maxEvals,omitempty"`
	Improved        bool      `json:"improved,omitempty"`
	App             string    `json:"app,omitempty"`
	Characteristics []float64 `json:"characteristics,omitempty"`
	Window          int       `json:"window,omitempty"`
	Mux             bool      `json:"mux,omitempty"`
	Names           []string  `json:"names,omitempty"`
	Warm            bool      `json:"warm,omitempty"`
	ID              *int      `json:"id,omitempty"`
	Values          []int     `json:"values,omitempty"`
	Perf            float64   `json:"perf,omitempty"`
	Evals           int       `json:"evals,omitempty"`
	Fidelity        float64   `json:"fidelity,omitempty"`
	Msg             string    `json:"msg,omitempty"`
}

// referenceEncode is json.Marshal over the reference envelope.
func referenceEncode(m message) ([]byte, error) {
	var e jsonEnvelope
	mv, ev := reflect.ValueOf(m), reflect.ValueOf(&e).Elem()
	for i := 0; i < mv.NumField(); i++ {
		if f := mv.Type().Field(i); f.IsExported() {
			ev.FieldByName(f.Name).Set(mv.Field(i))
		}
	}
	if m.hasID {
		e.ID = &m.id
	}
	return json.Marshal(e)
}

// TestJSONEnvelopeMirrorsMessage keeps the reference in step with message:
// the same exported fields, types and tags in the same order, plus the id.
func TestJSONEnvelopeMirrorsMessage(t *testing.T) {
	var got, want []string
	mt, et := reflect.TypeOf(message{}), reflect.TypeOf(jsonEnvelope{})
	for i := 0; i < mt.NumField(); i++ {
		if f := mt.Field(i); f.IsExported() {
			got = append(got, f.Name+" "+f.Type.String()+" "+string(f.Tag))
		}
	}
	for i := 0; i < et.NumField(); i++ {
		if f := et.Field(i); f.Name != "ID" {
			want = append(want, f.Name+" "+f.Type.String()+" "+string(f.Tag))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("message fields diverge from the reference envelope:\n message %q\n reference %q", got, want)
	}
}

// uEsc spells a JSON \u escape, hex being its four digits.
func uEsc(hex string) string { return "\\" + "u" + hex }

// nasty is a string that exercises every branch of the string escaper.
var nasty = "<a href=\"x\">&amp;</a>\n\r\t\b\f\x00\x01\x1f\x7f \\ / é€𝄞" +
	string(rune(0x2028)) + string(rune(0x2029)) + string(utf8.RuneError) + "\xff\xfe" + "tail\xe2\x82"

// codecCases are the differential table: every canonical envelope plus
// every field set and unset, boundary numbers and hostile strings.
func codecCases() []struct {
	name string
	m    message
} {
	cases := append([]struct {
		name string
		m    message
	}{}, envelopes...)
	return append(cases, []struct {
		name string
		m    message
	}{
		{"op only", message{Op: "ok"}},
		{"unknown op", message{Op: "frobnicate"}},
		{"empty op", message{}},
		{"id 0", message{Op: "config", hasID: true, Values: []int{0}}},
		{"negative ints", message{Op: "register", MaxEvals: -1, Window: -3, hasID: true, id: -7,
			Values: []int{-5, 0, math.MaxInt64, math.MinInt64}, Evals: -2}},
		{"tiny floats", message{Op: "report", Perf: 1e-7, Fidelity: 5e-324, Characteristics: []float64{1e-7, 5e-324, -5e-324, 1e-6, 9.99e-7}}},
		{"huge floats", message{Op: "best", Perf: 1e21, Characteristics: []float64{1e21, -1e21, 1e20, 999999999999999999999, math.MaxFloat64}}},
		{"plain floats", message{Op: "report", Perf: -1.5, Fidelity: 0.1, Characteristics: []float64{0, -1.5, 123456789.125, 1.0 / 3}}},
		{"negative zero", message{Op: "report", Perf: math.Copysign(0, -1), Characteristics: []float64{math.Copysign(0, -1)}}},
		{"every flag", message{Op: "register", Improved: true, Mux: true, Warm: true}},
		{"empty slices", message{Op: "best", Values: []int{}, Names: []string{}, Characteristics: []float64{}}},
		{"hostile strings", message{Op: "error", RSL: nasty, Direction: nasty, App: nasty, Names: []string{nasty, "", "B"}, Msg: nasty}},
		{"hostile op", message{Op: nasty}},
		{"every field", message{Op: "register", RSL: quadRSL, Direction: "min", MaxEvals: 9, Improved: true, App: "a",
			Characteristics: []float64{0.5}, Window: 2, Mux: true, Names: []string{"x"}, Warm: true, hasID: true, id: 1,
			Values: []int{1}, Perf: 2, Evals: 3, Fidelity: 0.5, Msg: "m"}},
	}...)
}

// TestEnvelopeCodecMatchesEncodingJSON is the codec's differential test:
// appendMessage writes exactly json.Marshal's bytes for the reference
// envelope, and the hand parser decodes each of those lines, without
// falling back, to json.Unmarshal's message.
func TestEnvelopeCodecMatchesEncodingJSON(t *testing.T) {
	for _, tc := range codecCases() {
		want, err := referenceEncode(tc.m)
		if err != nil {
			t.Fatalf("%s: reference encode: %v", tc.name, err)
		}
		got, err := appendMessage(nil, tc.m)
		if err != nil {
			t.Fatalf("%s: appendMessage: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: bytes diverge from encoding/json\n got %s\nwant %s", tc.name, got, want)
			continue
		}
		ref, refErr := unmarshalMessage(got)
		fast, ok := parseMessage(got)
		switch {
		case refErr != nil:
			if ok {
				t.Errorf("%s: hand parser accepted %s, which json.Unmarshal refuses: %v", tc.name, got, refErr)
			}
		case !ok:
			t.Errorf("%s: hand parser refused the canonical line %s", tc.name, got)
		case !reflect.DeepEqual(fast, ref):
			t.Errorf("%s: decodes diverge\n hand %+v\n json %+v", tc.name, fast, ref)
		}
	}
}

// TestEnvelopeEncodeRefusesNonFinite: like json.Marshal, the codec refuses
// NaN and ±Inf in every float field.
func TestEnvelopeEncodeRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, m := range []message{
			{Op: "report", Perf: f},
			{Op: "config", Fidelity: f},
			{Op: "register", Characteristics: []float64{0.5, f}},
		} {
			if _, err := referenceEncode(m); err == nil {
				t.Fatalf("reference encode accepted %+v", m)
			}
			if b, err := appendMessage(nil, m); err == nil {
				t.Errorf("appendMessage(%+v) = %s, want an error", m, b)
			}
		}
	}
}

// TestEnvelopeDecodeFallback: lines outside the canonical form still
// decode, through json.Unmarshal, to what they always meant.
func TestEnvelopeDecodeFallback(t *testing.T) {
	for _, tc := range []struct {
		line string
		want message
	}{
		{`{ "op" : "fetch" }`, message{Op: "fetch"}},
		{`{"op":"report","ID":4,"perf":2}`, message{Op: "report", hasID: true, id: 4, Perf: 2}},
		{`{"op":"report","id":null,"perf":2}`, message{Op: "report", Perf: 2}},
		{`{"op":"register","max_evals":100,"window":3}`, message{Op: "register", Window: 3}},
		{`{"op":"error","msg":"` + uEsc("d83d") + uEsc("de00") + `"}`, message{Op: "error", Msg: "😀"}},
		{`{"op":"error","msg":"bad` + "\xff" + `"}`, message{Op: "error", Msg: "bad" + string(utf8.RuneError)}},
		{`{"op":"ok"}` + "\r\n", message{Op: "ok"}},
	} {
		if _, ok := parseMessage([]byte(tc.line)); ok {
			t.Errorf("hand parser accepted the non-canonical %s", tc.line)
		}
		got, err := decode([]byte(tc.line))
		if err != nil {
			t.Errorf("decode(%s): %v", tc.line, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("decode(%s) = %+v, want %+v", tc.line, got, tc.want)
		}
	}
	for _, line := range []string{`{}`, `{"op":""}`, `{"op":"fetch"}x`, `{"op":"config","values":[1.5]}`, `{"op":"report","perf":1e999}`} {
		if m, err := decode([]byte(line)); err == nil {
			t.Errorf("decode(%s) = %+v, want an error", line, m)
		}
	}
}

// FuzzEnvelopeCodec holds the codec to encoding/json on arbitrary input:
// every line the hand parser accepts decodes as json.Unmarshal decodes it,
// and every message json.Unmarshal accepts encodes to json.Marshal's bytes,
// in a line the hand parser accepts.
func FuzzEnvelopeCodec(f *testing.F) {
	for _, tc := range codecCases() {
		if b, err := appendMessage(nil, tc.m); err == nil {
			f.Add(b)
		}
	}
	for _, s := range []string{
		`{"op":"report","id":0,"perf":-0}`,
		`{"op":"config","values":[],"values":[1,2]}`,
		`{"op":"report","perf":1E+2,"fidelity":0.25e-3}`,
		`{"op":"register","rsl":"a\/b\"` + uEsc("00e9") + uEsc("2028") + `","characteristics":[1e400]}`,
		`{"op":"registered","names":["` + uEsc("d800") + `"]}`,
		`{"op":"best","values":[01]}`,
		`{"op":"fetch","Op":"quit"}`,
		`{"op":"o` + uEsc("006B") + `","evals":9223372036854775808}`,
		`{"op":"fetch","evals":-9223372036854775808}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := unmarshalMessage(data)
		if fast, ok := parseMessage(data); ok {
			if refErr != nil {
				t.Fatalf("hand parser accepted %q, which json.Unmarshal refuses: %v", data, refErr)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("decodes of %q diverge\n hand %+v\n json %+v", data, fast, ref)
			}
		}
		if refErr != nil {
			return
		}
		want, wantErr := referenceEncode(ref)
		got, err := appendMessage(nil, ref)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("encode errors diverge for %+v: hand %v, json %v", ref, err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encodings of %+v diverge\n hand %s\n json %s", ref, got, want)
		}
		fast, ok := parseMessage(got)
		if !ok {
			t.Fatalf("hand parser refused the canonical line %s", got)
		}
		if again, _ := unmarshalMessage(got); !reflect.DeepEqual(fast, again) {
			t.Fatalf("decodes of canonical %s diverge\n hand %+v\n json %+v", got, fast, again)
		}
	})
}

// TestJSONLineAllocs guards the JSON wire's steady state: decoding a fetch
// or report line allocates nothing, a config line allocates exactly its
// values, and a send allocates nothing once the wire's scratch buffer has
// grown.
func TestJSONLineAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    message
		want float64
	}{
		{"fetch", message{Op: "fetch"}, 0},
		{"report", message{Op: "report", hasID: true, id: 3, Perf: 987.5}, 0},
		{"reportf", message{Op: "report", hasID: true, id: 3, Perf: -63.0625, Fidelity: 0.25}, 0},
		{"config", message{Op: "config", hasID: true, id: 3, Values: []int{20, 46}}, 1},
	} {
		line, err := appendMessage(nil, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decode(line); err != nil || !reflect.DeepEqual(got, tc.m) {
			t.Fatalf("%s: decode(%s) = %+v, %v", tc.name, line, got, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { decode(line) }); allocs != tc.want { //nolint:errcheck
			t.Errorf("%s: decode allocated %v, want %v", tc.name, allocs, tc.want)
		}
	}
	tr := newJSONWire(strings.NewReader(""), bufio.NewWriter(io.Discard), nil, nil)
	for _, tc := range envelopes {
		if allocs := testing.AllocsPerRun(100, func() { tr.send(tc.m) }); allocs != 0 { //nolint:errcheck
			t.Errorf("%s: send allocated %v, want 0", tc.name, allocs)
		}
	}
}
