package expdb

import (
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"harmony/internal/history"
	"harmony/internal/search"
)

// oddExperience holds every value a careless codec would lose: NaN, ±Inf
// and −0 characteristics, negative configuration values, the failure
// penalty as a perf, an empty label, a minimizing direction and an empty
// configuration.
func oddExperience() *history.Experience {
	return &history.Experience{
		Label:           "",
		Characteristics: []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324},
		Direction:       search.Minimize,
		Records: []history.ConfigPerf{
			{Config: search.Config{-7, 0, math.MaxInt64, math.MinInt64}, Perf: search.FailurePenalty(search.Minimize), Seq: 0},
			{Config: search.Config{}, Perf: -1e300, Seq: -3},
			{Config: search.Config{12}, Perf: math.Float64frombits(0x7ff8000000000123), Seq: 1 << 40}, // NaN with a payload
		},
	}
}

// frameOf frames one record or fails the test.
func frameOf(tb testing.TB, rec record) []byte {
	tb.Helper()
	b, err := appendRecordFrame(nil, rec)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// rawFrame frames an arbitrary payload, the way any writer of this frame
// layout would: the JSON-era store wrote exactly these frames.
func rawFrame(payload []byte) []byte {
	return append(append([]byte(fmt.Sprintf("%08x %08x ", len(payload), crc32.ChecksumIEEE(payload))), payload...), '\n')
}

// requireSameBits fails unless got carries every field of want with the
// same bits; NaN payloads and the sign of zero included.
func requireSameBits(t *testing.T, got, want *history.Experience) {
	t.Helper()
	if got.Label != want.Label || got.Direction != want.Direction ||
		len(got.Characteristics) != len(want.Characteristics) || len(got.Records) != len(want.Records) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	for i, c := range want.Characteristics {
		if math.Float64bits(got.Characteristics[i]) != math.Float64bits(c) {
			t.Fatalf("characteristic %d = %x, want %x", i, math.Float64bits(got.Characteristics[i]), math.Float64bits(c))
		}
	}
	for i, r := range want.Records {
		g := got.Records[i]
		if !g.Config.Equal(r.Config) || len(g.Config) != len(r.Config) ||
			math.Float64bits(g.Perf) != math.Float64bits(r.Perf) || g.Seq != r.Seq {
			t.Fatalf("record %d = %+v, want %+v", i, g, r)
		}
	}
}

func TestRecordRoundTripBitExact(t *testing.T) {
	exps := []*history.Experience{
		oddExperience(),
		{Label: "", Characteristics: []float64{1}, Direction: search.Maximize}, // no records
		{Label: "ordering", Records: []history.ConfigPerf{{Config: search.Config{-1, -2}, Perf: 0}}},
		mkExp("shopping", []float64{0.25, 0.75}, 5),
	}
	var stream []byte
	for i, e := range exps {
		stream = append(stream, frameOf(t, record{LSN: uint64(i) << 40, Key: fmt.Sprintf("app/%d", i), Exp: e})...)
	}
	stream = append(stream, frameOf(t, record{LSN: math.MaxUint64, Count: math.MaxUint64 - 1})...)

	recs, validLen, err := decodeFrames(stream)
	if err != nil || validLen != len(stream) || len(recs) != len(exps)+1 {
		t.Fatalf("decoded %d records, validLen %d/%d, err %v", len(recs), validLen, len(stream), err)
	}
	for i, e := range exps {
		if recs[i].LSN != uint64(i)<<40 || recs[i].Key != fmt.Sprintf("app/%d", i) {
			t.Fatalf("record %d: LSN %d key %q", i, recs[i].LSN, recs[i].Key)
		}
		requireSameBits(t, recs[i].Exp, e)
	}
	if h := recs[len(exps)]; h.Exp != nil || h.LSN != math.MaxUint64 || h.Count != math.MaxUint64-1 {
		t.Fatalf("horizon record decoded as %+v", h)
	}
}

// TestCodecCarriesEveryField sets every field reachable from a
// history.Experience, ConfigPerf records included, to a distinct non-zero
// value and requires the codec to bring all of them back. A field added to
// either type that the codec does not carry fails here.
func TestCodecCarriesEveryField(t *testing.T) {
	want := &history.Experience{}
	n := 0
	fillEvery(t, reflect.ValueOf(want).Elem(), &n)
	d := decoder{build: true}
	got, err := d.decode(appendPayload(nil, record{LSN: 1, Key: "k", Exp: want}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Exp, want) {
		t.Fatalf("round trip lost a field:\n got  %+v\n want %+v", got.Exp, want)
	}
}

// fillEvery gives every field reachable from v a distinct non-zero value:
// two elements per slice, each filled in turn.
func fillEvery(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	if !v.CanSet() {
		t.Fatalf("%s is unexported; decide whether the record codec carries it", v.Type())
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(-*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillEvery(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillEvery(t, v.Field(i), n)
		}
	default:
		t.Fatalf("%s is a %s; teach the record codec and this test to carry it", v.Type(), v.Kind())
	}
}

// overlongValue returns an experience payload under key whose one
// configuration value, 1, is encoded in two bytes instead of one.
func overlongValue(tb testing.TB, key string) []byte {
	tb.Helper()
	p := appendPayload(nil, record{Key: key, Exp: &history.Experience{
		Records: []history.ConfigPerf{{Config: search.Config{1}}}}})
	// format, LSN, key length, key, label length, chars, direction,
	// record count, dim: then the value.
	i := 3 + len(key) + 5
	if p[i] != 0x02 {
		tb.Fatalf("payload %x: no zigzag 1 at offset %d", p, i)
	}
	return append(append(append([]byte(nil), p[:i]...), 0x82, 0x00), p[i+1:]...)
}

// TestDecodeRejectsNonCanonical: overlong varints, trailing bytes and
// counts beyond the payload are malformed, not silently accepted.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	good := appendPayload(nil, record{LSN: 1, Key: "k", Exp: mkExp("w", []float64{1}, 1)})
	for name, p := range map[string][]byte{
		"empty":          {},
		"overlong LSN":   {formatHorizon, 0x81, 0x00},
		"overlong value": overlongValue(t, "k"),
		"trailing byte":  append(append([]byte(nil), good...), 0),
		"truncated":      good[:len(good)-1],
		"huge key len":   {formatExperience, 1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"huge char cnt":  {formatExperience, 1, 0, 0, 0x80, 0x01},
		"JSON":           []byte(`{"lsn":1}`),
		"unknown format": {0x03, 1},
	} {
		d := decoder{build: true}
		if _, err := d.decode(p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestDecodedConfigsDoNotAlias: the building decoder puts an experience's
// configurations in one slab, yet an append to one configuration must not
// write into the next, and consecutive records of one key share its
// string.
func TestDecodedConfigsDoNotAlias(t *testing.T) {
	stream := append(frameOf(t, record{Key: "app/x", Exp: mkExp("w", []float64{1}, 3)}),
		frameOf(t, record{Key: "app/x", Exp: mkExp("w", []float64{2}, 1)})...)
	recs, _, err := decodeFrames(stream)
	if err != nil || len(recs) != 2 {
		t.Fatalf("decoded %d records, err %v", len(recs), err)
	}
	r := recs[0].Exp.Records
	r[0].Config = append(r[0].Config, 99)
	if want := (search.Config{1, 2}); !r[1].Config.Equal(want) {
		t.Fatalf("appending to config 0 changed config 1 to %v, want %v", r[1].Config, want)
	}
	if unsafe.StringData(recs[0].Key) != unsafe.StringData(recs[1].Key) {
		t.Fatal("consecutive records of one key decoded two key strings")
	}
}

func TestEncodeRefusesOversizeRecord(t *testing.T) {
	e := &history.Experience{Characteristics: make([]float64, maxFramePayload/8+1)}
	if b, err := appendRecordFrame([]byte("kept"), record{Key: "k", Exp: e}); err == nil || string(b) != "kept" {
		t.Fatalf("oversize record: err %v, buffer %q", err, b)
	}
}
