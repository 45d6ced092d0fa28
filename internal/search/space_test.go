package search

import (
	"math/big"
	"testing"
	"testing/quick"
)

func smallSpace(t testing.TB) *Space {
	t.Helper()
	return MustSpace(
		Param{Name: "a", Min: 0, Max: 10, Step: 2, Default: 4},
		Param{Name: "b", Min: 1, Max: 5, Step: 1, Default: 3},
	)
}

func TestParamValidate(t *testing.T) {
	tests := []struct {
		name  string
		p     Param
		valid bool
	}{
		{"ok", Param{Name: "x", Min: 0, Max: 10, Step: 1, Default: 5}, true},
		{"empty name", Param{Min: 0, Max: 10, Step: 1, Default: 5}, false},
		{"zero step", Param{Name: "x", Min: 0, Max: 10, Step: 0, Default: 5}, false},
		{"negative step", Param{Name: "x", Min: 0, Max: 10, Step: -1, Default: 5}, false},
		{"inverted range", Param{Name: "x", Min: 10, Max: 0, Step: 1, Default: 5}, false},
		{"default below", Param{Name: "x", Min: 0, Max: 10, Step: 1, Default: -1}, false},
		{"default above", Param{Name: "x", Min: 0, Max: 10, Step: 1, Default: 11}, false},
		{"single value", Param{Name: "x", Min: 5, Max: 5, Step: 1, Default: 5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.p.Validate()
			if (err == nil) != tt.valid {
				t.Errorf("Validate() err = %v, valid = %v", err, tt.valid)
			}
		})
	}
}

func TestParamNumValuesAndValues(t *testing.T) {
	p := Param{Name: "x", Min: 0, Max: 10, Step: 3, Default: 0}
	if got := p.NumValues(); got != 4 {
		t.Errorf("NumValues = %d, want 4 (0,3,6,9)", got)
	}
	vals := p.Values()
	want := []int{0, 3, 6, 9}
	if len(vals) != len(want) {
		t.Fatalf("Values = %v, want %v", vals, want)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Values = %v, want %v", vals, want)
		}
	}
}

func TestParamSnap(t *testing.T) {
	p := Param{Name: "x", Min: 0, Max: 10, Step: 2, Default: 0}
	tests := []struct {
		in   float64
		want int
	}{
		{-5, 0}, {0, 0}, {0.9, 0}, {1.1, 2}, {5, 6}, {9.3, 10}, {10, 10}, {99, 10},
	}
	for _, tt := range tests {
		if got := p.Snap(tt.in); got != tt.want {
			t.Errorf("Snap(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestParamSnapStaysOnGridProperty(t *testing.T) {
	p := Param{Name: "x", Min: -7, Max: 23, Step: 3, Default: -7}
	f := func(x float64) bool {
		v := p.Snap(x)
		return v >= p.Min && v <= p.Max && (v-p.Min)%p.Step == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParamNormalize(t *testing.T) {
	p := Param{Name: "x", Min: 10, Max: 20, Step: 1, Default: 10}
	if got := p.Normalize(15); got != 0.5 {
		t.Errorf("Normalize(15) = %v, want 0.5", got)
	}
	deg := Param{Name: "y", Min: 5, Max: 5, Step: 1, Default: 5}
	if got := deg.Normalize(5); got != 0 {
		t.Errorf("degenerate Normalize = %v, want 0", got)
	}
}

func TestNewSpaceErrors(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Error("empty space did not error")
	}
	if _, err := NewSpace(Param{Name: "x", Min: 0, Max: 1, Step: 0, Default: 0}); err == nil {
		t.Error("invalid param did not error")
	}
	dup := Param{Name: "x", Min: 0, Max: 1, Step: 1, Default: 0}
	if _, err := NewSpace(dup, dup); err == nil {
		t.Error("duplicate names did not error")
	}
}

func TestSpaceSize(t *testing.T) {
	s := smallSpace(t)
	// a has 6 values (0,2,4,6,8,10), b has 5.
	if got := s.Size(); got.Cmp(big.NewInt(30)) != 0 {
		t.Errorf("Size = %v, want 30", got)
	}
}

func TestSpaceSizeHuge(t *testing.T) {
	// The paper's motivating example: 1000 binary parameters = 2^1000.
	params := make([]Param, 1000)
	for i := range params {
		params[i] = Param{Name: "p" + string(rune('a'+i%26)) + itoa(i), Min: 0, Max: 1, Step: 1, Default: 0}
	}
	s := MustSpace(params...)
	want := new(big.Int).Lsh(big.NewInt(1), 1000)
	if s.Size().Cmp(want) != 0 {
		t.Errorf("Size of 1000 binary params != 2^1000")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf []byte
	for i > 0 {
		buf = append([]byte{byte('0' + i%10)}, buf...)
		i /= 10
	}
	return string(buf)
}

func TestDefaultConfigAndContains(t *testing.T) {
	s := smallSpace(t)
	def := s.DefaultConfig()
	if !def.Equal(Config{4, 3}) {
		t.Errorf("DefaultConfig = %v, want [4 3]", def)
	}
	if !s.Contains(def) {
		t.Error("space does not contain its default config")
	}
	if s.Contains(Config{5, 3}) {
		t.Error("off-grid config reported as contained (5 not multiple of step 2)")
	}
	if s.Contains(Config{0, 0}) {
		t.Error("below-min config reported as contained")
	}
	if s.Contains(Config{0}) {
		t.Error("wrong-dim config reported as contained")
	}
}

func TestSnapAndContinuous(t *testing.T) {
	s := smallSpace(t)
	cfg := s.Snap([]float64{3.2, 4.7})
	if !cfg.Equal(Config{4, 5}) {
		t.Errorf("Snap = %v, want [4 5]", cfg)
	}
	pt := s.Continuous(cfg)
	if pt[0] != 4 || pt[1] != 5 {
		t.Errorf("Continuous = %v", pt)
	}
}

func TestNormalized(t *testing.T) {
	s := smallSpace(t)
	n := s.Normalized(Config{5, 3})
	if n[0] != 0.5 || n[1] != 0.5 {
		t.Errorf("Normalized = %v, want [0.5 0.5]", n)
	}
}

func TestNamesAndIndex(t *testing.T) {
	s := smallSpace(t)
	names := s.Names()
	if names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	if s.Index("b") != 1 {
		t.Errorf("Index(b) = %d, want 1", s.Index("b"))
	}
	if s.Index("zzz") != -1 {
		t.Errorf("Index(zzz) = %d, want -1", s.Index("zzz"))
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{1, -2, 3}
	clone := c.Clone()
	clone[0] = 99
	if c[0] != 1 {
		t.Error("Clone shares storage")
	}
	if !c.Equal(Config{1, -2, 3}) {
		t.Error("Equal false negative")
	}
	if c.Equal(Config{1, -2}) {
		t.Error("Equal true for different lengths")
	}
	if c.Key() != "1,-2,3" {
		t.Errorf("Key = %q, want 1,-2,3", c.Key())
	}
}

// TestKeyBytes pins Config.Key's form, which the evaluator's memo keys share
// (appendKey): decimal values, a minus sign for negatives, comma-separated.
func TestKeyBytes(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{}, ""},
		{Config{0}, "0"},
		{Config{-7}, "-7"},
		{Config{20, 46}, "20,46"},
		{Config{-1, 0, 1, -60, 120, -123456789}, "-1,0,1,-60,120,-123456789"},
		{Config{1 << 40, -(1 << 40)}, "1099511627776,-1099511627776"},
	} {
		if got := c.cfg.Key(); got != c.want {
			t.Errorf("%v.Key() = %q, want %q", c.cfg, got, c.want)
		}
		if got := string(appendKey([]byte("x"), c.cfg)); got != "x"+c.want {
			t.Errorf("appendKey(x, %v) = %q, want %q", c.cfg, got, "x"+c.want)
		}
	}
}

func TestSubspaceEmbedding(t *testing.T) {
	s := MustSpace(
		Param{Name: "a", Min: 0, Max: 10, Step: 1, Default: 5},
		Param{Name: "b", Min: 0, Max: 10, Step: 1, Default: 6},
		Param{Name: "c", Min: 0, Max: 10, Step: 1, Default: 7},
	)
	sub, embed, err := s.Subspace([]int{2, 0}, s.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Dim() != 2 || sub.Params[0].Name != "c" || sub.Params[1].Name != "a" {
		t.Fatalf("Subspace params = %v", sub.Names())
	}
	full := embed(Config{9, 1})
	if !full.Equal(Config{1, 6, 9}) {
		t.Errorf("embed = %v, want [1 6 9]", full)
	}
}

func TestSubspaceErrors(t *testing.T) {
	s := smallSpace(t)
	base := s.DefaultConfig()
	if _, _, err := s.Subspace(nil, base); err == nil {
		t.Error("empty indices did not error")
	}
	if _, _, err := s.Subspace([]int{0, 0}, base); err == nil {
		t.Error("duplicate indices did not error")
	}
	if _, _, err := s.Subspace([]int{5}, base); err == nil {
		t.Error("out-of-range index did not error")
	}
	if _, _, err := s.Subspace([]int{0}, Config{1}); err == nil {
		t.Error("short base did not error")
	}
}

func TestEachConfigEnumeratesAll(t *testing.T) {
	s := smallSpace(t)
	seen := map[string]bool{}
	s.EachConfig(func(c Config) bool {
		if seen[c.Key()] {
			t.Fatalf("duplicate config %v", c)
		}
		if !s.Contains(c) {
			t.Fatalf("enumerated config %v outside space", c)
		}
		seen[c.Key()] = true
		return true
	})
	if len(seen) != 30 {
		t.Errorf("enumerated %d configs, want 30", len(seen))
	}
}

func TestEachConfigEarlyStop(t *testing.T) {
	s := smallSpace(t)
	n := 0
	s.EachConfig(func(c Config) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("visited %d configs after early stop, want 7", n)
	}
}
