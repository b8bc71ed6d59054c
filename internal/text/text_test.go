package text_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"repro/internal/text"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Find the name of the employee!", []string{"find", "the", "name", "of", "the", "employee"}},
		{"age > 30", []string{"age", "30"}},
		{"don't", []string{"dont"}},
		{"", nil},
		{"  ", nil},
		{"T1.employee_id", []string{"t1", "employee", "id"}},
	}
	for _, c := range cases {
		if got := text.Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestContentTokens(t *testing.T) {
	got := text.ContentTokens("Find the name of the employee")
	want := []string{"name", "employee"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentTokens = %v, want %v", got, want)
	}
}

func TestNGrams(t *testing.T) {
	got := text.NGrams([]string{"a", "b", "c"}, 2)
	want := []string{"a b", "b c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NGrams = %v, want %v", got, want)
	}
	if text.NGrams([]string{"a"}, 2) != nil {
		t.Error("NGrams of short input should be nil")
	}
}

func TestCharNGrams(t *testing.T) {
	got := text.CharNGrams("ab", 3)
	want := []string{"#ab", "ab#"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CharNGrams = %v, want %v", got, want)
	}
}

func TestJaccardBasics(t *testing.T) {
	if j := text.Jaccard([]string{"a", "b"}, []string{"b", "c"}); j != 1.0/3 {
		t.Errorf("Jaccard = %v, want 1/3", j)
	}
	if j := text.Jaccard(nil, nil); j != 1 {
		t.Errorf("Jaccard(nil,nil) = %v, want 1", j)
	}
	if j := text.Jaccard([]string{"a"}, nil); j != 0 {
		t.Errorf("Jaccard(a,nil) = %v, want 0", j)
	}
}

func TestOverlapRatio(t *testing.T) {
	if r := text.OverlapRatio([]string{"a", "b", "a"}, []string{"a"}); r != 0.5 {
		t.Errorf("OverlapRatio = %v, want 0.5 (distinct tokens)", r)
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b []string
		want int
	}{
		{nil, nil, 0},
		{[]string{"a"}, nil, 1},
		{[]string{"a", "b"}, []string{"a", "b"}, 0},
		{[]string{"a", "b"}, []string{"a", "c"}, 1},
		{[]string{"a", "b", "c"}, []string{"b", "c", "d"}, 2},
	}
	for _, c := range cases {
		if got := text.EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// genTokens builds random token slices for property tests.
func genTokens(rng *rand.Rand) []string {
	n := rng.Intn(8)
	words := []string{"a", "b", "c", "d", "e"}
	out := make([]string, n)
	for i := range out {
		out[i] = words[rng.Intn(len(words))]
	}
	return out
}

func TestEditDistanceProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(genTokens(rng))
			vals[1] = reflect.ValueOf(genTokens(rng))
		},
	}
	// Symmetry and identity.
	if err := quick.Check(func(a, b []string) bool {
		if text.EditDistance(a, a) != 0 {
			return false
		}
		return text.EditDistance(a, b) == text.EditDistance(b, a)
	}, cfg); err != nil {
		t.Error(err)
	}
	// Bounded by max length.
	if err := quick.Check(func(a, b []string) bool {
		d := text.EditDistance(a, b)
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		return d >= 0 && d <= maxLen
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestJaccardProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(genTokens(rng))
			vals[1] = reflect.ValueOf(genTokens(rng))
		},
	}
	if err := quick.Check(func(a, b []string) bool {
		j := text.Jaccard(a, b)
		if j < 0 || j > 1 {
			return false
		}
		return j == text.Jaccard(b, a)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestIDF(t *testing.T) {
	idf := text.NewIDF([]string{
		"the employee name",
		"the employee age",
		"the shop location",
	})
	if idf.Weight("the") >= idf.Weight("shop") {
		t.Error("common token should weigh less than rare token")
	}
	if idf.Weight("unseen") < idf.Weight("shop") {
		t.Error("unseen token should weigh at least as much as rare token")
	}
}

func TestWeightedOverlap(t *testing.T) {
	idf := text.NewIDF([]string{"a b", "a c", "a d"})
	// Sharing the rare token c scores higher than sharing the common a.
	rare := idf.WeightedOverlap([]string{"c"}, []string{"c", "x"})
	common := idf.WeightedOverlap([]string{"a"}, []string{"a", "x"})
	if rare != 1 || common != 1 {
		t.Errorf("full coverage should be 1: rare=%v common=%v", rare, common)
	}
	mixed := idf.WeightedOverlap([]string{"a", "c"}, []string{"c"})
	if mixed <= 0.5 {
		t.Errorf("rare-token coverage should dominate: %v", mixed)
	}
	if (*text.IDF)(nil).WeightedOverlap([]string{"a"}, []string{"a"}) != 1 {
		t.Error("nil IDF should fall back to uniform weights")
	}
}

// builderTokenize is the strings.Builder tokenizer TokenizeFunc
// replaced, kept as its oracle.
func builderTokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(unicode.ToLower(r))
		case r == '\'':
		default:
			flush()
		}
	}
	flush()
	return out
}

// FuzzTokenize pins text.Tokenize (and so TokenizeFunc) to the reference
// tokenizer on arbitrary input, invalid UTF-8 included.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{"", "Don't STOP", "städte Über 4.5", "a\xffb", "İstanbul ǅ", "x_y#z'"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := text.Tokenize(s), builderTokenize(s)
		if strings.Join(got, "\x00") != strings.Join(want, "\x00") || len(got) != len(want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
	})
}
