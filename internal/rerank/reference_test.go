package rerank

import (
	"math"
	"strings"
	"testing"

	"repro/internal/embed"
	"repro/internal/text"
	"repro/internal/vector"
)

// referenceFeatures is the string-based feature extraction the
// record path replaced, kept verbatim as the oracle: every feature is
// computed from freshly tokenized strings and per-call string sets.
// dialVec nil encodes the dialect on the spot.
func referenceFeatures(x *Extractor, nl, dial string, dialVec vector.Vec, cost float64) []float64 {
	toks := text.Tokenize(nl)
	content := text.CanonTokens(nl)
	var qvec vector.Vec
	if x.Encoder != nil {
		qvec = x.Encoder.Encode(nl)
	}
	pBigrams := text.NGrams(toks, 2)
	pGrams := charGrams(content)
	pNums := numbers(toks)
	head := headTokens(content, 3)

	dToks := text.Tokenize(dial)
	dContent := text.CanonTokens(dial)

	f := make([]float64, 0, FeatureDim)
	f = append(f, text.Jaccard(content, dContent))
	f = append(f, text.OverlapRatio(content, dContent))
	f = append(f, text.OverlapRatio(dContent, content))
	f = append(f, x.IDF.WeightedOverlap(content, dContent))
	f = append(f, text.Jaccard(pBigrams, text.NGrams(dToks, 2)))
	f = append(f, text.Jaccard(pGrams, charGrams(dContent)))
	ed := text.EditDistance(toks, dToks)
	den := len(toks) + len(dToks)
	if den == 0 {
		den = 1
	}
	f = append(f, 1-float64(ed)/float64(den))
	f = append(f, lengthRatio(len(toks), len(dToks)))
	f = append(f, math.Abs(float64(len(toks)-len(dToks)))/16)
	f = append(f, setAgreement(pNums, numbers(dToks)))
	f = append(f, boolFeat(hasAny(toks, superlatives) == hasAny(dToks, superlatives)))
	f = append(f, boolFeat(hasAny(toks, negations) == hasAny(dToks, negations)))
	f = append(f, boolFeat(hasAny(toks, aggregates) == hasAny(dToks, aggregates)))
	f = append(f, boolFeat(hasGroupCue(nl) == strings.Contains(dial, "for each")))
	f = append(f, boolFeat(hasOrderCue(nl) == strings.Contains(dial, "order of")))
	f = append(f, boolFeat(hasCompareCue(nl) == hasCompareCue(dial)))
	firstSentence := dial
	if i := strings.IndexByte(dial, '.'); i > 0 {
		firstSentence = dial[:i]
	}
	f = append(f, text.OverlapRatio(text.CanonTokens(firstSentence), content))
	f = append(f, text.OverlapRatio(head, text.CanonTokens(firstSentence)))
	switch {
	case x.Encoder == nil:
		f = append(f, 0)
	case dialVec != nil:
		f = append(f, float64(vector.Dot(qvec, dialVec)))
	default:
		f = append(f, float64(vector.Dot(qvec, x.Encoder.Encode(dial))))
	}
	f = append(f, cost)
	f = append(f, 1)
	return f
}

// headTokens returns the first n tokens of the slice.
func headTokens(tokens []string, n int) []string {
	if len(tokens) < n {
		return tokens
	}
	return tokens[:n]
}

func charGrams(tokens []string) []string {
	var out []string
	for _, t := range tokens {
		out = append(out, text.CharNGrams(t, 3)...)
	}
	return out
}

// setAgreement compares the numeric-literal sets of both sides: a pair
// with no numbers anywhere agrees perfectly, otherwise Jaccard.
func setAgreement(na, nb []string) float64 {
	if len(na) == 0 && len(nb) == 0 {
		return 1
	}
	return text.Jaccard(na, nb)
}

func numbers(tokens []string) []string {
	var out []string
	for _, t := range tokens {
		if t[0] >= '0' && t[0] <= '9' {
			out = append(out, t)
		}
	}
	return out
}

// recordFeatures scores one pair through a pool vocabulary's record,
// the way snapshot pipelines do.
func recordFeatures(x *Extractor, v *Vocab, r *Record, nl string, dialVec vector.Vec, cost float64) []float64 {
	var qvec vector.Vec
	if x.Encoder != nil {
		qvec = x.Encoder.Encode(nl)
	}
	var f [FeatureDim]float64
	x.features(&f, x.PrepareIn(v, nl, qvec), r, dialVec, cost)
	return f[:]
}

// firstBitDiff returns the index of the first feature whose bits
// differ, or -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// fuzzPool is the vocabulary the fuzz target's dialect joins: a few
// template sentences, so the fuzzed dialect shares IDs with other
// records and fuzzed questions meet both known and unknown tokens.
var fuzzPool = []string{
	"Find the name of employee. Return the top one result in descending order of the age of employee.",
	"Find the number of employees for each city.",
	"Find the average bonus of evaluation. Return results only for evaluation that bonus is greater than 30.",
}

func fuzzExtractor() *Extractor {
	enc := embed.NewEncoder(embed.Config{Seed: 1})
	enc.FitIDF(fuzzPool)
	return &Extractor{IDF: text.NewIDF(fuzzPool), Encoder: enc}
}

// FuzzFeatureRecord checks the record path against the string-based
// reference, bit for bit, on arbitrary (question, dialect) pairs: once
// with the dialect's record in a vocabulary shared with other dialects
// and a precomputed embedding, and once through the on-the-fly wrapper.
func FuzzFeatureRecord(f *testing.F) {
	seeds := [][2]string{
		{"", ""},
		{"who is the oldest employee", ""},
		{"", "Find the name of employee."},
		{"how many employees", "Find the number of employees for each city"},
		{"what's the employee's age", "Find the employee's age. Return it."},
		{"employees older than 30 and 4.5", "Find the name of employee. Return results only for employee that age is greater than 30."},
		{"städte mit über 1000 einwohnern", "Find the name of Städte. Return Ünïcode."},
		{"zyzzyva quux 42 frobnicate", "Find the name of employee."},
		{".", ".leading dot. and more."},
		{"a b c d e f", "a b c d e f a b c"},
		{"cities in texas?", "Find the city of state. Return results only for state that name is value."},
		// Long inputs: more distinct question tokens and bigrams than
		// the small-set fast paths hold, and a dialect longer than the
		// edit distance's stack rows.
		{strings.Repeat("alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi omicron pi rho sigma tau upsilon phi chi psi omega employee name age city bonus 1 2 3 ", 3),
			strings.Repeat("Find the name of employee. Return the top one result in descending order of the age of employee. ", 6)},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	x := fuzzExtractor()
	f.Fuzz(func(t *testing.T, nl, dial string) {
		v := NewVocab()
		for _, d := range fuzzPool {
			v.Record(d)
		}
		r := v.Record(dial)
		dv := x.Encoder.Encode(dial)
		want := referenceFeatures(x, nl, dial, dv, 0.25)
		if i := firstBitDiff(recordFeatures(x, v, &r, nl, dv, 0.25), want); i >= 0 {
			t.Fatalf("record path: feature %d of (%q, %q) differs from the reference", i, nl, dial)
		}
		if i := firstBitDiff(x.FeaturesPrepCost(x.Prepare(nl), dial, nil, 0.25), want); i >= 0 {
			t.Fatalf("wrapper: feature %d of (%q, %q) differs from the reference", i, nl, dial)
		}
	})
}
