package rerank_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/embed"
	"repro/internal/qualgate"
	"repro/internal/rerank"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/text"
	"repro/internal/vector"
)

// poolDialects prepares a system over the samples and returns its
// generalized candidate pool's dialect expressions.
func poolDialects(t *testing.T, db *schema.Database, samples []*sqlast.Query, size int, joins bool) []string {
	t.Helper()
	sys := core.New(db, core.Options{GeneralizeSize: size, Seed: qualgate.Seed, JoinAnnotations: joins})
	sys.Prepare(samples)
	dialects := sys.PoolDialects()
	if len(dialects) == 0 {
		t.Fatalf("%s: empty pool", db.Name)
	}
	return dialects
}

// checkAllPairs scores every (question, candidate) pair through one
// shared pool vocabulary's records — the snapshot layout — and through
// the on-the-fly wrapper, and compares all features bit for bit with
// the string-based reference.
func checkAllPairs(t *testing.T, name string, questions, dialects []string) {
	t.Helper()
	corpus := append(append([]string(nil), dialects...), questions...)
	enc := embed.NewEncoder(embed.Config{Seed: 3})
	enc.FitIDF(corpus)
	x := &rerank.Extractor{IDF: text.NewIDF(corpus), Encoder: enc}

	v := rerank.NewVocab()
	recs := make([]rerank.Record, len(dialects))
	vecs := make([]vector.Vec, len(dialects))
	for i, d := range dialects {
		recs[i] = v.Record(d)
		vecs[i] = enc.Encode(d)
	}
	pairs := 0
	for qi, nl := range questions {
		for di, d := range dialects {
			cost := float64(di%7) / 7
			want := rerank.ReferenceFeatures(x, nl, d, vecs[di], cost)
			if i := rerank.FirstBitDiff(rerank.RecordFeatures(x, v, &recs[di], nl, vecs[di], cost), want); i >= 0 {
				t.Fatalf("%s: feature %d of (%q, %q) differs from the reference", name, i, nl, d)
			}
			// The wrapper path builds its own records; checking a
			// sample of pairs keeps the test fast.
			if (qi+di)%17 == 0 {
				p := x.PrepareVec(nl, enc.Encode(nl))
				if i := rerank.FirstBitDiff(x.FeaturesPrepCost(p, d, vecs[di], cost), want); i >= 0 {
					t.Fatalf("%s: wrapper feature %d of (%q, %q) differs from the reference", name, i, nl, d)
				}
			}
			pairs++
		}
	}
	bytes := v.Bytes()
	for i := range recs {
		bytes += recs[i].Bytes()
	}
	t.Logf("%s: %d pairs over %d candidates bit-identical; vocabulary of %d strings, %d record bytes per candidate",
		name, pairs, len(dialects), v.Len(), bytes/int64(len(dialects)))
}

// TestRecordFeaturesMatchReferenceGeo covers every pair of a generated
// GEO-like pool and its generated questions.
func TestRecordFeaturesMatchReferenceGeo(t *testing.T) {
	size, nq := 500, 40
	if testing.Short() {
		size, nq = 150, 12
	}
	b := datasets.GeoLike(datasets.GeoConfig{Train: 60, Val: 1, Test: nq, Seed: 1})
	bundle := b.DBs["geo"]
	samples := make([]*sqlast.Query, len(b.Train))
	for i, it := range b.Train {
		samples[i] = it.Gold
	}
	var questions []string
	for _, it := range b.Test {
		questions = append(questions, it.NL)
	}
	checkAllPairs(t, "geo", questions, poolDialects(t, bundle.Schema, samples, size, false))
}

// TestRecordFeaturesMatchReferenceSuites covers every pair of the
// committed quality-gate suites.
func TestRecordFeaturesMatchReferenceSuites(t *testing.T) {
	for _, s := range qualgate.Suites() {
		samples := make([]*sqlast.Query, len(s.Samples))
		for i, raw := range s.Samples {
			q, err := sqlparse.Parse(raw)
			if err != nil {
				t.Fatal(err)
			}
			samples[i] = q
		}
		checkAllPairs(t, s.Name, s.Questions, poolDialects(t, s.DB, samples, 300, s.JoinAnnotations))
	}
}
