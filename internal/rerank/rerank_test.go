package rerank_test

import (
	"context"
	"testing"

	"repro/internal/embed"
	"repro/internal/nn"
	"repro/internal/rerank"
	"repro/internal/text"
	"repro/internal/vector"
)

func newExtractor() *rerank.Extractor {
	corpus := []string{
		"Find the name of employee.",
		"Find the age of employee.",
		"Find the number of employees.",
		"Find the name of employee. Return the top one result in descending order of the age of employee.",
		"Find the name of employee. Return results only for employee that age is greater than value.",
	}
	enc := embed.NewEncoder(embed.Config{Seed: 1})
	enc.FitIDF(corpus)
	return &rerank.Extractor{IDF: text.NewIDF(corpus), Encoder: enc}
}

func TestFeatureShape(t *testing.T) {
	x := newExtractor()
	f := x.Features("who is the oldest employee", "Find the name of employee.")
	if len(f) != rerank.FeatureDim {
		t.Fatalf("feature dim %d, want %d", len(f), rerank.FeatureDim)
	}
	for i, v := range f {
		if v != v { // NaN check
			t.Errorf("feature %d is NaN", i)
		}
	}
	// Empty inputs must not panic or produce NaN.
	f = x.Features("", "")
	for i, v := range f {
		if v != v {
			t.Errorf("empty-input feature %d is NaN", i)
		}
	}
}

func TestFeaturesFavorMatchingDialect(t *testing.T) {
	x := newExtractor()
	nl := "who is the oldest employee"
	good := "Find the name of employee. Return the top one result in descending order of the age of employee."
	bad := "Find the number of employees."
	fg := x.Features(nl, good)
	fb := x.Features(nl, bad)
	// The ordering-cue agreement feature (index 14) must separate them.
	if fg[14] <= fb[14] {
		t.Errorf("order cue feature does not separate: good %v bad %v", fg[14], fb[14])
	}
}

func TestSuperlativeAgreement(t *testing.T) {
	x := newExtractor()
	withCue := x.Features("the highest bonus", "Return the top one result in descending order of one bonus.")
	withoutCue := x.Features("the highest bonus", "Find the bonus of evaluation.")
	if withCue[10] != 1 {
		t.Errorf("superlative agreement should be 1: %v", withCue[10])
	}
	if withoutCue[10] != 0 {
		t.Errorf("superlative disagreement should be 0: %v", withoutCue[10])
	}
}

func trainingLists() []rerank.TrainingList {
	return []rerank.TrainingList{
		{
			NL: "who is the oldest employee",
			Dialects: []string{
				"Find the name of employee. Return the top one result in descending order of the age of employee.",
				"Find the name of employee.",
				"Find the number of employees.",
			},
			Labels: []float64{1, 0, 0},
		},
		{
			NL: "how many employees are there",
			Dialects: []string{
				"Find the number of employees.",
				"Find the age of employee.",
				"Find the name of employee. Return results only for employee that age is greater than value.",
			},
			Labels: []float64{1, 0, 0},
		},
		{
			NL: "employees older than 30",
			Dialects: []string{
				"Find the name of employee. Return results only for employee that age is greater than value.",
				"Find the name of employee.",
				"Find the number of employees.",
			},
			Labels: []float64{1, 0, 0},
		},
		{
			NL: "list employee ages",
			Dialects: []string{
				"Find the age of employee.",
				"Find the number of employees.",
				"Find the name of employee. Return the top one result in descending order of the age of employee.",
			},
			Labels: []float64{1, 0, 0},
		},
	}
}

func TestTrainAndRank(t *testing.T) {
	x := newExtractor()
	m, err := rerank.New(x, 2)
	if err != nil {
		t.Fatalf("rerank.New: %v", err)
	}
	lists := trainingLists()
	losses := m.Train(lists, nn.TrainConfig{Epochs: 30, LR: 0.01, Seed: 3})
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("training loss did not decrease: %v...%v", losses[0], losses[len(losses)-1])
	}
	correct := 0
	for _, l := range lists {
		order := m.Rank(l.NL, l.Dialects)
		if l.Labels[order[0]] == 1 {
			correct++
		}
	}
	if correct < 3 {
		t.Errorf("re-ranker got only %d/4 training lists right", correct)
	}
}

// TestPrepPathBitIdentical pins the amortized scoring path — prepared
// NL-side features plus precomputed dialect embeddings — to the legacy
// per-pair path, feature by feature and bit by bit. The translate hot
// path's determinism guarantee rests on this equivalence.
func TestPrepPathBitIdentical(t *testing.T) {
	x := newExtractor()
	nls := []string{
		"who is the oldest employee",
		"employees older than 30",
		"",
		"how many employees are there",
	}
	dialects := []string{
		"Find the name of employee. Return the top one result in descending order of the age of employee.",
		"Find the number of employees.",
		"",
		"Find the name of employee. Return results only for employee that age is greater than value.",
	}
	dialVecs := make([]vector.Vec, len(dialects))
	for i, d := range dialects {
		dialVecs[i] = x.Encoder.Encode(d)
	}
	for _, nl := range nls {
		plain := x.Prepare(nl)
		withVec := x.PrepareVec(nl, x.Encoder.Encode(nl))
		for di, d := range dialects {
			want := x.Features(nl, d)
			for name, got := range map[string][]float64{
				"Prepare":            x.FeaturesPrep(plain, d, nil),
				"Prepare+dialVec":    x.FeaturesPrep(plain, d, dialVecs[di]),
				"PrepareVec+dialVec": x.FeaturesPrep(withVec, d, dialVecs[di]),
			} {
				if len(got) != len(want) {
					t.Fatalf("%s: dim %d vs %d", name, len(got), len(want))
				}
				for fi := range want {
					if got[fi] != want[fi] {
						t.Errorf("nl=%q dial=%q %s feature %d: %v != %v",
							nl, d, name, fi, got[fi], want[fi])
					}
				}
			}
		}
	}
}

// TestScoreBatchMatchesScore pins batched (and parallel) scoring and
// ranking to the sequential per-pair API.
func TestScoreBatchMatchesScore(t *testing.T) {
	x := newExtractor()
	m, err := rerank.New(x, 7)
	if err != nil {
		t.Fatalf("rerank.New: %v", err)
	}
	nl := "who is the oldest employee"
	dialects := []string{
		"Find the name of employee. Return the top one result in descending order of the age of employee.",
		"Find the name of employee.",
		"Find the number of employees.",
		"Find the age of employee.",
	}
	dialVecs := make([]vector.Vec, len(dialects))
	for i, d := range dialects {
		dialVecs[i] = x.Encoder.Encode(d)
	}
	want := make([]float64, len(dialects))
	for i, d := range dialects {
		want[i] = m.Score(nl, d)
	}
	wantOrder := m.Rank(nl, dialects)
	for _, workers := range []int{1, 4} {
		order, scores, err := m.RankScoresContext(context.Background(), nl, dialects, dialVecs, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if scores[i] != want[i] {
				t.Errorf("workers=%d score %d: %v != %v", workers, i, scores[i], want[i])
			}
			if order[i] != wantOrder[i] {
				t.Errorf("workers=%d order %d: %d != %d", workers, i, order[i], wantOrder[i])
			}
		}
	}
	// Snapshot records rank exactly as the per-pair API.
	v := rerank.NewVocab()
	recs := make([]*rerank.Record, len(dialects))
	for i, d := range dialects {
		r := v.Record(d)
		recs[i] = &r
	}
	p := x.PrepareIn(v, nl, x.Encoder.Encode(nl))
	for _, workers := range []int{1, 4} {
		order, scores, err := m.RankRecordsContext(context.Background(), p, recs, dialVecs, nil, workers)
		if err != nil {
			t.Fatalf("records, workers=%d: %v", workers, err)
		}
		for i := range want {
			if scores[i] != want[i] || order[i] != wantOrder[i] {
				t.Errorf("records, workers=%d rank %d: %d (%v), want %d (%v)", workers, i, order[i], scores[i], wantOrder[i], want[i])
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.RankScoresContext(ctx, nl, dialects, nil, nil, 2); err == nil {
		t.Error("cancelled rank must fail")
	}
	if _, _, err := m.RankRecordsContext(ctx, p, recs, dialVecs, nil, 2); err == nil {
		t.Error("cancelled record rank must fail")
	}
}

// TestTrainThroughRecords: training lists that name their candidates
// by pool ID — scored through the pool's records and embeddings, as
// BuildLists produces them — train the same network, bit for bit, as
// lists of plain dialects.
func TestTrainThroughRecords(t *testing.T) {
	x := newExtractor()
	plain := trainingLists()
	var pool []string
	ids := map[string]int{}
	for _, l := range plain {
		for _, d := range l.Dialects {
			if _, ok := ids[d]; !ok {
				ids[d] = len(pool)
				pool = append(pool, d)
			}
		}
	}
	v := rerank.NewVocab()
	recs := make([]rerank.Record, len(pool))
	vecs := make([]vector.Vec, len(pool))
	for i, d := range pool {
		recs[i] = v.Record(d)
		vecs[i] = x.Encoder.Encode(d)
	}
	byID := trainingLists()
	for i := range byID {
		byID[i].Vocab, byID[i].Records, byID[i].DialVecs = v, recs, vecs
		for _, d := range byID[i].Dialects {
			byID[i].IDs = append(byID[i].IDs, ids[d])
		}
	}
	cfg := nn.TrainConfig{Epochs: 10, LR: 0.01, Seed: 3}
	a, err := rerank.New(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rerank.New(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	la, lb := a.Train(plain, cfg), b.Train(byID, cfg)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("epoch %d loss %v through records, %v through dialects", i, lb[i], la[i])
		}
	}
	for _, d := range pool {
		if a.Score("who is the oldest employee", d) != b.Score("who is the oldest employee", d) {
			t.Fatalf("networks differ on %q", d)
		}
	}
}

func TestRankDeterministicAndComplete(t *testing.T) {
	x := newExtractor()
	m, err := rerank.New(x, 5)
	if err != nil {
		t.Fatalf("rerank.New: %v", err)
	}
	dialects := []string{"a b c", "d e f", "a b d"}
	o1 := m.Rank("a b", dialects)
	o2 := m.Rank("a b", dialects)
	if len(o1) != 3 {
		t.Fatalf("rank returned %d indexes", len(o1))
	}
	seen := map[int]bool{}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("rank not deterministic")
		}
		seen[o1[i]] = true
	}
	if len(seen) != 3 {
		t.Error("rank is not a permutation")
	}
}

// TestCostFeaturePath pins the cost-feature plumbing: ScorePrep is
// ScorePrepCost at zero cost, a non-zero cost lands in feature 19 and
// changes the score, and batched scoring with a costs slice matches the
// sequential per-pair path bit for bit.
func TestCostFeaturePath(t *testing.T) {
	x := newExtractor()
	m, err := rerank.New(x, 11)
	if err != nil {
		t.Fatal(err)
	}
	nl := "who is the oldest employee"
	dialects := []string{
		"Find the name of employee. Return the top one result in descending order of the age of employee.",
		"Find the number of employees.",
		"Find the age of employee.",
	}
	costs := []float64{0.2, 0.8, 0}
	p := x.Prepare(nl)

	for i, d := range dialects {
		f := x.FeaturesPrepCost(p, d, nil, costs[i])
		if got := f[19]; got != costs[i] {
			t.Errorf("feature 19 = %v, want cost %v", got, costs[i])
		}
		if got, want := m.ScorePrep(p, d, nil), m.ScorePrepCost(p, d, nil, 0); got != want {
			t.Errorf("ScorePrep %v != ScorePrepCost(0) %v", got, want)
		}
	}
	if m.ScorePrepCost(p, dialects[1], nil, 0.8) == m.ScorePrepCost(p, dialects[1], nil, 0) {
		t.Error("non-zero cost did not move the score")
	}

	batch, err := m.ScoreBatchContext(context.Background(), p, dialects, nil, costs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dialects {
		if want := m.ScorePrepCost(p, d, nil, costs[i]); batch[i] != want {
			t.Errorf("batched score %d: %v != sequential %v", i, batch[i], want)
		}
	}
}
