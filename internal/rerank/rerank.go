// Package rerank implements GAR's second-stage re-ranking model
// (§III-C2). The paper fine-tunes a RoBERTa cross-encoder with a
// listwise NeuralNDCG objective; this package substitutes a feed-forward
// network over cross-pair interaction features (lexical overlap, IDF
// weighted coverage, n-gram and character similarity, length and value
// signals, and the retrieval encoder's cosine) trained with the ListNet
// listwise objective — same role: fine-grained relevance scoring of
// (NL query, dialect expression) pairs, trained per query list.
package rerank

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"unicode/utf8"

	"repro/internal/embed"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/text"
	"repro/internal/vector"
)

// FeatureDim is the size of the cross-pair feature vector.
const FeatureDim = 21

// Extractor computes cross-pair features. The IDF statistics come from
// the dialect corpus; the encoder contributes its learned similarity.
type Extractor struct {
	IDF     *text.IDF
	Encoder *embed.Encoder
}

// superlatives are NL markers that align with ORDER BY ... LIMIT 1
// dialect phrases; mirrored against the dialect template vocabulary.
var superlatives = map[string]bool{
	"most": true, "highest": true, "largest": true, "biggest": true,
	"maximum": true, "max": true, "top": true, "best": true,
	"fewest": true, "lowest": true, "smallest": true, "minimum": true,
	"min": true, "least": true, "youngest": true, "oldest": true,
	"longest": true, "shortest": true, "earliest": true, "latest": true,
}

var negations = map[string]bool{
	"not": true, "no": true, "never": true, "without": true,
	"except": true, "exclude": true, "excluding": true,
}

var aggregates = map[string]bool{
	"number": true, "count": true, "many": true, "total": true,
	"sum": true, "average": true, "mean": true, "maximum": true,
	"minimum": true, "highest": true, "lowest": true,
}

// Prep caches every NL-side artifact of the features — tokenizations,
// character trigrams, IDF weights, cue and marker flags, the query
// embedding, and the question's token sets in one pool vocabulary's
// IDs — so scoring a question against k retrieved candidates pays the
// NL-side cost once instead of k times. A Prep is immutable after
// Prepare and safe to share across concurrent scoring workers.
type Prep struct {
	toks []string
	// uniqContent, uniqHead and uniqNums are the distinct content
	// tokens, leading content tokens and numeric tokens, in order of
	// first occurrence.
	uniqContent, uniqHead, uniqNums []string
	// weights holds the IDF weight of each uniqContent token and
	// weightTotal their sum, accumulated in that order.
	weights     []float64
	weightTotal float64
	// nBigrams is the number of distinct token bigrams; grams the
	// sorted packed character trigrams of the content tokens.
	nBigrams int
	grams    []uint32

	hasSuper, hasNeg, hasAgg       bool
	groupCue, orderCue, compareCue bool
	// vec is the query embedding under the extractor's encoder; nil
	// when the extractor has no encoder.
	vec vector.Vec

	// vocab is the vocabulary the ID forms below index (see bindPrep):
	// token and head IDs in order, content IDs aligned with
	// uniqContent, and the sorted sets of known content, number and
	// bigram IDs.
	vocab                       *Vocab
	tokIDs, contentIDs, headIDs []uint32
	contentSet, numSet          []uint32
	bigramSet                   []uint64
}

// Prepare computes the NL-side feature artifacts for one question.
func (x *Extractor) Prepare(nl string) *Prep {
	var vec vector.Vec
	if x.Encoder != nil {
		vec = x.Encoder.Encode(nl)
	}
	return x.PrepareVec(nl, vec)
}

// PrepareVec is Prepare with a precomputed query embedding (the exact
// value x.Encoder.Encode(nl) would return), letting callers that
// already encoded the question — retrieval did, or a cache holds it —
// skip the second encode.
func (x *Extractor) PrepareVec(nl string, vec vector.Vec) *Prep {
	return x.PrepareIn(nil, nl, vec)
}

// PrepareIn is PrepareVec for scoring the records of one pool: the
// question's token sets are resolved against the pool's vocabulary
// once, here. A nil vocabulary defers that to the scoring call.
func (x *Extractor) PrepareIn(v *Vocab, nl string, vec vector.Vec) *Prep {
	toks := text.Tokenize(nl)
	content := text.CanonTokens(nl)
	p := &Prep{
		toks:        toks,
		uniqContent: distinct(content),
		uniqHead:    distinct(content[:min(len(content), 3)]),
		hasSuper:    hasAny(toks, superlatives),
		hasNeg:      hasAny(toks, negations),
		hasAgg:      hasAny(toks, aggregates),
		groupCue:    hasGroupCue(nl),
		orderCue:    hasOrderCue(nl),
		compareCue:  hasCompareCue(nl),
		vec:         vec,
	}
	var nums []string
	for _, t := range toks {
		if t[0] >= '0' && t[0] <= '9' {
			nums = append(nums, t)
		}
	}
	p.uniqNums = distinct(nums)
	p.nBigrams = len(distinct(text.NGrams(toks, 2)))
	p.weights = make([]float64, len(p.uniqContent))
	for i, t := range p.uniqContent {
		p.weights[i] = x.IDF.Weight(t)
		p.weightTotal += p.weights[i]
	}
	for _, t := range content {
		p.grams = appendGrams(p.grams, t)
	}
	slices.Sort(p.grams)
	p.grams = slices.Compact(p.grams)
	if v != nil {
		p.bindPrep(v)
	}
	return p
}

// distinct returns the distinct strings in order of first occurrence.
// Questions are short, so a linear scan beats a map; long ones switch
// to a map to stay linear.
func distinct(ss []string) []string {
	out := make([]string, 0, len(ss))
	if len(ss) > 32 {
		seen := make(map[string]bool, len(ss))
		for _, s := range ss {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return out
	}
	for _, s := range ss {
		if !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

// Features computes the feature vector for one (NL, dialect) pair.
func (x *Extractor) Features(nl, dial string) []float64 {
	return x.FeaturesPrep(x.Prepare(nl), dial, nil)
}

// FeaturesPrep computes the feature vector for one prepared question
// against one candidate dialect, with a zero cost feature. dialVec,
// when non-nil, must be the encoder embedding of dial (pipelines
// precompute one per pool candidate at snapshot-build time); nil falls
// back to encoding dial on the spot. Either way the resulting features
// are bit-identical to Features(nl, dial) — the determinism suite
// depends on that.
func (x *Extractor) FeaturesPrep(p *Prep, dial string, dialVec vector.Vec) []float64 {
	return x.FeaturesPrepCost(p, dial, dialVec, 0)
}

// FeaturesPrepCost is FeaturesPrep with the candidate's estimated-cost
// feature (execguide.CostFeature of its SQL, normalized to [0,1); 0
// when no cost signal is available). The cost is a static property of
// the candidate, so pipelines compute it once per pool entry. It
// builds the dialect's record on the spot; snapshot pipelines score
// their precomputed records instead, with identical results.
func (x *Extractor) FeaturesPrepCost(p *Prep, dial string, dialVec vector.Vec, cost float64) []float64 {
	v := NewVocab()
	r := v.Record(dial)
	if dialVec == nil && x.Encoder != nil {
		dialVec = x.Encoder.Encode(dial)
	}
	f := make([]float64, FeatureDim)
	x.features((*[FeatureDim]float64)(f), p.rebind(v), &r, dialVec, cost)
	return f
}

// features computes the feature vector of one prepared question
// against one dialect record into f. p must be bound to the record's
// vocabulary, and dialVec must be the dialect's embedding whenever the
// extractor has an encoder. This is the one feature implementation:
// every scoring and training path reaches it.
func (x *Extractor) features(f *[FeatureDim]float64, p *Prep, r *Record, dialVec vector.Vec, cost float64) {
	// 0-3: token-set similarity and IDF-weighted coverage of the NL
	// query by the dialect, in one pass over the question's distinct
	// content tokens (the weights are summed in question order).
	dContent := r.content()
	inter := 0
	var hit float64
	for i, id := range p.contentIDs {
		if _, found := slices.BinarySearch(dContent, id); found {
			inter++
			hit += p.weights[i]
		}
	}
	nq, nd := len(p.contentIDs), len(dContent)
	f[0] = jaccard(nq, nd, inter)
	f[1] = ratio(inter, nq)
	f[2] = ratio(inter, nd)
	f[3] = 0
	if nq > 0 && p.weightTotal != 0 {
		f[3] = hit / p.weightTotal
	}
	// 4: bigram overlap.
	f[4] = jaccard(p.nBigrams, int(r.nBigrams), bigramHits(p.bigramSet, r.toks()))
	// 5: character-trigram similarity (robust to morphology).
	dGrams := r.grams()
	f[5] = jaccard(len(p.grams), len(dGrams), interCount(p.grams, dGrams))
	// 6: normalized token edit distance.
	dToks := r.toks()
	ed := editDistance(p.tokIDs, dToks)
	den := len(p.tokIDs) + len(dToks)
	if den == 0 {
		den = 1
	}
	f[6] = 1 - float64(ed)/float64(den)
	// 7-8: length signals.
	f[7] = lengthRatio(len(p.tokIDs), len(dToks))
	f[8] = math.Abs(float64(len(p.tokIDs)-len(dToks))) / 16
	// 9: numeric literal agreement: a pair with no numbers anywhere
	// agrees perfectly, otherwise Jaccard.
	f[9] = jaccard(len(p.uniqNums), int(r.nNums), interCount(p.numSet, r.nums()))
	// 10-12: superlative / negation / aggregate marker agreement.
	f[10] = boolFeat(p.hasSuper == (r.flags&flagSuper != 0))
	f[11] = boolFeat(p.hasNeg == (r.flags&flagNeg != 0))
	f[12] = boolFeat(p.hasAgg == (r.flags&flagAgg != 0))
	// 13: "for each"/"per" vs GROUP BY phrase agreement.
	f[13] = boolFeat(p.groupCue == (r.flags&flagForEach != 0))
	// 14: ordering cue agreement.
	f[14] = boolFeat(p.orderCue == (r.flags&flagOrderOf != 0))
	// 15: comparison cue agreement ("more than", "at least", ...).
	f[15] = boolFeat(p.compareCue == (r.flags&flagCompare != 0))
	// 16: select-sentence agreement — coverage of the dialect's first
	// sentence (the projection) by the NL query; separates candidates
	// that differ only in the selected columns.
	first := r.first()
	f[16] = ratio(interCount(first, p.contentSet), len(first))
	// 17: leading-token agreement — the head of the question names the
	// projection ("find the AGE of ..."), so its first content tokens
	// must appear in the dialect's projection sentence. This separates
	// role-swapped candidates (ORDER BY age vs SELECT age) that share a
	// bag of words.
	headHits := 0
	for _, id := range p.headIDs {
		if _, found := slices.BinarySearch(first, id); found {
			headHits++
		}
	}
	f[17] = ratio(headHits, len(p.headIDs))
	// 18: learned retrieval similarity.
	f[18] = 0
	if x.Encoder != nil {
		f[18] = float64(vector.Dot(p.vec, dialVec))
	}
	// 19: estimated execution cost of the candidate's SQL.
	f[19] = cost
	// 20: bias.
	f[20] = 1
}

func lengthRatio(a, b int) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	return float64(a) / float64(b)
}

func hasAny(tokens []string, set map[string]bool) bool {
	for _, t := range tokens {
		if set[t] {
			return true
		}
	}
	return false
}

func hasGroupCue(s string) bool {
	ls := strings.ToLower(s)
	return strings.Contains(ls, "for each") || strings.Contains(ls, " per ") ||
		strings.Contains(ls, "each ") || strings.Contains(ls, "for every")
}

func hasOrderCue(s string) bool {
	ls := strings.ToLower(s)
	for _, cue := range []string{"order of", "sorted", "sort ", "ordered", "alphabetical",
		"ascending", "descending", "highest", "lowest", "most", "fewest", "largest",
		"smallest", "top ", "best", "oldest", "youngest", "longest", "shortest"} {
		if strings.Contains(ls, cue) {
			return true
		}
	}
	return false
}

// compareCues are the comparison phrases hasCompareCue looks for.
var compareCues = [][]byte{[]byte("more than"), []byte("less than"), []byte("greater than"),
	[]byte("at least"), []byte("at most"), []byte("above"), []byte("below"), []byte("over "),
	[]byte("under "), []byte("exceed")}

func hasCompareCue(s string) bool {
	return hasCompareCueLower([]byte(strings.ToLower(s)))
}

// hasCompareCueLower is hasCompareCue over an already lower-cased text.
func hasCompareCueLower(ls []byte) bool {
	for _, cue := range compareCues {
		if bytes.Contains(ls, cue) {
			return true
		}
	}
	return false
}

// lowerInto returns strings.ToLower(s) written into buf's memory,
// allocating only when s is not ASCII.
func lowerInto(buf []byte, s string) []byte {
	buf = buf[:0]
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(buf, strings.ToLower(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

func boolFeat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Model is the trained re-ranking model.
type Model struct {
	X   *Extractor
	Net *nn.MLP
}

// New builds an untrained re-ranker with the standard architecture
// (FeatureDim → 24 → 12 → 1).
func New(x *Extractor, seed int64) (*Model, error) {
	net, err := nn.NewMLP([]int{FeatureDim, 24, 12, 1}, seed)
	if err != nil {
		return nil, err
	}
	return &Model{X: x, Net: net}, nil
}

// Score returns the relevance score of a (NL, dialect) pair.
func (m *Model) Score(nl, dial string) float64 {
	return m.Net.Score(m.X.Features(nl, dial))
}

// ScorePrep scores one prepared question against one candidate.
// dialVec, when non-nil, must be the encoder embedding of dial. The
// score is bit-identical to Score(nl, dial).
func (m *Model) ScorePrep(p *Prep, dial string, dialVec vector.Vec) float64 {
	return m.ScorePrepCost(p, dial, dialVec, 0)
}

// ScorePrepCost is ScorePrep with the candidate's estimated-cost
// feature.
func (m *Model) ScorePrepCost(p *Prep, dial string, dialVec vector.Vec, cost float64) float64 {
	return m.Net.Score(m.X.FeaturesPrepCost(p, dial, dialVec, cost))
}

// ScoreBatchContext scores the prepared question against every
// candidate, fanning the work across workers (0 means one per CPU).
// dialVecs and costs are each either nil or aligned with dialects (nil
// costs scores every pair with a zero cost feature). It builds the
// dialects' records on the spot and scores them as RankRecordsContext
// does. scores[i] is bit-identical to the sequential per-pair score
// regardless of the worker count — each score depends only on its own
// (Prep, dialect, cost) triple.
func (m *Model) ScoreBatchContext(ctx context.Context, p *Prep, dialects []string, dialVecs []vector.Vec, costs []float64, workers int) ([]float64, error) {
	v := NewVocab()
	recs := make([]Record, len(dialects))
	ptrs := make([]*Record, len(dialects))
	vecs := dialVecs
	if vecs == nil && m.X.Encoder != nil {
		vecs = make([]vector.Vec, len(dialects))
	}
	err := parallel.ForEach(ctx, len(dialects), workers, func(i int) error {
		recs[i] = v.Record(dialects[i])
		ptrs[i] = &recs[i]
		if dialVecs == nil && vecs != nil {
			vecs[i] = m.X.Encoder.Encode(dialects[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return m.scoreRecords(ctx, p.rebind(v), ptrs, vecs, costs, workers)
}

// scoreRecords scores the prepared question against candidate records,
// fanning the forward passes across workers (0 means one per CPU). p
// must be prepared in the records' vocabulary (PrepareIn). dialVecs
// must align with recs whenever the extractor has an encoder; costs is
// nil or aligned. scores[i] is bit-identical to the per-pair
// ScorePrepCost of the same candidate, whatever the worker count.
func (m *Model) scoreRecords(ctx context.Context, p *Prep, recs []*Record, dialVecs []vector.Vec, costs []float64, workers int) ([]float64, error) {
	scores := make([]float64, len(recs))
	err := parallel.ForEach(ctx, len(recs), workers, func(i int) error {
		var dv vector.Vec
		if dialVecs != nil {
			dv = dialVecs[i]
		}
		var cost float64
		if costs != nil {
			cost = costs[i]
		}
		var f [FeatureDim]float64
		m.X.features(&f, p, recs[i], dv, cost)
		scores[i] = m.Net.Score(f[:])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// RankRecordsContext ranks candidates given as precomputed feature
// records — the snapshot's own, so no dialect is re-tokenized — and
// returns the descending-score order and the score per candidate, as
// RankScoresPrepContext does. p must be prepared in the records'
// vocabulary (PrepareIn); dialVecs must align with recs whenever the
// extractor has an encoder, and costs is nil or aligned.
func (m *Model) RankRecordsContext(ctx context.Context, p *Prep, recs []*Record, dialVecs []vector.Vec, costs []float64, workers int) ([]int, []float64, error) {
	scores, err := m.scoreRecords(ctx, p, recs, dialVecs, costs, workers)
	if err != nil {
		return nil, nil, err
	}
	return rankOrder(scores), scores, nil
}

// RankScoresPrepContext ranks the candidates for a prepared question
// and returns both the descending-score index order and the raw score
// per original candidate index, so callers never re-score a candidate
// they already ranked.
func (m *Model) RankScoresPrepContext(ctx context.Context, p *Prep, dialects []string, dialVecs []vector.Vec, costs []float64, workers int) ([]int, []float64, error) {
	scores, err := m.ScoreBatchContext(ctx, p, dialects, dialVecs, costs, workers)
	if err != nil {
		return nil, nil, err
	}
	return rankOrder(scores), scores, nil
}

// RankScoresContext is RankScoresPrepContext over a raw NL question.
func (m *Model) RankScoresContext(ctx context.Context, nl string, dialects []string, dialVecs []vector.Vec, costs []float64, workers int) ([]int, []float64, error) {
	return m.RankScoresPrepContext(ctx, m.X.Prepare(nl), dialects, dialVecs, costs, workers)
}

// rankOrder returns candidate indexes in descending score order using
// an insertion sort that is stable by original index, so exact score
// ties rank deterministically no matter how the scores were produced.
func rankOrder(scores []float64) []int {
	type scored struct {
		idx   int
		score float64
	}
	s := make([]scored, len(scores))
	for i, sc := range scores {
		s[i] = scored{idx: i, score: sc}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].score > s[j-1].score; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	out := make([]int, len(s))
	for i, sc := range s {
		out[i] = sc.idx
	}
	return out
}

// TrainingList is one listwise group: an NL query with candidate
// dialects and their binary (or graded) relevance labels. Costs, when
// non-nil, must align with Dialects and carries each candidate's
// estimated-cost feature, so training sees the same inputs serving
// will.
type TrainingList struct {
	NL       string
	Dialects []string
	Labels   []float64
	Costs    []float64
	// IDs, when non-nil, aligns with Dialects and gives each
	// candidate's position in a pool whose feature records (Records,
	// indexing Vocab) and, when non-nil, dialect embeddings (DialVecs)
	// Train scores through, exactly as serving does. Without IDs, Train
	// builds the records from Dialects and encodes them itself.
	IDs      []int
	Vocab    *Vocab
	Records  []Record
	DialVecs []vector.Vec
}

// Train fits the model on listwise groups.
func (m *Model) Train(lists []TrainingList, cfg nn.TrainConfig) []float64 {
	nnLists := make([]nn.List, 0, len(lists))
	for _, l := range lists {
		list := nn.List{Labels: l.Labels, Features: make([][]float64, 0, len(l.Dialects))}
		v, recs, ids := l.Vocab, l.Records, l.IDs
		if ids == nil {
			v = NewVocab()
			recs = make([]Record, len(l.Dialects))
			ids = make([]int, len(l.Dialects))
			for i, d := range l.Dialects {
				recs[i] = v.Record(d)
				ids[i] = i
			}
		}
		var qvec vector.Vec
		if m.X.Encoder != nil {
			qvec = m.X.Encoder.Encode(l.NL)
		}
		p := m.X.PrepareIn(v, l.NL, qvec)
		for i, id := range ids {
			var dv vector.Vec
			switch {
			case l.IDs != nil && l.DialVecs != nil:
				dv = l.DialVecs[id]
			case m.X.Encoder != nil:
				dv = m.X.Encoder.Encode(l.Dialects[i])
			}
			var cost float64
			if l.Costs != nil {
				cost = l.Costs[i]
			}
			f := make([]float64, FeatureDim)
			m.X.features((*[FeatureDim]float64)(f), p, &recs[id], dv, cost)
			list.Features = append(list.Features, f)
		}
		nnLists = append(nnLists, list)
	}
	return m.Net.TrainListwise(nnLists, cfg)
}

// Rank scores all candidates for the NL query and returns the indexes in
// descending score order.
//
//garlint:allow ctxpass errlost -- compatibility wrapper over RankContext; the fresh root context and the dropped error are the legacy signature
func (m *Model) Rank(nl string, dialects []string) []int {
	order, _ := m.RankContext(context.Background(), nl, dialects)
	return order
}

// RankContext is Rank with cancellation: the context is checked around
// every forward pass, so a deadline set over a large candidate list
// aborts mid-scoring instead of completing the full scan.
func (m *Model) RankContext(ctx context.Context, nl string, dialects []string) ([]int, error) {
	order, _, err := m.RankScoresContext(ctx, nl, dialects, nil, nil, 1)
	return order, err
}
