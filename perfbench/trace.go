package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dialect"
	"repro/internal/embed"
	"repro/internal/engine"
	"repro/internal/execguide"
	"repro/internal/generalize"
	"repro/internal/ltr"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rerank"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/text"
	"repro/internal/values"
	"repro/internal/vector"
	"repro/internal/vindex"
)

// serveOptions are the system options `gar serve` runs a workload
// with (runServe's flag defaults plus the workload's flags). The
// defaults the system would fill in are spelled out, because the
// traced pipeline reads them too.
func serveOptions(w workload) core.Options {
	return core.Options{
		GeneralizeSize: w.pool,
		RetrievalK:     100,
		RerankTrainK:   100,
		Seed:           1,
		EncoderEpochs:  14,
		RerankEpochs:   40,
		CacheSize:      1024,
		ExecGuide:      w.execGuide,
		ExecBudget:     25 * time.Millisecond,
		ExecTopK:       8,
		StageBudget:    core.StageBudget{Retrieval: 0.5, Rerank: 0.6, Postprocess: 0.7, ExecGuide: 0.9},
	}
}

// requestTimeout mirrors the server's per-request translation timeout.
const requestTimeout = 10 * time.Second

// span is one timed call into a layer. Spans of one request share req;
// the layer calls are children of that request's "request" span.
type span struct {
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (tr *tracer) record(req int, name, parent string, start, end time.Time) time.Duration {
	tr.spans = append(tr.spans, span{Req: req, Name: name, Parent: parent,
		StartNS: start.Sub(tr.origin).Nanoseconds(), EndNS: end.Sub(tr.origin).Nanoseconds()})
	return end.Sub(start)
}

// timed runs fn and returns its wall time.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// tracedSystem is the served system rebuilt in process from its spec
// with the serve options, plus the replay pipeline assembled from layer
// calls.
type tracedSystem struct {
	db       *schema.Database
	opts     core.Options
	content  *engine.Instance
	samples  []*sqlast.Query
	examples []ltr.Example
	sys      *core.System
	models   *core.Models
	store    *checkpoint.Store

	pipe   *ltr.Pipeline
	linker *values.Linker
	guide  *execguide.Guide
}

// layerTimes accumulates per-layer measurements over the builds.
type layerTimes struct {
	prepare, trainModels, useModels, swap []float64
	generalize, express, embedTrain       []float64
	poolEncode, indexBuild, rerankTrain   []float64
	candidates                            []float64
	ckptWrite, ckptBytes                  []float64
	snapshotBytes                         []float64
	// poolBuilds counts the pool generations the reloads published, on
	// the throwaway and the live system alike: every Prepare and every
	// Swap generalizes the samples into a new pool and bumps its
	// system's Generation.
	reloads, poolBuilds int
}

// newTracedSystem cold-builds the system with the exact call sequence
// of `gar serve` (cmd/gar buildSystemModels): system, content, Prepare,
// TrainModels, UseModels.
func newTracedSystem(w workload, in *inputs, dir string, lt *layerTimes) (*tracedSystem, error) {
	sp, err := readSpec(in.path)
	if err != nil {
		return nil, err
	}
	tt := &tracedSystem{db: in.db, opts: serveOptions(w)}
	if tt.content, err = contentOf(sp, in.db); err != nil {
		return nil, err
	}
	for _, raw := range sp.Samples {
		q, err := sqlparse.Parse(raw)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", raw, err)
		}
		tt.samples = append(tt.samples, q)
	}
	for _, ex := range sp.Examples {
		q, err := sqlparse.Parse(ex.SQL)
		if err != nil {
			return nil, fmt.Errorf("example %q: %w", ex.SQL, err)
		}
		tt.examples = append(tt.examples, ltr.Example{NL: ex.Question, Gold: q})
	}
	tt.sys, tt.models, err = tt.build(lt)
	if err != nil {
		return nil, err
	}
	if w.stateDir {
		if tt.store, err = checkpoint.Open(filepath.Join(dir, "traced-state")); err != nil {
			return nil, err
		}
		if err := tt.writeCheckpoint(lt); err != nil {
			return nil, err
		}
	}
	_, sections, err := tt.sys.ExportCheckpoint()
	if err != nil {
		return nil, err
	}
	var n int
	for _, s := range sections {
		n += len(s.Data)
	}
	lt.snapshotBytes = append(lt.snapshotBytes, float64(n))
	return tt, nil
}

// build is one cold build: a fresh system prepared, trained and
// deployed, each core call timed.
func (tt *tracedSystem) build(lt *layerTimes) (*core.System, *core.Models, error) {
	sys := core.New(tt.db, tt.opts)
	if tt.content != nil {
		sys.SetContent(tt.content)
	}
	lt.prepare = append(lt.prepare, timed(func() { sys.Prepare(tt.samples) }).Seconds())
	var models *core.Models
	var err error
	lt.trainModels = append(lt.trainModels, timed(func() {
		models, err = core.TrainModels([]core.TrainingSet{{Sys: sys, Examples: tt.examples}}, tt.opts)
	}).Seconds())
	if err != nil {
		return nil, nil, err
	}
	lt.useModels = append(lt.useModels, timed(func() { err = sys.UseModels(models) }).Seconds())
	return sys, models, err
}

// reload repeats `gar serve`'s POST /reload: a throwaway system built
// from the spec, its content set on the live system, Swap, and (with
// durable state) the checkpoint the publication triggers.
func (tt *tracedSystem) reload(lt *layerTimes) error {
	throwaway, models, err := tt.build(lt)
	if err != nil {
		return err
	}
	if tt.content != nil {
		tt.sys.SetContent(tt.content)
	}
	gen := tt.sys.Generation()
	lt.swap = append(lt.swap, timed(func() { _, err = tt.sys.Swap(tt.samples, models) }).Seconds())
	if err != nil {
		return err
	}
	lt.poolBuilds += int(throwaway.Generation() + tt.sys.Generation() - gen)
	lt.reloads++
	tt.models = models
	if tt.store != nil {
		return tt.writeCheckpoint(lt)
	}
	return nil
}

func (tt *tracedSystem) writeCheckpoint(lt *layerTimes) error {
	var gen uint64
	var err error
	d := timed(func() {
		var m checkpoint.Manifest
		var sections []checkpoint.Section
		if m, sections, err = tt.sys.ExportCheckpoint(); err == nil {
			err = tt.store.Write(m, sections)
			gen = m.Generation
		}
	})
	if err != nil {
		return err
	}
	fi, err := os.Stat(tt.store.Path(gen))
	if err != nil {
		return err
	}
	lt.ckptWrite = append(lt.ckptWrite, d.Seconds())
	lt.ckptBytes = append(lt.ckptBytes, float64(fi.Size()))
	return nil
}

// decompose re-runs the pool build and the model training of the cold
// build layer by layer from outside — generalization streaming into
// the dialect builder, encoder training, pool encoding, index build,
// re-ranker training — and checks that each replica reproduces what
// the system built.
func (tt *tracedSystem) decompose(ctx context.Context, lt *layerTimes) error {
	db, opts := tt.db, tt.opts
	builder := dialect.New(db)
	var express time.Duration
	var dialects []string
	var err error
	total := timed(func() {
		_, err = generalize.Stream(db, tt.samples, generalize.Config{
			TargetSize: opts.GeneralizeSize, Seed: opts.Seed, Rules: generalize.AllRules(),
		}, func(q *sqlast.Query) error {
			t0 := time.Now()
			dialects = append(dialects, builder.Express(q))
			express += time.Since(t0)
			return nil
		})
	})
	if err != nil {
		return err
	}
	lt.generalize = append(lt.generalize, (total - express).Seconds())
	lt.express = append(lt.express, express.Seconds())
	lt.candidates = append(lt.candidates, float64(len(dialects)))
	served := tt.sys.PoolDialects()
	if len(served) != len(dialects) {
		return fmt.Errorf("traced pool build: %d candidates, the system built %d", len(dialects), len(served))
	}
	for i := range served {
		if served[i] != dialects[i] {
			return fmt.Errorf("traced pool build diverges at candidate %d: %q vs %q", i, dialects[i], served[i])
		}
	}

	// Training, as core.TrainModels does it for one training set.
	pool := tt.sys.Pool()
	poolIdx := ltr.NewPoolIndex(pool)
	bound := make([]ltr.Example, len(tt.examples))
	var corpus []string
	for _, c := range pool {
		corpus = append(corpus, c.Dialect)
	}
	for i, ex := range tt.examples {
		bound[i] = ltr.Example{NL: ex.NL, Gold: tt.sys.BindGold(ex.Gold)}
		corpus = append(corpus, ex.NL)
	}
	encoder := embed.NewEncoder(embed.Config{Seed: opts.Seed})
	lt.embedTrain = append(lt.embedTrain, timed(func() {
		encoder.FitIDF(corpus)
		encoder.Train(ltr.BuildTriplets(bound, pool, poolIdx, 4, opts.Seed+1), embed.TrainConfig{Epochs: opts.EncoderEpochs})
	}).Seconds())
	vecs, index, err := encodePool(ctx, pool, encoder, opts.Workers, lt)
	if err != nil {
		return err
	}
	var model *rerank.Model
	lt.rerankTrain = append(lt.rerankTrain, timed(func() {
		model, err = rerank.New(&rerank.Extractor{IDF: text.NewIDF(corpus), Encoder: encoder}, opts.Seed+3)
		if err != nil {
			return
		}
		pipe := &ltr.Pipeline{Encoder: encoder, Index: index, Pool: pool, PoolIdx: poolIdx, K: opts.RetrievalK,
			DialVecs: vecs, Costs: poolCosts(pool), Workers: opts.Workers}
		model.Train(pipe.BuildLists(bound, opts.RerankTrainK), nn.TrainConfig{Epochs: opts.RerankEpochs, Seed: opts.Seed + 4})
	}).Seconds())
	if err != nil {
		return err
	}
	// The replica must be the deployed models, bit for bit.
	probe := tt.examples[0].NL
	if !sameVec(encoder.Encode(probe), tt.models.Encoder.Encode(probe)) {
		return fmt.Errorf("traced encoder training diverges from core.TrainModels")
	}
	got := model.ScorePrepCost(model.X.Prepare(probe), pool[0].Dialect, vecs[0], 0)
	want := tt.models.Reranker.ScorePrepCost(tt.models.Reranker.X.Prepare(probe), pool[0].Dialect, vecs[0], 0)
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("traced re-ranker training diverges from core.TrainModels: %v vs %v", got, want)
	}
	return nil
}

// encodePool embeds every candidate (fanned out as the snapshot build
// does) and indexes the vectors, timing both.
func encodePool(ctx context.Context, pool []ltr.Candidate, encoder *embed.Encoder, workers int, lt *layerTimes) ([]vector.Vec, *vindex.Flat, error) {
	vecs := make([]vector.Vec, len(pool))
	var err error
	lt.poolEncode = append(lt.poolEncode, timed(func() {
		err = parallel.ForEach(ctx, len(pool), workers, func(i int) error {
			vecs[i] = encoder.Encode(pool[i].Dialect)
			return nil
		})
	}).Seconds())
	index := vindex.NewFlat()
	lt.indexBuild = append(lt.indexBuild, timed(func() {
		for i, v := range vecs {
			index.Add(i, v)
		}
	}).Seconds())
	return vecs, index, err
}

func poolCosts(pool []ltr.Candidate) []float64 {
	out := make([]float64, len(pool))
	for i, c := range pool {
		out[i] = execguide.CostFeature(c.SQL)
	}
	return out
}

func sameVec(a, b vector.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// assemble builds the replay pipeline over the served snapshot's pool
// from the deployed models, the way the snapshot build wires it.
func (tt *tracedSystem) assemble(ctx context.Context) error {
	pool := tt.sys.Pool()
	var lt layerTimes
	vecs, index, err := encodePool(ctx, pool, tt.models.Encoder, tt.opts.Workers, &lt)
	if err != nil {
		return err
	}
	tt.pipe = &ltr.Pipeline{
		Encoder:  tt.models.Encoder,
		Index:    index,
		Reranker: tt.models.Reranker,
		Pool:     pool,
		PoolIdx:  ltr.NewPoolIndex(pool),
		K:        tt.opts.RetrievalK,
		DialVecs: vecs,
		Costs:    poolCosts(pool),
		Workers:  tt.opts.Workers,
	}
	tt.linker = values.NewLinker(tt.db, tt.content)
	if tt.opts.ExecGuide {
		tt.guide = execguide.New(tt.db, tt.content, execguide.HarvestSeeds(tt.db, tt.samples),
			execguide.Config{TopK: tt.opts.ExecTopK, Budget: tt.opts.ExecBudget})
	}
	return nil
}

// replayed is one request's untraced translation.
type replayed struct {
	tr   *core.Translation
	d    time.Duration
	miss bool
	// mallocs and bytes are the heap allocations of the call.
	mallocs, bytes uint64
}

// traceResult holds the per-layer metrics of the traced run.
type traceResult map[string]metric

// callOrders are the orders in which runTrace makes a request's three
// calls, taken in turn: every order once in six requests, so that each
// call runs in each position and after each other call equally often.
var callOrders = [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}

// runTrace rebuilds the system in process, repeats one reload, then
// replays the end-to-end run's request sequence. Each request runs
// three times back to back: through System.TranslateContext, through
// each layer's public functions untraced, and the same traced. The
// order rotates through callOrders, so that no call always runs on
// caches, or after allocations, of another: trace.coverage pairs the
// traced replay with TranslateContext, trace.overhead_frac with the
// untraced replay (the median relative difference of the pairs; it can
// read just below 0 when tracing costs less than the timing noise). It
// checks that the traced replay and TranslateContext produce the
// identical ranked list and that it matches what the server answered.
// serverTimeouts reports that the server's execution guidance hit its
// per-candidate budget at least once (its /healthz counter), which
// checkReplay must allow for.
func runTrace(ctx context.Context, w workload, in *inputs, dir string, seq []sample, serverTimeouts bool, spanPath string) (traceResult, error) {
	var lt layerTimes
	tt, err := newTracedSystem(w, in, dir, &lt)
	if err != nil {
		return nil, err
	}
	if err := tt.decompose(ctx, &lt); err != nil {
		return nil, err
	}
	if err := tt.reload(&lt); err != nil {
		return nil, fmt.Errorf("reload: %w", err)
	}
	if err := tt.assemble(ctx); err != nil {
		return nil, err
	}

	trc := &tracer{origin: time.Now()}
	var st, untracedSt spanStats
	var spanSum, plainSum time.Duration
	var overhead []float64
	var mallocs, allocBytes uint64
	misses, diverged, tied := 0, 0, 0
	runtime.GC()
	for i, s := range seq {
		nl := in.stream[s.pos%len(in.stream)].question
		var plain replayed
		var rep tracedAnswer
		var tracedD, untracedD time.Duration
		calls := []func() error{
			func() (err error) { plain, err = tt.translate(ctx, nl); return err },
			func() (err error) {
				untracedD = timed(func() { _, err = tt.traceRequest(ctx, nil, i, nl, &untracedSt) })
				return err
			},
			func() (err error) {
				tracedD = timed(func() { rep, err = tt.traceRequest(ctx, trc, i, nl, &st) })
				return err
			},
		}
		for _, k := range callOrders[i%len(callOrders)] {
			if err := calls[k](); err != nil {
				return nil, fmt.Errorf("question %q: %w", nl, err)
			}
		}
		mallocs += plain.mallocs
		allocBytes += plain.bytes
		ambiguous, div, err := tt.checkReplay(nl, plain.tr, rep, s, serverTimeouts)
		if err != nil {
			return nil, fmt.Errorf("question %q: %w", nl, err)
		}
		if ambiguous {
			tied++
		}
		if div {
			diverged++
		}
		if plain.miss {
			misses++
			spanSum += rep.leaf
			plainSum += plain.d
		}
		overhead = append(overhead, ratio(float64(tracedD-untracedD), float64(untracedD)))
	}
	if err := writeSpans(spanPath, trc.spans); err != nil {
		return nil, err
	}

	n := float64(len(seq))
	res := traceResult{
		"embed.encode_us":             {median(st.encode), "us"},
		"embed.pool_encode_s":         {median(lt.poolEncode), "s"},
		"embed.train_s":               {median(lt.embedTrain), "s"},
		"vindex.search_us":            {median(st.search), "us"},
		"vindex.scanned":              {float64(tt.pipe.Index.Len()), "count"},
		"vindex.build_s":              {median(lt.indexBuild), "s"},
		"rerank.prep_us":              {median(st.prep), "us"},
		"rerank.score_us":             {median(st.score), "us"},
		"rerank.candidates":           {st.candidates / n, "count"},
		"rerank.train_s":              {median(lt.rerankTrain), "s"},
		"values.filter_us":            {median(st.filter), "us"},
		"values.fill_us":              {median(st.fill), "us"},
		"values.calls_per_request":    {st.calls / n, "count"},
		"values.kept_frac":            {ratio(st.kept, st.ranked), "ratio"},
		"values.tied_frac":            {float64(tied) / n, "ratio"},
		"trace.divergences":           {float64(diverged), "count"},
		"execguide.inspect_us":        {median(st.inspect), "us"},
		"generalize.s":                {median(lt.generalize), "s"},
		"generalize.candidates":       {median(lt.candidates), "count"},
		"generalize.calls_per_reload": {float64(lt.poolBuilds) / float64(lt.reloads), "count"},
		"dialect.express_s":           {median(lt.express), "s"},
		"core.prepare_s":              {median(lt.prepare), "s"},
		"core.train_models_s":         {median(lt.trainModels), "s"},
		"core.use_models_s":           {median(lt.useModels), "s"},
		"core.swap_s":                 {median(lt.swap), "s"},
		"core.snapshot_bytes":         {median(lt.snapshotBytes), "B"},
		"checkpoint.write_s":          {median(lt.ckptWrite), "s"},
		"checkpoint.bytes":            {median(lt.ckptBytes), "B"},
		"go.allocs_per_request":       {float64(mallocs) / n, "count"},
		"go.bytes_per_request":        {float64(allocBytes) / n, "B"},
		"trace.coverage":              {ratio(float64(spanSum), float64(plainSum)), "ratio"},
		"trace.overhead_frac":         {median(overhead), "ratio"},
		"trace.replayed":              {n, "count"},
	}
	fmt.Printf("traced: %d requests replayed (%d translation-cache misses), %d reload(s); ranked lists match System.TranslateContext and top-1 matches the server (%d differ only as the program itself varies: tied values, exec-guide timeouts)\n",
		len(seq), misses, lt.reloads, diverged)
	return res, nil
}

// translate is one untraced System.TranslateContext, with its wall time
// and heap allocations.
func (tt *tracedSystem) translate(ctx context.Context, nl string) (replayed, error) {
	var r replayed
	var m0, m1 runtime.MemStats
	before := tt.sys.CacheStats().Translations.Misses
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	tr, err := tt.sys.TranslateContext(ctx, nl)
	r.d = time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, fmt.Errorf("replaying: %w", err)
	}
	r.tr = tr
	r.miss = tt.sys.CacheStats().Translations.Misses > before
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return r, nil
}

// spanStats accumulates the traced per-request layer costs.
type spanStats struct {
	encode, search, prep, score, filter, fill, inspect []float64
	candidates, calls, kept, ranked                    float64
}

// tracedAnswer is one request's traced replay.
type tracedAnswer struct {
	// pre is the ranked list after value post-processing, out the final
	// one after execution guidance (the same list when it is off).
	pre, out []core.Candidate
	verdicts []execguide.Verdict
	// leaf is the summed time of the layer spans.
	leaf time.Duration
}

// traceRequest replays one question through the layers' public
// functions in the order TranslateContext calls them, recording a span
// around each call into trc and st. With a nil trc it records nothing:
// the same replay untraced, against which the tracing overhead is
// measured.
func (tt *tracedSystem) traceRequest(ctx context.Context, trc *tracer, i int, nl string, st *spanStats) (tracedAnswer, error) {
	var ta tracedAnswer
	p := tt.pipe
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	step := func(name string, dst *[]float64, fn func()) {
		if trc == nil {
			fn()
			return
		}
		t0 := time.Now()
		fn()
		d := trc.record(i, name, "request", t0, time.Now())
		ta.leaf += d
		*dst = append(*dst, us(d))
	}
	start := time.Now()
	var qvec vector.Vec
	step("embed.encode", &st.encode, func() { qvec = p.Encoder.Encode(nl) })
	var hits []vindex.Hit
	var err error
	step("vindex.search", &st.search, func() { hits, err = p.RetrieveVecContext(ctx, qvec, p.K) })
	if err != nil {
		return ta, err
	}
	dialects := make([]string, len(hits))
	dialVecs := make([]vector.Vec, len(hits))
	costs := make([]float64, len(hits))
	for j, h := range hits {
		dialects[j], dialVecs[j], costs[j] = p.Pool[h.ID].Dialect, p.DialVecs[h.ID], p.Costs[h.ID]
	}
	var pr *rerank.Prep
	step("rerank.prep", &st.prep, func() { pr = p.Reranker.X.PrepareVec(nl, qvec) })
	var order []int
	var scores []float64
	step("rerank.score", &st.score, func() {
		order, scores, err = p.Reranker.RankScoresPrepContext(ctx, pr, dialects, dialVecs, costs, p.Workers)
	})
	if err != nil {
		return ta, err
	}
	ranked := make([]ltr.Ranked, len(order))
	for j, idx := range order {
		c := p.Pool[hits[idx].ID]
		ranked[j] = ltr.Ranked{ID: hits[idx].ID, Score: scores[idx], Dialect: c.Dialect, SQL: c.SQL}
	}
	st.candidates += float64(len(hits))
	var keep []ltr.Ranked
	step("values.filter", &st.filter, func() {
		for _, r := range ranked {
			if tt.linker.DialectMentionsColumns(nl, r.Dialect) {
				keep = append(keep, r)
			}
		}
	})
	st.calls += float64(len(ranked) + len(keep))
	st.kept += float64(len(keep))
	st.ranked += float64(len(ranked))
	if len(keep) == 0 {
		keep = ranked
	}
	step("values.fill", &st.fill, func() {
		for _, r := range keep {
			ta.pre = append(ta.pre, core.Candidate{SQL: tt.linker.FillPlaceholders(r.SQL, nl), Dialect: r.Dialect, Score: r.Score})
		}
	})
	ta.out = ta.pre
	if tt.guide != nil && len(ta.pre) > 0 {
		step("execguide.inspect", &st.inspect, func() {
			queries := make([]*sqlast.Query, len(ta.pre))
			for j := range ta.pre {
				queries[j] = ta.pre[j].SQL
			}
			if ta.verdicts, err = tt.guide.Inspect(ctx, queries); err == nil {
				ta.out = make([]core.Candidate, 0, len(ta.pre))
				for _, idx := range execguide.Reorder(len(ta.pre), ta.verdicts) {
					ta.out = append(ta.out, ta.pre[idx])
				}
			}
		})
		if err != nil {
			return ta, err
		}
	}
	if trc != nil {
		trc.record(i, "request", "", start, time.Now())
	}
	return ta, nil
}

// checkReplay compares a traced replay with the system's translation of
// the same question on the same snapshot, and with the server's answer.
// Everything must match exactly — dialect, SQL text and bit-identical
// score at every rank, each execution verdict, the server's top-1 —
// except for two differences the program itself produces from call to
// call, which are reported as diverged instead of failing the run:
//
//   - the question holds two extracted values of equal length
//     (ambiguous): values.Linker.Extract orders such ties by map
//     iteration order, so their placeholders are filled differently
//     and, under execution guidance, candidates may rank differently.
//     The lists before execution guidance must still agree up to which
//     value went where;
//   - execution guidance hit its wall-clock budget (a Timeout verdict
//     here, or on the server per its /healthz counter), so verdicts and
//     the final order may differ.
//
// In both cases the server's top-1 must still be one of the candidates
// execution guidance chose from.
func (tt *tracedSystem) checkReplay(nl string, sys *core.Translation, ta tracedAnswer, s sample, serverTimeouts bool) (ambiguous, diverged bool, err error) {
	if sys.Degraded {
		return false, false, fmt.Errorf("system answer degraded: %v", sys.Warnings)
	}
	vals := tt.linker.Extract(nl)
	extracted := map[string]bool{}
	lengths := map[int]bool{}
	for _, v := range vals {
		extracted[v.Text] = true
		if !v.IsNum {
			ambiguous = ambiguous || lengths[len(v.Text)]
			lengths[len(v.Text)] = true
		}
	}
	sysPre := sys.Ranked
	if ta.verdicts != nil {
		if sys.Verdicts == nil {
			return ambiguous, false, fmt.Errorf("system ran no execution guidance")
		}
		order := execguide.Reorder(len(sys.Ranked), sys.Verdicts)
		sysPre = make([]core.Candidate, len(sys.Ranked))
		for k, idx := range order {
			sysPre[idx] = sys.Ranked[k]
		}
	}
	if len(sysPre) != len(ta.pre) {
		return ambiguous, false, fmt.Errorf("traced %d candidates, system %d", len(ta.pre), len(sysPre))
	}
	for i := range ta.pre {
		a, b := ta.pre[i], sysPre[i]
		if a.Dialect != b.Dialect || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
			return ambiguous, false, fmt.Errorf("rank %d: traced %q (%v), system %q (%v)", i, a.Dialect, a.Score, b.Dialect, b.Score)
		}
		if a.SQL.String() == b.SQL.String() {
			continue
		}
		if !ambiguous || !valueOrderOnly(a.SQL, b.SQL, extracted) {
			return ambiguous, false, fmt.Errorf("rank %d: traced %q, system %q", i, a.SQL.String(), b.SQL.String())
		}
		diverged = true
	}
	if len(ta.verdicts) != len(sys.Verdicts) {
		return ambiguous, false, fmt.Errorf("traced %d verdicts, system %d", len(ta.verdicts), len(sys.Verdicts))
	}
	for i := range ta.verdicts {
		a, b := ta.verdicts[i], sys.Verdicts[i]
		if a.Index == b.Index && a.Outcome == b.Outcome && a.Rows == b.Rows {
			continue
		}
		if !diverged && !timedOut(ta.verdicts) && !timedOut(sys.Verdicts) {
			return ambiguous, false, fmt.Errorf("verdict %d: traced %v, system %v", i, a, b)
		}
		diverged = true
	}
	if s.err != nil || s.status != http.StatusOK || s.ans.sql == sys.Top.SQL.String() {
		return ambiguous, diverged, nil
	}
	served, err := parseBound(tt.db, s.ans.sql)
	if err == nil && (ambiguous || serverTimeouts && ta.verdicts != nil) {
		for _, c := range ta.pre[:max(1, len(ta.verdicts))] {
			if c.SQL.String() == s.ans.sql || valueOrderOnly(c.SQL, served, extracted) {
				return ambiguous, true, nil
			}
		}
	}
	return ambiguous, false, fmt.Errorf("top-1: system %q, server answered %q", sys.Top.SQL.String(), s.ans.sql)
}

func timedOut(verdicts []execguide.Verdict) bool {
	for _, v := range verdicts {
		if v.Outcome == execguide.Timeout {
			return true
		}
	}
	return false
}

// valueOrderOnly reports whether two filled candidates differ only in
// which values extracted from the question went to which placeholder.
// See checkReplay.
func valueOrderOnly(a, b *sqlast.Query, extracted map[string]bool) bool {
	a, b = a.Clone(), b.Clone()
	la, lb := literals(a), literals(b)
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if *la[i] == *lb[i] {
			continue
		}
		if la[i].Kind != lb[i].Kind || !extracted[la[i].Text] || !extracted[lb[i].Text] {
			return false
		}
		la[i].Text, lb[i].Text = "", ""
	}
	return a.String() == b.String()
}

// literals lists the literals of every WHERE and HAVING clause, the
// clauses value filling writes.
func literals(q *sqlast.Query) []*sqlast.Lit {
	var out []*sqlast.Lit
	sqlast.WalkQueries(q, func(sub *sqlast.Query) {
		if sub.Select == nil {
			return
		}
		for _, e := range []sqlast.Expr{sub.Select.Where, sub.Select.Having} {
			sqlast.WalkExprs(e, func(n sqlast.Expr) {
				if l, ok := n.(*sqlast.Lit); ok {
					out = append(out, l)
				}
			})
		}
	})
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hitRatio(hits, misses uint64) float64 { return ratio(float64(hits), float64(hits+misses)) }
