// Package core assembles the complete GAR system of the paper: the data
// preparation process (compositional generalization + dialect building),
// the two-stage learning-to-rank translation pipeline, the GAR-J join
// annotation mode, and the value post-processing step. It exposes the
// per-stage hooks the evaluation harness needs for error attribution
// (Table 9): data-preparation misses, retrieval misses and re-ranking
// misses.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/dialect"
	"repro/internal/embed"
	"repro/internal/engine"
	"repro/internal/execguide"
	"repro/internal/faults"
	"repro/internal/generalize"
	"repro/internal/ltr"
	"repro/internal/memgov"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rerank"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/text"
	"repro/internal/transcache"
	"repro/internal/values"
	"repro/internal/vector"
	"repro/internal/vindex"
)

// StageBudget caps each translation stage at a fraction of the time
// remaining until the request deadline when the stage starts, so one
// slow stage cannot eat the entire deadline and starve the stages (and
// fallbacks) behind it. A fraction outside (0,1) disables budgeting
// for that stage, and a context without a deadline is never budgeted.
// The zero value disables all budgeting.
type StageBudget struct {
	Retrieval   float64
	Rerank      float64
	Postprocess float64
	ExecGuide   float64
}

// Options configures a GAR system. The zero value gives the paper's
// defaults scaled down to laptop sizes.
type Options struct {
	// GeneralizeSize caps the generalized query set per database
	// (paper: 20,000). Default 2,000.
	GeneralizeSize int
	// RetrievalK is the first-stage threshold k (paper: 100).
	RetrievalK int
	// Seed drives every random choice in the system.
	Seed int64
	// JoinAnnotations enables GAR-J: the dialect builder uses the
	// database's join annotations.
	JoinAnnotations bool
	// NoDialect is the "w/o Dialect Builder" ablation: the ranking
	// models see raw SQL strings instead of dialect expressions.
	NoDialect bool
	// NoRerank is the "w/o Re-ranking Model" ablation: the retrieval
	// order is final.
	NoRerank bool
	// UseIVF selects the clustered vector index instead of the exact
	// flat index for first-stage retrieval.
	UseIVF bool
	// EncoderEpochs / RerankEpochs control training length.
	EncoderEpochs int
	RerankEpochs  int
	// RerankTrainK is the list length used to train the re-ranker
	// (paper: 100, batch-limited). Default: RetrievalK.
	RerankTrainK int
	// StageBudget derives per-stage deadlines from the request
	// deadline; see StageBudget. Zero disables.
	StageBudget StageBudget
	// Workers bounds the fan-out of parallel sections — pool encoding
	// at snapshot build, batched retrieval, and re-rank scoring.
	// 0 means one worker per CPU; 1 forces the sequential path.
	Workers int
	// CacheSize caps each translation-path cache (question embeddings,
	// full translations) in entries. Default 1024. See NoCache.
	CacheSize int
	// NoCache disables the translation-path caches entirely (the
	// benchmark's cold path, and a debugging escape hatch).
	NoCache bool
	// ExecGuide enables execution-guided reranking: after value
	// post-processing the top ExecTopK candidates are executed against
	// a deterministic seeded sample instance and candidates that error,
	// exceed ExecBudget, or return degenerate results are demoted (see
	// internal/execguide). Off by default.
	ExecGuide bool
	// ExecBudget caps one candidate's execution wall time under
	// ExecGuide (default 25ms).
	ExecBudget time.Duration
	// ExecTopK is how many of the best-ranked candidates ExecGuide
	// executes (default 8).
	ExecTopK int
	// MemBudget caps the bytes of retained state (candidate pool,
	// dialect embeddings and feature records, pool-build buffers) this
	// system may hold;
	// 0 means unbudgeted. The fleet overrides it per tenant through
	// SetResources.
	MemBudget int64
	// SpillDir is where streaming pool builds spill candidate records
	// once the RAM buffer budget trips. Empty disables spilling:
	// buffer pressure then truncates the pool instead (Degraded).
	SpillDir string
	// SpillBufferBytes caps the in-RAM record buffer of a streaming
	// pool build before it overflows to SpillDir. 0 derives a quarter
	// of the effective budget limit.
	SpillBufferBytes int64
}

func (o *Options) fill() {
	if o.GeneralizeSize <= 0 {
		o.GeneralizeSize = 2000
	}
	if o.RetrievalK <= 0 {
		o.RetrievalK = 100
	}
	if o.EncoderEpochs <= 0 {
		o.EncoderEpochs = 6
	}
	if o.RerankEpochs <= 0 {
		o.RerankEpochs = 8
	}
	if o.RerankTrainK <= 0 {
		o.RerankTrainK = o.RetrievalK
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.ExecBudget <= 0 {
		o.ExecBudget = 25 * time.Millisecond
	}
	if o.ExecTopK <= 0 {
		o.ExecTopK = 8
	}
}

// state is one immutable published snapshot of the system: the
// candidate pool, its lookup index, the deployed models and pipeline,
// the value linker and the fault injector — everything a translation
// reads. A state is never mutated after publication; mutators build a
// fresh one and publish it with a single atomic pointer swap, so a
// translation that loaded a state once sees a consistent
// {pool, index, models} triple for its whole lifetime.
type state struct {
	// gen is the pool generation, bumped by every Prepare/Swap that
	// replaces the candidate pool.
	gen      uint64
	pool     []ltr.Candidate
	poolIdx  *ltr.PoolIndex
	encoder  *embed.Encoder
	pipeline *ltr.Pipeline
	linker   *values.Linker
	// guide, when non-nil, is the execution-guided reranking stage's
	// seeded sample instance; rebuilt by SetContent so seeded rows draw
	// from the spec's value index.
	guide     *execguide.Guide
	prepStats generalize.Stats
	// info is the resource-governance record of the build that produced
	// this snapshot's pool: degradation flag and reason, spill gauges.
	info    buildInfo
	trained bool
	inj     *faults.Injector
}

// System is a GAR instance bound to one database.
//
// A System is safe for concurrent Translate/TranslateContext calls.
// State mutations (Prepare, Train, UseModels, Swap, SetContent) build
// a complete new snapshot off to the side and publish it with one
// atomic pointer swap: translations never block on a rebuild — they
// keep running against the snapshot they loaded — and never observe a
// half-updated system.
type System struct {
	DB   *schema.Database
	Opts Options

	// builder is immutable after New.
	builder *dialect.Builder

	// writeMu serializes mutators; readers never take it.
	writeMu sync.Mutex
	// samples and content feed the exec-guide's seeded sample instance
	// (literal harvesting and cell values); both are writeMu-guarded and
	// only read to rebuild the guide inside a mutation.
	samples []*sqlast.Query
	content *engine.Instance
	// state is the published snapshot; see the state type.
	state atomic.Pointer[state]
	// rerankBreaker, when set, circuit-breaks the re-ranking stage;
	// see SetRerankBreaker.
	rerankBreaker atomic.Pointer[breaker.Breaker]

	// publishHook, when set, runs after every snapshot publication; see
	// SetPublishHook.
	publishHook atomic.Pointer[func()]

	// Exec-guide counters, maintained lock-free by the translate path;
	// see ExecGuideStats.
	execExecuted atomic.Uint64
	execDemoted  atomic.Uint64
	execErrors   atomic.Uint64
	execTimeouts atomic.Uint64

	// resources carries the memory budget and spill directory every
	// pool build reads; installed by New from Options, overridden per
	// tenant by SetResources.
	resources atomic.Pointer[resources]
	// snapMem accounts the published snapshot's candidate-pool bytes
	// and vecMem its dialect embeddings and feature records, both
	// against the budget.
	// They are writeMu-guarded and replaced at each publication that
	// rebuilds the matching half (a model redeploy replaces only the
	// embeddings); snapBytes mirrors their sum for lock-free gauges.
	snapMem   *memgov.Reservation
	vecMem    *memgov.Reservation
	snapBytes atomic.Int64
	// memDegradedBuilds counts snapshot builds that finished degraded
	// under resource pressure; see MemStats.
	memDegradedBuilds atomic.Uint64

	// embedCache memoizes question embeddings and transCache whole
	// translation results, both keyed by (pool generation, NL question).
	// The generation key makes every Prepare/Swap an implicit flush: an
	// entry from an older snapshot can never be served after a hot
	// reload. Nil when Options.NoCache is set (a nil cache never hits).
	embedCache *transcache.Cache[vector.Vec]
	transCache *transcache.Cache[*Translation]
}

// New creates a GAR system for the database.
func New(db *schema.Database, opts Options) *System {
	opts.fill()
	s := &System{DB: db, Opts: opts}
	if opts.JoinAnnotations {
		s.builder = dialect.NewJ(db)
	} else {
		s.builder = dialect.New(db)
	}
	st := &state{linker: values.NewLinker(db, nil)}
	if opts.ExecGuide {
		st.guide = execguide.New(db, nil, execguide.Seeds{}, s.guideConfig())
	}
	s.state.Store(st)
	var budget *memgov.Budget
	if opts.MemBudget > 0 {
		budget = memgov.New("system", opts.MemBudget)
	}
	s.resources.Store(&resources{budget: budget, spillDir: opts.SpillDir, bufBytes: opts.SpillBufferBytes})
	if !opts.NoCache {
		s.embedCache = transcache.New[vector.Vec](s.Opts.CacheSize)
		s.transCache = transcache.New[*Translation](s.Opts.CacheSize)
		s.governCaches(budget)
	}
	return s
}

// CacheStats reports the hit/miss/size counters of the translation-path
// caches; all-zero when caching is disabled.
type CacheStats struct {
	Embeddings   transcache.Stats `json:"embeddings"`
	Translations transcache.Stats `json:"translations"`
}

// CacheStats returns a point-in-time snapshot of the cache counters.
func (s *System) CacheStats() CacheStats {
	return CacheStats{
		Embeddings:   s.embedCache.Stats(),
		Translations: s.transCache.Stats(),
	}
}

// purgeCaches drops every cached embedding and translation. Mutators
// whose changes are not visible in the pool generation (a new linker, a
// model redeploy on the same pool) call it so a stale result can never
// outlive the state that produced it.
func (s *System) purgeCaches() {
	s.embedCache.Purge()
	s.transCache.Purge()
}

// guideConfig maps the exec-guide options onto the guide's tunables.
func (s *System) guideConfig() execguide.Config {
	return execguide.Config{TopK: s.Opts.ExecTopK, Budget: s.Opts.ExecBudget}
}

// buildGuide reseeds the exec-guide sample instance from the current
// content and sample queries: content donates realistic cell values,
// the samples donate the literal filter values candidates are likely to
// carry after value post-processing. Callers must hold writeMu (samples
// and content are writeMu-guarded); the build itself is a few dozen
// row inserts and stays cheap enough to run inside the mutation.
func (s *System) buildGuide() *execguide.Guide {
	if !s.Opts.ExecGuide {
		return nil
	}
	return execguide.New(s.DB, s.content, execguide.HarvestSeeds(s.DB, s.samples), s.guideConfig())
}

// SetContent attaches a populated instance used for value linking in the
// post-processing step (cell-value → column hints). Under ExecGuide the
// execution guide's sample instance is reseeded from the same content,
// so executed candidates see realistic cell values.
func (s *System) SetContent(content *engine.Instance) {
	// The linker rebuild is the expensive part and only reads the
	// content; run it outside the snapshot mutation.
	linker := values.NewLinker(s.DB, content)
	s.mutate(func(st *state) {
		st.linker = linker
		s.content = content
		if guide := s.buildGuide(); guide != nil {
			st.guide = guide
		}
	})
}

// SetFaultInjector installs a fault injector fired at every stage
// boundary of TranslateContext. Pass nil to disable. Intended for the
// fault-injection test harness and resilience soak runs.
func (s *System) SetFaultInjector(inj *faults.Injector) {
	s.mutate(func(st *state) {
		st.inj = inj
	})
}

// SetRerankBreaker installs a circuit breaker guarding the re-ranking
// stage: when the breaker refuses a call, the stage is skipped outright
// and the translation degrades to retrieval order without paying the
// failure cost. Stage outcomes (success, error, timeout) are reported
// to the breaker; client cancellations are forgiven. Pass nil to
// disable.
func (s *System) SetRerankBreaker(b *breaker.Breaker) {
	s.rerankBreaker.Store(b)
}

// SetPublishHook registers fn to run after every snapshot publication
// (Prepare, UseModels, Swap, SetContent, RestoreCheckpoint, …). The
// hook runs on the mutator's goroutine with the write lock held, so it
// must be fast, must not block, and must not call back into System
// mutators — a non-blocking channel send is the intended shape. At most
// one hook is installed; pass nil to remove it. The background
// checkpointer uses this as its dirty signal.
func (s *System) SetPublishHook(fn func()) {
	if fn == nil {
		s.publishHook.Store(nil)
		return
	}
	s.publishHook.Store(&fn)
}

// publish is the single publication point of a new snapshot: the atomic
// store makes it visible to readers, then the publish hook (if any) is
// signalled. Callers hold writeMu.
func (s *System) publish(next *state) {
	s.state.Store(next)
	if fn := s.publishHook.Load(); fn != nil {
		(*fn)()
	}
}

// mutate publishes a new snapshot derived from the current one: fn
// edits a shallow copy, and the single atomic store is the publication
// point.
func (s *System) mutate(fn func(st *state)) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	next := *s.state.Load()
	fn(&next)
	s.publish(&next)
	// Whatever changed (linker, injector, pool), results computed
	// against the old state must not be served against the new one.
	s.purgeCaches()
}

// Prepare runs the offline data preparation process (Fig. 2 steps 1-2):
// generalizes the sample queries and renders each generalized query as a
// dialect expression, building the candidate pool. The new pool starts
// a new generation and un-deploys any trained pipeline (it indexes the
// old pool); use Swap to replace pool and models in one step with no
// untrained window.
func (s *System) Prepare(samples []*sqlast.Query) {
	// Generalization is the expensive part; with copy-on-write
	// snapshots it runs off to the side and in-flight translations keep
	// serving the old snapshot untouched.
	build := s.buildPoolGoverned(samples)
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	next := *s.state.Load()
	next.gen++
	next.prepStats = build.stats
	next.pool = build.pool
	next.poolIdx = build.idx
	next.info = build.info
	next.encoder = nil
	next.pipeline = nil
	next.trained = false
	s.samples = samples
	if guide := s.buildGuide(); guide != nil {
		next.guide = guide
	}
	s.adoptSnapMem(build.mem, nil)
	s.publish(&next)
	s.purgeCaches()
}

// expression renders a candidate for ranking: a dialect expression, or
// the raw SQL string under the w/o-Dialect-Builder ablation.
func (s *System) expression(q *sqlast.Query) string {
	if s.Opts.NoDialect {
		return q.String()
	}
	return s.builder.Express(q)
}

// PrepStats reports the generalization statistics of the last Prepare.
func (s *System) PrepStats() generalize.Stats {
	return s.state.Load().prepStats
}

// PoolSize returns the candidate pool size.
func (s *System) PoolSize() int {
	return len(s.state.Load().pool)
}

// Generation reports the current pool generation: 0 before the first
// Prepare, bumped by every Prepare or Swap. Translation results record
// the generation they were served from.
func (s *System) Generation() uint64 {
	return s.state.Load().gen
}

// Ready reports whether a translatable snapshot is published: a
// prepared pool with deployed models. False during the window between
// process start (or a Prepare) and the completing UseModels/Train/Swap.
func (s *System) Ready() bool {
	return s.state.Load().trained
}

// snapshot returns the current pool and its index. The returned slice
// is never mutated after publication (mutators swap in a fresh one),
// so callers may use it lock-free.
func (s *System) snapshot() ([]ltr.Candidate, *ltr.PoolIndex) {
	st := s.state.Load()
	return st.pool, st.poolIdx
}

// PoolDialects returns the dialect rendering of every candidate in the
// current pool snapshot, in pool order. Generalization is seeded, so a
// given sample set always produces the same dialect set — which lets
// tests map a Translation.Generation back to the pool that served it.
func (s *System) PoolDialects() []string {
	pool, _ := s.snapshot()
	out := make([]string, len(pool))
	for i, c := range pool {
		out[i] = c.Dialect
	}
	return out
}

// HasCandidate reports whether the pool contains a query exact-matching
// gold; false means a data-preparation miss.
func (s *System) HasCandidate(gold *sqlast.Query) bool {
	_, idx := s.snapshot()
	return idx != nil && idx.Find(s.BindGold(gold)) >= 0
}

// BindGold resolves a benchmark gold query against this database so its
// canonical form is comparable with the (bound) candidate pool. The
// original query is not modified; an unbindable query is returned as-is.
func (s *System) BindGold(q *sqlast.Query) *sqlast.Query {
	if q == nil {
		return nil
	}
	c := q.Clone()
	if err := s.DB.Bind(c); err != nil {
		return q
	}
	return c
}

// bindExamples rebinds every example's gold query against this database.
func (s *System) bindExamples(examples []ltr.Example) []ltr.Example {
	out := make([]ltr.Example, len(examples))
	for i, ex := range examples {
		out[i] = ltr.Example{NL: ex.NL, Gold: s.BindGold(ex.Gold)}
	}
	return out
}

// Models holds the trained cross-database ranking models: the paper
// fine-tunes one retrieval encoder and one re-ranker per benchmark on
// the train-split databases and applies them to the unseen validation
// databases.
type Models struct {
	Encoder  *embed.Encoder
	Reranker *rerank.Model // nil under the w/o-Re-ranking ablation
}

// TrainingSet couples a prepared per-database System with its (NL, gold)
// training examples.
type TrainingSet struct {
	Sys      *System
	Examples []ltr.Example
}

// TrainModels fits the two-stage ranking models on the training sets,
// following the paper's training phase (Fig. 3): triplets for the
// retrieval encoder over each database's candidate pool, then top-k
// listwise groups for the re-ranker. Every set's System must be
// Prepared.
func TrainModels(sets []TrainingSet, opts Options) (*Models, error) {
	opts.fill()
	// Snapshot each system's pool once up front: training then proceeds
	// lock-free even if a concurrent Prepare swaps a pool underneath.
	pools := make([][]ltr.Candidate, len(sets))
	poolIdxs := make([]*ltr.PoolIndex, len(sets))
	var corpus []string
	for i, set := range sets {
		pools[i], poolIdxs[i] = set.Sys.snapshot()
		if len(pools[i]) == 0 {
			return nil, fmt.Errorf("core: TrainModels with unprepared system for %s", set.Sys.DB.Name)
		}
		sets[i].Examples = set.Sys.bindExamples(set.Examples)
		for _, c := range pools[i] {
			corpus = append(corpus, c.Dialect)
		}
		for _, ex := range sets[i].Examples {
			corpus = append(corpus, ex.NL)
		}
	}

	// Retrieval model.
	encoder := embed.NewEncoder(embed.Config{Seed: opts.Seed})
	encoder.FitIDF(corpus)
	var triplets []embed.Triplet
	for i, set := range sets {
		triplets = append(triplets,
			ltr.BuildTriplets(set.Examples, pools[i], poolIdxs[i], 4, opts.Seed+int64(i)+1)...)
	}
	encoder.Train(triplets, embed.TrainConfig{Epochs: opts.EncoderEpochs})

	m := &Models{Encoder: encoder}
	if opts.NoRerank {
		return m, nil
	}

	// Re-ranking model over per-database retrieval top-k lists.
	x := &rerank.Extractor{IDF: text.NewIDF(corpus), Encoder: encoder}
	model, err := rerank.New(x, opts.Seed+3)
	if err != nil {
		return nil, err
	}
	var lists []rerank.TrainingList
	for i := range sets {
		// The training pipeline carries no records: BuildLists builds
		// only those of the candidates its lists score.
		vecs := encodePool(pools[i], encoder, opts)
		pipe := &ltr.Pipeline{
			Encoder:  encoder,
			Index:    indexFromVecs(vecs, opts),
			Pool:     pools[i],
			PoolIdx:  poolIdxs[i],
			K:        opts.RetrievalK,
			DialVecs: vecs,
			Costs:    poolCosts(pools[i]),
			Workers:  opts.Workers,
		}
		lists = append(lists, pipe.BuildLists(sets[i].Examples, opts.RerankTrainK)...)
	}
	model.Train(lists, nn.TrainConfig{Epochs: opts.RerankEpochs, Seed: opts.Seed + 4})
	m.Reranker = model
	return m, nil
}

// encodePool embeds every candidate's dialect, fanned across
// opts.Workers; the vectors are aligned with pool.
//
//garlint:allow ctxpass errlost -- pool build: no caller context to thread, and the ForEach body never returns an error
func encodePool(pool []ltr.Candidate, encoder *embed.Encoder, opts Options) []vector.Vec {
	vecs := make([]vector.Vec, len(pool))
	_ = parallel.ForEach(context.Background(), len(pool), opts.Workers, func(i int) error {
		vecs[i] = encoder.Encode(pool[i].Dialect)
		return nil
	})
	return vecs
}

// indexFromVecs assembles (and, for IVF, eagerly builds) a vector index
// over already-computed embeddings. It is the shared tail of a fresh
// snapshot build and a checkpoint restore — a warm start feeds the
// persisted vectors straight in and never re-encodes the pool.
func indexFromVecs(vecs []vector.Vec, opts Options) vindex.Index {
	var index vindex.Index
	if opts.UseIVF {
		nlist := len(vecs) / 64
		if nlist < 4 {
			nlist = 4
		}
		index = vindex.NewIVF(nlist, nlist/4+1, opts.Seed+2)
	} else {
		flat := vindex.NewFlat()
		flat.Grow(len(vecs))
		index = flat
	}
	for i := range vecs {
		index.Add(i, vecs[i])
	}
	// Train the coarse quantizer eagerly so the first online query does
	// not pay (or race on) the k-means build.
	if iv, ok := index.(*vindex.IVF); ok {
		iv.Build()
	}
	return index
}

// poolCosts computes the static estimated-cost feature of every pool
// candidate (see execguide.CostFeature); the re-ranker reads it as an
// input feature, so every pipeline this package builds carries it.
func poolCosts(pool []ltr.Candidate) []float64 {
	out := make([]float64, len(pool))
	for i, c := range pool {
		out[i] = execguide.CostFeature(c.SQL)
	}
	return out
}

// UseModels deploys pre-trained models on this (prepared) system:
// the candidate pool is embedded and indexed with the trained encoder
// and the pipeline is assembled. This is how a system for an unseen
// validation database comes online.
func (s *System) UseModels(m *Models) error {
	// The write lock is held across the (slow) index build so the pool
	// cannot be swapped between reading it and publishing the pipeline
	// built over it; translations are unaffected — they read the old
	// snapshot lock-free until the new one is published.
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	cur := s.state.Load()
	if len(cur.pool) == 0 {
		return fmt.Errorf("core: UseModels before Prepare (empty candidate pool)")
	}
	// The embeddings get their own account against the budget; the pool
	// keeps the reservation Prepare adopted (shrunk on truncation).
	pipeline, pool, poolIdx, vecMem, truncated, err := newPipelineGoverned(
		cur.pool, cur.poolIdx, m, s.Opts, s.resources.Load().budget, s.snapMem)
	if err != nil {
		return err
	}
	next := *cur
	next.pool = pool
	next.poolIdx = poolIdx
	next.encoder = m.Encoder
	next.pipeline = pipeline
	next.trained = true
	if truncated {
		next.info.degrade(fmt.Sprintf("snapshot truncated to %d of %d candidates under memory budget",
			len(pool), len(cur.pool)))
		s.memDegradedBuilds.Add(1)
	}
	s.adoptSnapMem(s.snapMem, vecMem)
	s.publish(&next)
	// Same pool generation, new models: flush explicitly.
	s.purgeCaches()
	return nil
}

// Swap builds a complete new snapshot — candidate pool, dialect
// expressions, vector index and deployed models — entirely off to the
// side and publishes it with one atomic pointer swap. Unlike the
// Prepare+UseModels sequence there is no intermediate untrained
// window: translations serve the old snapshot until the instant the
// new one is complete, which is what makes zero-downtime hot reload
// possible. It returns the new pool generation.
func (s *System) Swap(samples []*sqlast.Query, m *Models) (uint64, error) {
	if m == nil || m.Encoder == nil {
		return 0, fmt.Errorf("core: Swap without models")
	}
	build := s.buildPoolGoverned(samples)
	if len(build.pool) == 0 {
		build.mem.Release()
		return 0, fmt.Errorf("core: Swap produced an empty candidate pool for %s", s.DB.Name)
	}
	pipeline, pool, idx, vecMem, truncated, err := newPipelineGoverned(
		build.pool, build.idx, m, s.Opts, s.resources.Load().budget, build.mem)
	if err != nil {
		build.mem.Release()
		return 0, err
	}
	if truncated {
		build.info.degrade(fmt.Sprintf("snapshot truncated to %d of %d candidates under memory budget",
			len(pool), len(build.pool)))
		s.memDegradedBuilds.Add(1)
	}

	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	next := *s.state.Load()
	next.gen++
	next.pool = pool
	next.poolIdx = idx
	next.prepStats = build.stats
	next.info = build.info
	next.encoder = m.Encoder
	next.pipeline = pipeline
	next.trained = true
	s.samples = samples
	if guide := s.buildGuide(); guide != nil {
		next.guide = guide
	}
	s.adoptSnapMem(build.mem, vecMem)
	s.publish(&next)
	// The generation bump already invalidates every cached entry; the
	// purge just releases their memory eagerly.
	s.purgeCaches()
	return next.gen, nil
}

// Train is the single-database convenience path (used for GEO, whose
// train and test sets share one database): it trains models on this
// system's own pool and examples, then deploys them.
func (s *System) Train(examples []ltr.Example) error {
	m, err := TrainModels([]TrainingSet{{Sys: s, Examples: examples}}, s.Opts)
	if err != nil {
		return err
	}
	return s.UseModels(m)
}

// Candidate is one ranked translation result after value post-processing.
type Candidate struct {
	SQL     *sqlast.Query
	Dialect string
	Score   float64
}

// Translation is the output of Translate.
type Translation struct {
	// Top is the best candidate (nil when the pool is empty).
	Top *Candidate
	// Ranked is the post-processed top-k list, best first.
	Ranked []Candidate
	// Generation is the pool generation of the snapshot that served
	// this translation; every candidate comes from that one snapshot.
	Generation uint64
	// Degraded reports that a non-fatal stage (re-ranking, value
	// post-processing or execution guidance) failed and a documented
	// fallback was used; the result is still usable but of reduced
	// quality.
	Degraded bool
	// Warnings describes each degradation that occurred.
	Warnings []string
	// Verdicts is the execution evidence of the exec-guide stage, one
	// entry per executed candidate indexed into the PRE-reorder ranked
	// list; nil when Options.ExecGuide is off or the stage degraded.
	Verdicts []execguide.Verdict
}

// Translate runs the full online pipeline on an NL query: two-stage
// ranking followed by value post-processing (candidate filtering by
// value-implied columns, then placeholder instantiation).
//
//garlint:allow ctxpass -- compatibility wrapper over TranslateContext
func (s *System) Translate(nl string) (*Translation, error) {
	return s.TranslateContext(context.Background(), nl)
}

// stageCtx derives a stage sub-context capped at frac of the time
// remaining before the parent deadline. With no deadline or a disabled
// fraction, the parent context is returned with a no-op cancel.
func stageCtx(ctx context.Context, frac float64) (context.Context, context.CancelFunc) {
	if frac <= 0 || frac >= 1 {
		return ctx, func() {}
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(float64(rem)*frac))
}

// TranslateContext is Translate with cancellation and stage-level fault
// isolation. Each stage runs inside a recover boundary, so a panic in a
// ranking stage surfaces as a *StageError instead of crashing the
// process, and the pipeline degrades gracefully:
//
//   - retrieval failure (or cancellation before/while retrieving) is
//     fatal: there is nothing to fall back to;
//   - re-ranking failure or timeout falls back to the retrieval-order
//     candidates, flagged Degraded; an installed rerank breaker
//     (SetRerankBreaker) that is open skips the stage outright with
//     the same fallback;
//   - value post-processing failure falls back to the ranked candidates
//     with placeholders left masked, flagged Degraded.
//
// When Options.StageBudget is set and the context has a deadline, each
// stage additionally runs under its own slice of the remaining
// deadline, so a pathologically slow stage degrades early instead of
// starving the stages behind it.
//
// TranslateContext is safe to call concurrently, loads the published
// snapshot exactly once, and therefore always sees one consistent
// {pool, index, models} generation even while Prepare/Swap rebuilds
// run concurrently.
func (s *System) TranslateContext(ctx context.Context, nl string) (*Translation, error) {
	st := s.state.Load()
	if !st.trained {
		return nil, fmt.Errorf("core: Translate before Train")
	}
	pipeline, linker, inj := st.pipeline, st.linker, st.inj

	// With a fault injector installed the caches step aside entirely:
	// the harness is probing the live stage boundaries, and a cached
	// answer would mask the injected fault. A context that is already
	// done also bypasses the cache, so cancellation fails with the same
	// stage attribution whether or not the answer happens to be cached.
	useCache := inj == nil && ctx.Err() == nil
	if useCache {
		if cached, ok := s.transCache.Get(st.gen, nl); ok {
			return copyTranslation(cached), nil
		}
	}

	// Stage 1: first-stage retrieval over the candidate pool. Fatal on
	// any failure — every later stage only refines this answer. The
	// question embedding is computed at most once per (generation, NL)
	// pair: a cache hit feeds both retrieval and the re-ranker's
	// similarity feature.
	var qvec vector.Vec
	if useCache {
		qvec, _ = s.embedCache.Get(st.gen, nl)
	}
	var hits []vindex.Hit
	rctx, rcancel := stageCtx(ctx, s.Opts.StageBudget.Retrieval)
	err := runStage(rctx, StageRetrieval, func() error {
		if ferr := inj.Fire(rctx, faults.Retrieval); ferr != nil {
			return ferr
		}
		if qvec == nil {
			qvec = pipeline.Encoder.Encode(nl)
			if useCache {
				s.embedCache.Put(st.gen, nl, qvec)
			}
		}
		var rerr error
		hits, rerr = pipeline.RetrieveVecContext(rctx, qvec, pipeline.K)
		return rerr
	})
	rcancel()
	if err != nil {
		return nil, err
	}

	out := &Translation{Generation: st.gen}
	degrade := func(stage string, err error) {
		out.Degraded = true
		out.Warnings = append(out.Warnings, fmt.Sprintf("%s stage degraded: %v", stage, err))
	}

	// Stage 2: re-ranking. On failure the retrieval order stands. An
	// open circuit breaker skips the stage without paying the failure
	// cost per request.
	var ranked []ltr.Ranked
	br := s.rerankBreaker.Load()
	if br != nil && !br.Allow() {
		ranked = pipeline.FromHits(hits)
		degrade(StageRerank, breaker.ErrOpen)
	} else {
		kctx, kcancel := stageCtx(ctx, s.Opts.StageBudget.Rerank)
		err = runStage(kctx, StageRerank, func() error {
			if ferr := inj.Fire(kctx, faults.Rerank); ferr != nil {
				return ferr
			}
			var rerr error
			ranked, rerr = pipeline.RerankVecContext(kctx, nl, qvec, hits)
			return rerr
		})
		kcancel()
		if br != nil {
			// A client cancellation says nothing about the re-ranker;
			// everything else (errors, panics, timeouts) counts.
			if errors.Is(err, context.Canceled) {
				br.Forgive()
			} else {
				br.Record(err == nil)
			}
		}
		if err != nil {
			ranked = pipeline.FromHits(hits)
			degrade(StageRerank, err)
		}
	}

	// Stage 3: value post-processing (filter by value-implied columns,
	// then instantiate placeholders). On failure the ranked SQL is
	// returned as-is, placeholders still masked.
	var processed []Candidate
	pctx, pcancel := stageCtx(ctx, s.Opts.StageBudget.Postprocess)
	err = runStage(pctx, StagePostprocess, func() error {
		if ferr := inj.Fire(pctx, faults.Postprocess); ferr != nil {
			return ferr
		}
		// The question's literal values are extracted once and shared
		// by every candidate's filter and fill.
		vals := linker.Extract(nl)
		// Post-processing 1: drop candidates whose dialect lacks a
		// column implied by a literal value in the NL query. If every
		// candidate would be dropped, keep the original ranking.
		filtered := make([]ltr.Ranked, 0, len(ranked))
		for _, r := range ranked {
			if s.Opts.NoDialect || linker.MentionsColumns(vals, r.Dialect) {
				filtered = append(filtered, r)
			}
		}
		if len(filtered) == 0 {
			filtered = ranked
		}
		for _, r := range filtered {
			if cerr := pctx.Err(); cerr != nil {
				return cerr
			}
			// Post-processing 2: instantiate placeholders from the NL.
			sql := linker.Fill(r.SQL, vals)
			processed = append(processed, Candidate{SQL: sql, Dialect: r.Dialect, Score: r.Score})
		}
		return nil
	})
	pcancel()
	if err != nil {
		processed = processed[:0]
		for _, r := range ranked {
			processed = append(processed, Candidate{SQL: r.SQL, Dialect: r.Dialect, Score: r.Score})
		}
		degrade(StagePostprocess, err)
	}

	// Stage 4: execution-guided reranking (off by default). The top
	// ExecTopK candidates run against the seeded sample instance and
	// candidates with execution evidence against them are demoted; on
	// any stage failure the pre-execution LTR order stands.
	if s.Opts.ExecGuide && st.guide != nil && len(processed) > 0 {
		var verdicts []execguide.Verdict
		ectx, ecancel := stageCtx(ctx, s.Opts.StageBudget.ExecGuide)
		err = runStage(ectx, StageExecGuide, func() error {
			if ferr := inj.Fire(ectx, faults.ExecGuide); ferr != nil {
				return ferr
			}
			queries := make([]*sqlast.Query, len(processed))
			for i := range processed {
				queries[i] = processed[i].SQL
			}
			var gerr error
			verdicts, gerr = st.guide.Inspect(ectx, queries)
			return gerr
		})
		ecancel()
		if err != nil {
			degrade(StageExecGuide, err)
		} else {
			order := execguide.Reorder(len(processed), verdicts)
			reordered := make([]Candidate, 0, len(processed))
			for _, idx := range order {
				reordered = append(reordered, processed[idx])
			}
			processed = reordered
			out.Verdicts = verdicts
			s.execExecuted.Add(uint64(len(verdicts)))
			for _, v := range verdicts {
				switch {
				case v.Outcome == execguide.Timeout:
					s.execTimeouts.Add(1)
					s.execDemoted.Add(1)
				case v.Outcome == execguide.Error:
					s.execErrors.Add(1)
					s.execDemoted.Add(1)
				case v.Outcome.DemotionClass() > 0:
					s.execDemoted.Add(1)
				}
			}
		}
	}

	out.Ranked = processed
	if len(out.Ranked) > 0 {
		out.Top = &out.Ranked[0]
	}
	// Only clean, fully-processed results are cached: a degraded answer
	// must not outlive the transient failure that produced it.
	if useCache && !out.Degraded {
		s.transCache.Put(st.gen, nl, copyTranslation(out))
	}
	return out, nil
}

// copyTranslation returns a Translation whose slices are private to the
// caller, so the cache's copy and the served copy cannot alias through
// Ranked/Warnings. The Candidates themselves are shared read-only —
// their SQL was already cloned by placeholder filling.
func copyTranslation(t *Translation) *Translation {
	cp := *t
	cp.Ranked = append([]Candidate(nil), t.Ranked...)
	cp.Warnings = append([]string(nil), t.Warnings...)
	cp.Verdicts = append([]execguide.Verdict(nil), t.Verdicts...)
	if len(cp.Ranked) > 0 {
		cp.Top = &cp.Ranked[0]
	}
	return &cp
}

// ExecGuideStats is a point-in-time snapshot of the exec-guide stage's
// counters, all zero while Options.ExecGuide is off.
type ExecGuideStats struct {
	// Executed counts candidates run against the sample instance.
	Executed uint64 `json:"executed"`
	// Demoted counts candidates demoted on execution evidence
	// (errors, timeouts and degenerate results).
	Demoted uint64 `json:"demoted"`
	// Errors and Timeouts break the hard demotions down.
	Errors   uint64 `json:"errors"`
	Timeouts uint64 `json:"timeouts"`
}

// ExecGuideStats reports the exec-guide counters.
func (s *System) ExecGuideStats() ExecGuideStats {
	return ExecGuideStats{
		Executed: s.execExecuted.Load(),
		Demoted:  s.execDemoted.Load(),
		Errors:   s.execErrors.Load(),
		Timeouts: s.execTimeouts.Load(),
	}
}

// RetrievalContains reports whether the gold query appears in the
// first-stage top-k for the NL query; used for Table 9 error
// attribution. It returns false when the gold is not even in the pool.
func (s *System) RetrievalContains(nl string, gold *sqlast.Query, k int) bool {
	st := s.state.Load()
	if !st.trained {
		return false
	}
	goldIdx := st.poolIdx.Find(s.BindGold(gold))
	if goldIdx < 0 {
		return false
	}
	for _, h := range st.pipeline.Retrieve(nl, k) {
		if h.ID == goldIdx {
			return true
		}
	}
	return false
}

// Pool exposes the candidate pool (read-only use).
func (s *System) Pool() []ltr.Candidate {
	pool, _ := s.snapshot()
	return pool
}

// Builder exposes the dialect builder (used by examples and the eval
// harness to show expressions).
func (s *System) Builder() *dialect.Builder { return s.builder }
