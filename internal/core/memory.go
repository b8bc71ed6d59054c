package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/embed"
	"repro/internal/faults"
	"repro/internal/generalize"
	"repro/internal/ltr"
	"repro/internal/memgov"
	"repro/internal/parallel"
	"repro/internal/rerank"
	"repro/internal/schema"
	"repro/internal/spill"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/vector"
)

// This file is the resource-governance layer of pool construction and
// serving: every byte a published snapshot retains (candidate pool,
// dialect embeddings and feature records) is accounted against a memgov budget, pool
// construction streams candidates through a bounded RAM buffer that
// overflows into crash-safe spill runs (internal/spill), and every
// pressure or spill-disk failure degrades — truncated pool, Degraded
// flag, healthz counters — instead of OOM-killing or panicking.
//
// The degradation ladder, mildest first:
//
//  1. RAM buffer budget trips → records move to disk (no quality loss;
//     replay is byte-identical to the in-RAM order).
//  2. Frontier or snapshot budget trips → the pool is truncated at the
//     denial point and the build is flagged Degraded.
//  3. Spill disk fails (write, sync, rename, read) → whatever is still
//     in RAM or readable becomes the pool, truncated and Degraded.

// resources carries the budget and spill directory a build reads.
// They live behind one atomic pointer because builds run outside
// writeMu (Prepare and Swap construct off to the side) while the fleet
// installs per-tenant budgets after New.
type resources struct {
	budget   *memgov.Budget
	spillDir string
	bufBytes int64 // RAM record-buffer cap before spilling; 0 derives from the budget
}

// SetResources installs the memory budget and spill directory used by
// every subsequent pool build, overriding the Options the system was
// created with. The fleet calls it right after constructing a tenant's
// system, before any Prepare/Swap/Restore can run.
func (s *System) SetResources(budget *memgov.Budget, spillDir string) {
	cur := s.resources.Load()
	bufBytes := int64(0)
	if cur != nil {
		bufBytes = cur.bufBytes
	}
	s.resources.Store(&resources{budget: budget, spillDir: spillDir, bufBytes: bufBytes})
	s.governCaches(budget)
}

// governCaches points the translation-path caches' byte accounting at
// budget, so cached embeddings and translations share the same account
// as the snapshot they were computed from.
func (s *System) governCaches(budget *memgov.Budget) {
	s.embedCache.Govern(budget, vecBytes)
	s.transCache.Govern(budget, translationBytes)
}

// translationBytes estimates the retained size of a cached translation:
// each ranked candidate's dialect string plus its (heavier) SQL AST,
// the warnings, and the execution verdicts.
func translationBytes(t *Translation) int64 {
	n := int64(256)
	for i := range t.Ranked {
		n += int64(len(t.Ranked[i].Dialect))*9 + 128
	}
	for _, w := range t.Warnings {
		n += int64(len(w))
	}
	return n + int64(len(t.Verdicts))*64
}

// spillRunBytes rotates a spill run once it grows past this size, so
// replay merges several bounded runs instead of scanning one unbounded
// file. Variable (not const) so tests can force multi-run merges with
// small pools.
var spillRunBytes int64 = 4 << 20

// Size estimators. memgov is an accountant, not an allocator: these
// deterministic estimates (derived only from string lengths, so a
// spilled and an in-RAM build account identically) stand in for the
// retained heap bytes of each structure.

// recBytes estimates one buffered (sql, dialect) record.
func recBytes(r poolRec) int64 { return int64(len(r.sql)+len(r.dialect)) + 64 }

// candBytes estimates one materialized pool candidate: the parsed AST
// weighs roughly an order of magnitude more than its printed form.
func candBytes(r poolRec) int64 { return int64(len(r.sql)+len(r.dialect))*8 + 256 }

// vecBytes estimates one dialect embedding: 8 B per float32 covers the
// embedding (4 B) plus its copy in the vector index's blocked store
// (4 B, see vindex), and 48 B the slice header and allocation slack.
// The question-embedding cache charges its entries the same way, which
// over-counts them by the index copy they do not have.
func vecBytes(v vector.Vec) int64 { return int64(len(v))*8 + 48 }

// buildInfo is the degradation record of one pool build, published
// with the snapshot and surfaced through MemStats / healthz.
type buildInfo struct {
	Degraded      bool
	DegradeReason string
	SpillFiles    int
	SpillFrames   int
	SpillBytes    int64
}

func (bi *buildInfo) degrade(reason string) {
	bi.Degraded = true
	if bi.DegradeReason == "" {
		bi.DegradeReason = reason
	}
}

// poolBuild is the outcome of one streaming pool construction.
type poolBuild struct {
	pool  []ltr.Candidate
	idx   *ltr.PoolIndex
	stats generalize.Stats
	info  buildInfo
	// mem accounts the materialized pool (and later its embeddings)
	// against the tenant budget; the snapshot that publishes this pool
	// adopts it, and it is released when that pool is replaced.
	mem *memgov.Reservation
}

// poolRec is the serialized form of one streamed candidate: exactly
// the poolEntry shape checkpoints persist, so the spill path and the
// restore path share one round-trip discipline (print → parse → bind)
// whose fixed-point property the snapshot tests already pin.
type poolRec struct {
	seq     uint64
	sql     string
	dialect string
}

// encodeRec renders the record payload: u32 sql length, sql, dialect.
func encodeRec(r poolRec) []byte {
	buf := make([]byte, 4+len(r.sql)+len(r.dialect))
	buf[0] = byte(len(r.sql) >> 24)
	buf[1] = byte(len(r.sql) >> 16)
	buf[2] = byte(len(r.sql) >> 8)
	buf[3] = byte(len(r.sql))
	copy(buf[4:], r.sql)
	copy(buf[4+len(r.sql):], r.dialect)
	return buf
}

func decodeRec(seq uint64, payload []byte) (poolRec, error) {
	if len(payload) < 4 {
		return poolRec{}, fmt.Errorf("%w: record of %d bytes lacks a length header", spill.ErrCorrupt, len(payload))
	}
	n := int(payload[0])<<24 | int(payload[1])<<16 | int(payload[2])<<8 | int(payload[3])
	if n < 0 || n > len(payload)-4 {
		return poolRec{}, fmt.Errorf("%w: record sql length %d exceeds payload", spill.ErrCorrupt, n)
	}
	return poolRec{seq: seq, sql: string(payload[4 : 4+n]), dialect: string(payload[4+n:])}, nil
}

// poolSink consumes the generalizer's stream. Records accumulate in
// RAM while the buffer budget allows; the first denial moves the whole
// buffer to a spill run and subsequent records append to rotating
// runs, so the candidate pool's size is bounded by disk. Spill-disk
// failures flip the sink into truncation mode: it keeps what it has
// and drops the rest, degraded but never failing the build.
type poolSink struct {
	bufRes   *memgov.Reservation
	spillDir string
	inj      *faults.Injector
	express  func(*sqlast.Query) string

	recs     []poolRec
	runs     []string
	w        *spill.Writer
	seq      uint64
	spilling bool
	broken   bool // spill failed: truncate instead of spilling
	info     buildInfo
}

func newPoolSink(res *resources, inj *faults.Injector, express func(*sqlast.Query) string) *poolSink {
	ps := &poolSink{spillDir: res.spillDir, inj: inj, express: express}
	bufBytes := res.bufBytes
	if bufBytes <= 0 {
		// Default: a quarter of the tightest limit on the chain. With no
		// limit anywhere the buffer is unbounded and nothing ever spills
		// — the ungoverned fast path.
		bufBytes = res.budget.EffectiveLimit() / 4
	}
	if res.budget != nil {
		ps.bufRes = res.budget.Child("poolbuild.buffer", bufBytes).Hold()
	}
	return ps
}

// add is the generalize.Sink: it serializes the candidate (SQL text
// printed and dialect rendered from the live AST, so both are
// byte-identical to what the in-RAM path would keep) and buffers or
// spills it. It never returns an error: every failure degrades.
func (ps *poolSink) add(q *sqlast.Query) error {
	rec := poolRec{seq: ps.seq, sql: q.String(), dialect: ps.express(q)}
	ps.seq++
	if ps.broken {
		return nil
	}
	if !ps.spilling {
		if err := ps.bufRes.Grow(recBytes(rec)); err == nil {
			ps.recs = append(ps.recs, rec)
			return nil
		}
		// The RAM buffer budget tripped: move everything accumulated so
		// far into a spill run and switch to disk.
		ps.beginSpill()
		if ps.broken {
			return nil
		}
	}
	ps.append(rec)
	return nil
}

// beginSpill flushes the RAM buffer into the first spill run. On
// success the buffer's reservation is released (the bytes now live on
// disk); on failure the sink keeps the RAM buffer as the truncated
// pool basis and stops accepting records.
func (ps *poolSink) beginSpill() {
	if ps.spillDir == "" {
		ps.fail(fmt.Errorf("spill disabled: no spill directory configured"))
		return
	}
	ps.spilling = true
	for _, rec := range ps.recs {
		ps.append(rec)
		if ps.broken {
			return
		}
	}
	ps.recs = nil
	ps.bufRes.Release()
}

// append writes one record to the current spill run, rotating runs at
// the size cap.
func (ps *poolSink) append(rec poolRec) {
	if ps.w == nil {
		w, err := spill.Create(ps.spillDir, "pool", ps.inj)
		if err != nil {
			ps.fail(err)
			return
		}
		ps.w = w
	}
	if err := ps.w.Append(spill.Record(rec.seq, encodeRec(rec))); err != nil {
		ps.fail(err)
		return
	}
	ps.info.SpillFrames++
	if ps.w.Bytes() >= spillRunBytes {
		ps.rotate()
	}
}

// rotate finishes the current run and starts counting toward the next.
func (ps *poolSink) rotate() {
	w := ps.w
	ps.w = nil
	bytes, frames := w.Bytes(), w.Frames()
	if path, err := w.Finish(); err != nil {
		// The whole run's frames died with the temp file.
		ps.info.SpillFrames -= frames
		ps.fail(err)
	} else {
		ps.runs = append(ps.runs, path)
		ps.info.SpillFiles++
		ps.info.SpillBytes += bytes
	}
}

// fail flips the sink into truncation mode: rung 3 of the ladder.
// Records flushed from the RAM buffer into an aborted run still have
// their buffer reservation (beginSpill releases it only after a
// complete flush), so ps.recs remains a recovery source when the
// flush itself failed.
func (ps *poolSink) fail(err error) {
	ps.broken = true
	ps.info.degrade(err.Error())
	if ps.w != nil {
		ps.info.SpillFrames -= ps.w.Frames()
		ps.w.Abort()
		ps.w = nil
	}
}

// finish replays every record — from RAM, or merged across spill runs
// — into the materialized candidate pool, accounting each candidate
// against the snapshot reservation. Replay parses and binds each
// record's SQL whether or not it ever touched disk, so a spilled build
// and an in-RAM build construct byte-identical pools by construction.
func (ps *poolSink) finish(db *schema.Database, snap *memgov.Reservation) ([]ltr.Candidate, buildInfo) {
	defer ps.bufRes.Release()
	if ps.w != nil {
		ps.rotate()
	}
	defer ps.cleanup()

	var pool []ltr.Candidate
	stopped := false
	keep := func(rec poolRec) bool {
		cand, err := materialize(db, rec, snap)
		if err != nil {
			ps.info.degrade(err.Error())
			stopped = true
			return false
		}
		pool = append(pool, cand)
		return true
	}

	// Replay pass 1: the finished spill runs, merged by sequence.
	var last uint64
	merged := false
	if len(ps.runs) > 0 {
		readers := make([]*spill.Reader, 0, len(ps.runs))
		for _, path := range ps.runs {
			r, err := spill.Open(path, ps.inj)
			if err != nil {
				ps.info.degrade(err.Error())
				continue
			}
			readers = append(readers, r)
		}
		merge := spill.NewMerge(readers...)
		for !stopped {
			seq, payload, err := merge.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				// A failing disk mid-merge: keep the replayed prefix.
				ps.info.degrade(err.Error())
				break
			}
			rec, err := decodeRec(seq, payload)
			if err != nil {
				ps.info.degrade(err.Error())
				break
			}
			if keep(rec) {
				last, merged = seq, true
			}
		}
		if merge.Torn() {
			ps.info.degrade("spill run ended at a torn tail")
		}
		for _, r := range readers {
			closeSpill(r)
		}
	}

	// Replay pass 2: the RAM buffer. On the pure-RAM path this is the
	// whole pool; after a failed flush into the first spill run it still
	// holds every record (beginSpill keeps it until the flush lands),
	// so the tail beyond the last merged sequence recovers what the
	// aborted run lost. After a successful flush it is empty.
	for _, rec := range ps.recs {
		if stopped || (merged && rec.seq <= last) {
			continue
		}
		keep(rec)
	}

	if dropped := int(ps.seq) - len(pool); dropped > 0 && ps.info.Degraded {
		ps.info.degrade("truncated pool")
		ps.info.DegradeReason = fmt.Sprintf("%s (%d candidates dropped)", ps.info.DegradeReason, dropped)
	}
	return pool, ps.info
}

// materialize re-parses and re-binds one record into a pool candidate,
// charging the snapshot reservation first so a denial truncates before
// allocating the AST.
func materialize(db *schema.Database, rec poolRec, snap *memgov.Reservation) (ltr.Candidate, error) {
	if err := snap.Grow(candBytes(rec)); err != nil {
		return ltr.Candidate{}, err
	}
	q, err := sqlparse.Parse(rec.sql)
	if err != nil {
		snap.Shrink(candBytes(rec))
		return ltr.Candidate{}, fmt.Errorf("core: streamed candidate %d does not re-parse: %v", rec.seq, err)
	}
	if err := db.Bind(q); err != nil {
		snap.Shrink(candBytes(rec))
		return ltr.Candidate{}, fmt.Errorf("core: streamed candidate %d does not re-bind: %v", rec.seq, err)
	}
	return ltr.Candidate{SQL: q, Dialect: rec.dialect}, nil
}

// cleanup removes this build's finished spill runs; they are scratch
// and fully replayed (or abandoned) by now.
//
//garlint:allow errlost -- best-effort scratch removal after replay; the pool already carries the data (or the degradation flag)
func (ps *poolSink) cleanup() {
	for _, path := range ps.runs {
		_ = os.Remove(path)
	}
	ps.runs = nil
}

// closeSpill closes a reader whose run is about to be deleted.
//
//garlint:allow errlost -- the run is scratch and removed right after; a close failure has nothing to unwind
func closeSpill(r *spill.Reader) {
	_ = r.Close()
}

// buildPoolGoverned is the streaming, budget-accounted pool build:
// generalize.Stream feeds the sink, the sink buffers or spills, and
// replay materializes the pool under the snapshot reservation. It
// subsumes the old materialize-everything buildPool — an unbudgeted
// system takes the same path with every governor inert.
func (s *System) buildPoolGoverned(samples []*sqlast.Query) *poolBuild {
	res := s.resources.Load()
	inj := s.state.Load().inj
	sink := newPoolSink(res, inj, s.expression)
	gres, err := generalize.Stream(s.DB, samples, generalize.Config{
		TargetSize: s.Opts.GeneralizeSize,
		Seed:       s.Opts.Seed,
		Rules:      generalize.AllRules(),
		Budget:     res.budget,
	}, sink.add)
	if err != nil {
		// The sink never returns an error (failures degrade); keep the
		// contract visible rather than discarding it.
		sink.info.degrade(err.Error())
	}

	build := &poolBuild{stats: gres.Stats, mem: res.budget.Hold()}
	build.pool, build.info = sink.finish(s.DB, build.mem)
	if gres.Degraded {
		build.info.Degraded = true
		if build.info.DegradeReason == "" {
			build.info.DegradeReason = gres.DegradeReason
		}
	}
	build.idx = ltr.NewPoolIndex(build.pool)
	if build.info.Degraded {
		s.memDegradedBuilds.Add(1)
	}
	return build
}

// encodeBatch is how many dialects one budget reservation covers
// during the embedding build: coarse enough to stay off the hot path,
// fine enough that a denial truncates within one batch of the limit.
const encodeBatch = 256

// dialectSide is the query-independent, per-candidate half of a
// serving snapshot, aligned with its pool: each candidate's dialect
// embedding and re-ranking feature record, and the vocabulary the
// records index.
type dialectSide struct {
	vecs  []vector.Vec
	vocab *rerank.Vocab
	recs  []rerank.Record
}

// buildIndexGoverned embeds the pool's dialects and builds their
// feature records in bounded batches — one parallel pass per batch
// does both — growing the snapshot reservation per batch by the
// vectors, the records and the vocabulary they added. A candidate, its
// vector and its record are admitted or dropped together: a denial
// truncates the pool at the last complete batch, so retrieval quality
// degrades (fewer candidates) but the system stays up. A budget too
// small for even the first batch is an error — that snapshot cannot
// exist at any size, and the caller must keep (or report) what it has.
// A nil reservation builds without accounting.
//
//garlint:allow ctxpass errlost -- snapshot build: no caller context to thread, and the ForEach body never returns an error
func buildIndexGoverned(pool []ltr.Candidate, encoder *embed.Encoder, opts Options, snap *memgov.Reservation) ([]ltr.Candidate, dialectSide, error) {
	side := dialectSide{
		vecs:  make([]vector.Vec, 0, len(pool)),
		vocab: rerank.NewVocab(),
		recs:  make([]rerank.Record, 0, len(pool)),
	}
	// vocabCharged is the vocabulary growth already charged; a denied
	// batch's few new tokens stay interned but uncharged.
	var vocabCharged int64
	for start := 0; start < len(pool); start += encodeBatch {
		end := min(start+encodeBatch, len(pool))
		vecs := make([]vector.Vec, end-start)
		recs := make([]rerank.Record, end-start)
		_ = parallel.ForEach(context.Background(), end-start, opts.Workers, func(i int) error {
			vecs[i] = encoder.Encode(pool[start+i].Dialect)
			recs[i] = side.vocab.Record(pool[start+i].Dialect)
			return nil
		})
		vocabBytes := side.vocab.Bytes()
		batchBytes := vocabBytes - vocabCharged
		for i := range vecs {
			batchBytes += vecBytes(vecs[i]) + recs[i].Bytes()
		}
		if err := snap.Grow(batchBytes); err != nil {
			if start == 0 {
				return nil, dialectSide{}, fmt.Errorf("core: memory budget cannot hold one snapshot: %w", err)
			}
			return pool[:start], side, nil
		}
		vocabCharged = vocabBytes
		side.vecs = append(side.vecs, vecs...)
		side.recs = append(side.recs, recs...)
	}
	return pool, side, nil
}

// candBytesOf recomputes the accounting estimate of a materialized
// candidate — the same value materialize charged for its record, since
// printing the bound AST reproduces the record's SQL text.
func candBytesOf(c ltr.Candidate) int64 {
	return int64(len(c.SQL.String())+len(c.Dialect))*8 + 256
}

// newPipelineGoverned assembles the online pipeline with the embedding
// vectors and feature records accounted in a fresh reservation against
// budget. Budget
// pressure truncates the pool to the candidates whose embeddings fit:
// the survivors get a rebuilt lookup index and the dropped candidates'
// bytes return from poolRes to the budget. When the pool itself has
// consumed the whole budget — even the first embedding batch is
// denied — the tail of the pool is shed to make room and the build
// retries, so a tight-but-viable budget yields a small serving
// snapshot instead of no snapshot. Only a budget that cannot hold one
// candidate with its embedding is an error.
func newPipelineGoverned(pool []ltr.Candidate, poolIdx *ltr.PoolIndex, m *Models, opts Options,
	budget *memgov.Budget, poolRes *memgov.Reservation,
) (*ltr.Pipeline, []ltr.Candidate, *ltr.PoolIndex, *memgov.Reservation, bool, error) {
	vecRes := budget.Hold()
	full := len(pool)
	kept, side, err := buildIndexGoverned(pool, m.Encoder, opts, vecRes)
	for err != nil && errors.Is(err, memgov.ErrBudgetExceeded) && len(pool) > 1 {
		cut := len(pool) / 2
		for _, c := range pool[cut:] {
			poolRes.Shrink(candBytesOf(c))
		}
		pool = pool[:cut]
		kept, side, err = buildIndexGoverned(pool, m.Encoder, opts, vecRes)
	}
	if err != nil {
		vecRes.Release()
		return nil, nil, nil, nil, false, err
	}
	truncated := len(kept) < full
	if truncated {
		for _, c := range pool[len(kept):] {
			poolRes.Shrink(candBytesOf(c))
		}
		poolIdx = ltr.NewPoolIndex(kept)
	}
	pipe := &ltr.Pipeline{
		Encoder:    m.Encoder,
		Index:      indexFromVecs(side.vecs, opts),
		Pool:       kept,
		PoolIdx:    poolIdx,
		K:          opts.RetrievalK,
		SkipRerank: opts.NoRerank,
		Reranker:   m.Reranker,
		DialVecs:   side.vecs,
		Costs:      poolCosts(kept),
		Vocab:      side.vocab,
		Records:    side.recs,
		Workers:    opts.Workers,
	}
	return pipe, kept, poolIdx, vecRes, truncated, nil
}

// adoptSnapMem installs the reservations accounting the snapshot being
// published: whichever half (pool, embeddings) is replaced returns its
// outgoing bytes to the budget. Passing the currently-held reservation
// keeps that half's account. Callers hold writeMu.
func (s *System) adoptSnapMem(poolMem, vecMem *memgov.Reservation) {
	if s.snapMem != nil && s.snapMem != poolMem {
		s.snapMem.Release()
	}
	if s.vecMem != nil && s.vecMem != vecMem {
		s.vecMem.Release()
	}
	s.snapMem = poolMem
	s.vecMem = vecMem
	s.snapBytes.Store(poolMem.Bytes() + vecMem.Bytes())
}

// MemStats is the resource-governance gauge block surfaced through
// /healthz: the budget's accounting, the published snapshot's retained
// bytes, and the degradation/spill record of the build that produced
// the current pool.
type MemStats struct {
	// Budget is the system's budget level (the tenant share under the
	// fleet); nil when unbudgeted.
	Budget *memgov.Stats `json:"budget,omitempty"`
	// SnapshotBytes is the accounted size of the published snapshot
	// (candidate pool + dialect embeddings and feature records).
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// Degraded and DegradeReason describe the published pool's build.
	Degraded      bool   `json:"degraded"`
	DegradeReason string `json:"degrade_reason,omitempty"`
	// Spill gauges of the published pool's build.
	SpillFiles  int   `json:"spill_files"`
	SpillFrames int   `json:"spill_frames"`
	SpillBytes  int64 `json:"spill_bytes"`
	// DegradedBuilds counts builds that finished degraded over this
	// system's lifetime.
	DegradedBuilds uint64 `json:"degraded_builds"`
}

// MemStats reports the resource-governance gauges, lock-free.
func (s *System) MemStats() MemStats {
	st := s.state.Load()
	ms := MemStats{
		SnapshotBytes:  s.snapBytes.Load(),
		Degraded:       st.info.Degraded,
		DegradeReason:  st.info.DegradeReason,
		SpillFiles:     st.info.SpillFiles,
		SpillFrames:    st.info.SpillFrames,
		SpillBytes:     st.info.SpillBytes,
		DegradedBuilds: s.memDegradedBuilds.Load(),
	}
	if res := s.resources.Load(); res != nil {
		ms.Budget = res.budget.Stats()
	}
	return ms
}

// ReleaseMemory returns every byte this system holds against the
// budget — the published snapshot's reservations and the governed
// caches' accounting. The fleet calls it as the last step of evicting
// a tenant: the System is about to be dropped, and anything left
// charged would bill the shared process budget forever.
func (s *System) ReleaseMemory() {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.adoptSnapMem(nil, nil)
	s.purgeCaches()
}
