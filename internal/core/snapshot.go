package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/generalize"
	"repro/internal/ltr"
	"repro/internal/sqlparse"
	"repro/internal/vector"
)

// The section names of a serving-snapshot checkpoint, in file order.
// internal/checkpoint carries them as opaque named payloads; the codecs
// here define what the bytes mean.
const (
	// SectionPool is the generalized candidate pool: every candidate's
	// SQL text and dialect expression.
	SectionPool = "pool"
	// SectionVecs holds the encoder embedding of each candidate's
	// dialect, aligned with SectionPool — the vectors the index serves,
	// persisted so a warm start never re-encodes the pool.
	SectionVecs = "vecs"
	// SectionModels is the trained Models stream in the Save envelope
	// (its own magic + length + CRC, nested inside the checkpoint's).
	SectionModels = "models"
	// SectionStats is the generalization statistics of the pool's
	// Prepare, so PrepStats survives a restart.
	SectionStats = "stats"
)

// ErrNotReady is returned by ExportCheckpoint while no translatable
// snapshot is published: there is nothing worth persisting before the
// first completed Train/UseModels/Swap.
var ErrNotReady = errors.New("core: no translatable snapshot to checkpoint")

// poolEntry is the serialized form of one candidate: the SQL text
// (re-parsed and re-bound on restore) and the dialect expression
// (stored, not re-rendered, so a restored pool ranks with byte-identical
// inputs).
type poolEntry struct {
	SQL     string
	Dialect string
}

// snapshotCorrupt tags a semantic section failure with the checkpoint
// package's corruption sentinel, so Store.Recover falls back past it
// exactly as it falls back past a torn envelope.
func snapshotCorrupt(format string, args ...any) error {
	return fmt.Errorf("core: %w: %s", checkpoint.ErrCorrupt, fmt.Sprintf(format, args...))
}

// ExportCheckpoint renders the currently published serving snapshot as
// a checkpoint manifest plus sections: candidate pool, dialect vectors,
// trained models and generalization stats. The manifest's Generation is
// the snapshot's pool generation and Database names the bound database,
// so a restore onto the wrong system is refused. It fails with
// ErrNotReady while no trained snapshot is published.
func (s *System) ExportCheckpoint() (checkpoint.Manifest, []checkpoint.Section, error) {
	st := s.state.Load()
	if !st.trained || st.pipeline == nil {
		return checkpoint.Manifest{}, nil, ErrNotReady
	}

	entries := make([]poolEntry, len(st.pool))
	for i, c := range st.pool {
		entries[i] = poolEntry{SQL: c.SQL.String(), Dialect: c.Dialect}
	}
	vecs := st.pipeline.DialVecs
	if vecs == nil {
		// Defensive: every pipeline built by this package carries its
		// dialect vectors, but re-encoding is always a valid fallback.
		vecs = make([]vector.Vec, len(st.pool))
		for i, c := range st.pool {
			vecs[i] = st.encoder.Encode(c.Dialect)
		}
	}

	var poolBuf, vecsBuf, statsBuf, modelsBuf bytes.Buffer
	if err := gob.NewEncoder(&poolBuf).Encode(entries); err != nil {
		return checkpoint.Manifest{}, nil, fmt.Errorf("core: encoding pool section: %w", err)
	}
	if err := gob.NewEncoder(&vecsBuf).Encode(vecs); err != nil {
		return checkpoint.Manifest{}, nil, fmt.Errorf("core: encoding vecs section: %w", err)
	}
	if err := gob.NewEncoder(&statsBuf).Encode(st.prepStats); err != nil {
		return checkpoint.Manifest{}, nil, fmt.Errorf("core: encoding stats section: %w", err)
	}
	m := &Models{Encoder: st.encoder, Reranker: st.pipeline.Reranker}
	if err := m.Save(&modelsBuf); err != nil {
		return checkpoint.Manifest{}, nil, err
	}

	manifest := checkpoint.Manifest{
		Generation:  st.gen,
		Database:    s.DB.Name,
		CreatedUnix: time.Now().Unix(),
	}
	sections := []checkpoint.Section{
		{Name: SectionPool, Data: poolBuf.Bytes()},
		{Name: SectionVecs, Data: vecsBuf.Bytes()},
		{Name: SectionModels, Data: modelsBuf.Bytes()},
		{Name: SectionStats, Data: statsBuf.Bytes()},
	}
	return manifest, sections, nil
}

// decodeSection gob-decodes one named section into out, containing any
// decoder panic (gob is not hardened against hostile input) and tagging
// every failure as corruption so recovery falls back a generation.
func decodeSection(ck *checkpoint.Checkpoint, name string, out any) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = snapshotCorrupt("section %q does not decode: %v", name, rec)
		}
	}()
	data := ck.Section(name)
	if data == nil {
		return snapshotCorrupt("section %q missing", name)
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(out); err != nil {
		return snapshotCorrupt("section %q does not decode: %v", name, err)
	}
	return nil
}

// RestoreCheckpoint rebuilds the complete serving snapshot from a
// decoded (and envelope-validated) checkpoint and publishes it
// atomically: candidate pool re-parsed and re-bound against this
// system's database, vector index rebuilt from the persisted dialect
// embeddings (no re-encoding), re-ranking feature records rebuilt from
// the dialects, models deployed, pool generation restored. After it
// returns the system is Ready and translates without
// ever running Prepare or Train.
//
// A checkpoint for a different database fails with
// checkpoint.ErrIncompatible; undecodable or internally inconsistent
// sections fail with checkpoint.ErrCorrupt. On any failure the system
// is left exactly as it was — the new state is published only after
// every section has validated.
func (s *System) RestoreCheckpoint(ck *checkpoint.Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("core: restoring a nil checkpoint")
	}
	if ck.Manifest.Database != s.DB.Name {
		return fmt.Errorf("core: %w: checkpoint is for database %q, this system serves %q",
			checkpoint.ErrIncompatible, ck.Manifest.Database, s.DB.Name)
	}

	var entries []poolEntry
	if err := decodeSection(ck, SectionPool, &entries); err != nil {
		return err
	}
	if len(entries) == 0 {
		return snapshotCorrupt("empty candidate pool")
	}
	var vecs []vector.Vec
	if err := decodeSection(ck, SectionVecs, &vecs); err != nil {
		return err
	}
	if len(vecs) != len(entries) {
		return snapshotCorrupt("%d vectors for %d candidates", len(vecs), len(entries))
	}
	var stats generalize.Stats
	if err := decodeSection(ck, SectionStats, &stats); err != nil {
		return err
	}
	modelsData := ck.Section(SectionModels)
	if modelsData == nil {
		return snapshotCorrupt("section %q missing", SectionModels)
	}
	m, err := LoadModels(bytes.NewReader(modelsData))
	if err != nil {
		// The nested model envelope has its own integrity checks; any
		// failure inside a checkpoint that passed its own checksums is
		// still corruption from the restore's point of view.
		return fmt.Errorf("core: %w: models section: %v", checkpoint.ErrCorrupt, err)
	}

	pool := make([]ltr.Candidate, len(entries))
	dim := -1
	for i, e := range entries {
		q, err := sqlparse.Parse(e.SQL)
		if err != nil {
			return snapshotCorrupt("candidate %d does not parse: %v", i, err)
		}
		if err := s.DB.Bind(q); err != nil {
			// The SQL is intact but no longer matches this schema: the
			// checkpoint predates a schema change. Incompatible, not
			// corrupt — but either way recovery must fall back.
			return fmt.Errorf("core: %w: candidate %d does not bind against %s: %v",
				checkpoint.ErrIncompatible, i, s.DB.Name, err)
		}
		pool[i] = ltr.Candidate{SQL: q, Dialect: e.Dialect}
		if dim == -1 {
			dim = len(vecs[i])
		}
		if len(vecs[i]) != dim {
			return snapshotCorrupt("vector %d has dimension %d, want %d", i, len(vecs[i]), dim)
		}
	}

	// Account the restored snapshot against the memory budget before
	// anything is published. A budget too small for the checkpoint is a
	// plain error (not corruption): falling back a generation would not
	// help — older checkpoints are the same size — so the caller should
	// fall through to a cold build, which streams and spills under the
	// same budget instead of materializing the checkpoint whole.
	//
	// The feature records are not persisted: they are a pure function of
	// the dialects, rebuilt here and charged with the embeddings.
	vocab, recs := ltr.BuildRecords(pool, s.Opts.Workers)
	budget := s.resources.Load().budget
	poolMem, vecMem := budget.Hold(), budget.Hold()
	poolBytes, vecsBytes := int64(0), vocab.Bytes()
	for i := range pool {
		poolBytes += candBytesOf(pool[i])
		vecsBytes += vecBytes(vecs[i]) + recs[i].Bytes()
	}
	if err := poolMem.Grow(poolBytes); err != nil {
		return fmt.Errorf("core: memory budget cannot hold the checkpointed pool: %w", err)
	}
	if err := vecMem.Grow(vecsBytes); err != nil {
		poolMem.Release()
		return fmt.Errorf("core: memory budget cannot hold the checkpointed embeddings and records: %w", err)
	}

	poolIdx := ltr.NewPoolIndex(pool)
	index := indexFromVecs(vecs, s.Opts)
	pipeline := &ltr.Pipeline{
		Encoder:    m.Encoder,
		Index:      index,
		Pool:       pool,
		PoolIdx:    poolIdx,
		K:          s.Opts.RetrievalK,
		SkipRerank: s.Opts.NoRerank,
		Reranker:   m.Reranker,
		DialVecs:   vecs,
		Costs:      poolCosts(pool),
		Vocab:      vocab,
		Records:    recs,
		Workers:    s.Opts.Workers,
	}

	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	next := *s.state.Load()
	// Generation continuity: on recovery into a fresh system the
	// restored snapshot keeps the generation it was checkpointed at, so
	// health endpoints, Result.Generation and the generation-keyed
	// caches line up across the restart. A system that has already
	// moved past the checkpoint (a rollback) instead advances to a
	// fresh generation: a generation number must never name two
	// different snapshots, or a translation in flight on the outgoing
	// snapshot could repopulate the caches under the restored
	// generation after the purge below.
	if ck.Manifest.Generation > next.gen {
		next.gen = ck.Manifest.Generation
	} else if ck.Manifest.Generation < next.gen {
		next.gen++
	}
	next.pool = pool
	next.poolIdx = poolIdx
	next.prepStats = stats
	// A restored snapshot carries no build degradation: it was complete
	// when checkpointed, and the budget above accepted it whole.
	next.info = buildInfo{}
	next.encoder = m.Encoder
	next.pipeline = pipeline
	next.trained = true
	s.adoptSnapMem(poolMem, vecMem)
	s.publish(&next)
	s.purgeCaches()
	return nil
}
