package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/ltr"
	"repro/internal/sqlast"
)

// TestBudgetChargesRecordsWithEmbeddings pins the accounting of the
// dialect feature records: a budget that holds the pool and all its
// embeddings but not the records too must truncate the snapshot — a
// candidate, its vector and its record stay or go together — to a
// consistent pool flagged Degraded, and eviction must return every
// byte.
func TestBudgetChargesRecordsWithEmbeddings(t *testing.T) {
	b := datasets.GeoLike(datasets.GeoConfig{Train: 150, Val: 1, Test: 5, Seed: 1})
	bundle := b.DBs["geo"]
	var samples []*sqlast.Query
	var examples []ltr.Example
	for _, it := range b.Train {
		samples = append(samples, it.Gold)
		examples = append(examples, ltr.Example{NL: it.NL, Gold: it.Gold})
	}
	opts := Options{GeneralizeSize: 2000, Seed: 1, EncoderEpochs: 2, RerankEpochs: 2, NoCache: true}
	ref := New(bundle.Schema, opts)
	ref.Prepare(samples)
	models, err := TrainModels([]TrainingSet{{Sys: ref, Examples: examples}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := ref.Pool()
	var poolBytes, vecTotal, recTotal int64
	_, side, err := buildIndexGoverned(pool, models.Encoder, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		poolBytes += candBytesOf(pool[i])
		vecTotal += vecBytes(side.vecs[i])
		recTotal += side.recs[i].Bytes()
	}
	recTotal += side.vocab.Bytes()

	gov := opts
	gov.MemBudget = poolBytes + vecTotal + recTotal/2
	gov.SpillDir = t.TempDir()
	gov.SpillBufferBytes = 4096
	sys := New(bundle.Schema, gov)
	sys.Prepare(samples)
	if sys.PoolSize() != len(pool) || sys.MemStats().Degraded {
		t.Fatalf("the budget must admit the whole pool: %d of %d, %+v", sys.PoolSize(), len(pool), sys.MemStats())
	}
	if err := sys.UseModels(models); err != nil {
		t.Fatal(err)
	}
	ms := sys.MemStats()
	if !ms.Degraded || !strings.Contains(ms.DegradeReason, "truncated") {
		t.Fatalf("records over budget did not truncate: %+v", ms)
	}
	st := sys.state.Load()
	p := st.pipeline
	n := len(p.Pool)
	if n == 0 || n >= len(pool) {
		t.Fatalf("truncated to %d of %d candidates", n, len(pool))
	}
	if len(st.pool) != n || len(p.DialVecs) != n || len(p.Records) != n || len(p.Costs) != n {
		t.Fatalf("inconsistent snapshot: pool %d/%d, vecs %d, records %d, costs %d",
			len(st.pool), n, len(p.DialVecs), len(p.Records), len(p.Costs))
	}
	if used := ms.Budget.Used; used > gov.MemBudget || used != ms.SnapshotBytes {
		t.Errorf("budget used %d (limit %d), snapshot accounts %d", used, gov.MemBudget, ms.SnapshotBytes)
	}

	// The surviving records are the survivors' own: scoring through
	// them matches building records from the dialects on the spot.
	noRecs := *p
	noRecs.Vocab, noRecs.Records = nil, nil
	ctx := context.Background()
	for _, it := range b.Test {
		hits, err := p.RetrieveContext(ctx, it.NL, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.RerankVecContext(ctx, it.NL, nil, hits)
		if err != nil {
			t.Fatal(err)
		}
		want, err := noRecs.RerankVecContext(ctx, it.NL, nil, hits)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("%q rank %d: records give %d (%v), dialects %d (%v)",
					it.NL, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
		if _, err := sys.Translate(it.NL); err != nil {
			t.Fatal(err)
		}
	}

	sys.ReleaseMemory()
	if used := sys.resources.Load().budget.Used(); used != 0 {
		t.Errorf("eviction left %d bytes charged", used)
	}
}
