package core_test

import (
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ltr"
)

// TestCheckpointRestoreTranslatesBitIdentical: a GEO-like system
// restored from its checkpoint — pool, vectors and models read back,
// feature records rebuilt — answers every question exactly as the
// system that wrote it: same candidates, same filled SQL, bit-identical
// scores at every rank.
func TestCheckpointRestoreTranslatesBitIdentical(t *testing.T) {
	f := newGeoFixture(40)
	opts := geoOptions(600, core.Options{NoCache: true})
	sys := f.system(opts)
	sys.Prepare(f.samples)
	if err := sys.Train(f.examples); err != nil {
		t.Fatal(err)
	}
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := checkpoint.Encode(m, sections)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	restored := f.system(opts)
	if err := restored.RestoreCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	for _, nl := range f.questions {
		a, err := sys.Translate(nl)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Translate(nl)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Ranked) != len(b.Ranked) {
			t.Fatalf("%q: %d ranked after restore, want %d", nl, len(b.Ranked), len(a.Ranked))
		}
		for i := range a.Ranked {
			x, y := a.Ranked[i], b.Ranked[i]
			if math.Float64bits(x.Score) != math.Float64bits(y.Score) || x.Dialect != y.Dialect || x.SQL.String() != y.SQL.String() {
				t.Fatalf("%q rank %d: restored %s (%v), want %s (%v)", nl, i, y.SQL, y.Score, x.SQL, x.Score)
			}
		}
	}
}

// TestRecordBytesPerCandidate reports the feature records' accounted
// size on the 17k-candidate GEO-like pool and holds it to 1 KiB per
// candidate (vocabulary included); it measures about 450 bytes.
func TestRecordBytesPerCandidate(t *testing.T) {
	if testing.Short() {
		t.Skip("generalizes a 17k-candidate pool")
	}
	f := newGeoFixture(1)
	sys := f.system(geoOptions(20000, core.Options{}))
	sys.Prepare(f.samples)
	pool := sys.Pool()
	vocab, recs := ltr.BuildRecords(pool, 0)
	total := vocab.Bytes()
	for i := range recs {
		total += recs[i].Bytes()
	}
	avg := float64(total) / float64(len(pool))
	t.Logf("%d candidates, vocabulary of %d strings: %.0f record bytes per candidate", len(pool), vocab.Len(), avg)
	if len(pool) < 15000 {
		t.Fatalf("pool of %d candidates, want the 17k paper-scale pool", len(pool))
	}
	if avg > 1024 {
		t.Errorf("%.0f record bytes per candidate, want at most 1024", avg)
	}
}
