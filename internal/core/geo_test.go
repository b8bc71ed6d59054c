package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ltr"
	"repro/internal/sqlast"
)

// geoFixture is the GEO-like paper-scale generator's database — the
// workload the served benchmark measures — with its sample queries,
// training examples and questions drawn after the training split.
type geoFixture struct {
	bundle    *datasets.DBBundle
	samples   []*sqlast.Query
	examples  []ltr.Example
	questions []string
}

func newGeoFixture(questions int) geoFixture {
	b := datasets.GeoLike(datasets.GeoConfig{Train: 150, Val: 1, Test: questions, Seed: 1})
	f := geoFixture{bundle: b.DBs["geo"]}
	for _, it := range b.Train {
		f.samples = append(f.samples, it.Gold)
		f.examples = append(f.examples, ltr.Example{NL: it.NL, Gold: it.Gold})
	}
	for _, it := range b.Test {
		f.questions = append(f.questions, it.NL)
	}
	return f
}

// geoOptions fixes the options of a GEO-like system over a pool of
// poolSize candidates. The short training keeps the build cheap;
// ranking quality does not matter to the tests that use it.
func geoOptions(poolSize int, opts core.Options) core.Options {
	opts.GeneralizeSize = poolSize
	opts.Seed = 1
	if opts.EncoderEpochs == 0 {
		opts.EncoderEpochs = 2
	}
	if opts.RerankEpochs == 0 {
		opts.RerankEpochs = 2
	}
	return opts
}

// system builds a system over the fixture's database with its cell
// values linked, unprepared.
func (f geoFixture) system(opts core.Options) *core.System {
	sys := core.New(f.bundle.Schema, opts)
	sys.SetContent(f.bundle.Content)
	return sys
}

// geoSystem builds a trained GEO-like system and returns it with the
// fixture's questions.
func geoSystem(t testing.TB, poolSize, questions int, opts core.Options) (*core.System, []string) {
	t.Helper()
	f := newGeoFixture(questions)
	sys := f.system(geoOptions(poolSize, opts))
	sys.Prepare(f.samples)
	if err := sys.Train(f.examples); err != nil {
		t.Fatal(err)
	}
	return sys, f.questions
}
