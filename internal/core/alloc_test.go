//go:build !race

package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
)

// maxTranslateAllocs is the allocation ratchet of one uncached
// translation on the 2k GEO-like pool: retrieval, re-ranking of the
// k=100 retrieved candidates through their precomputed feature
// records, and value post-processing with one extraction per request.
// Measured at 926 on amd64 (go1.24), of which retrieval's blocked scan
// allocates one, its k-hit result; before the records and the single
// value extraction it was about 30,600. Lower it when a change removes
// allocations.
const maxTranslateAllocs = 1000

// TestTranslateAllocs is the deterministic allocation gate over
// System.TranslateContext with caches off. It is excluded under the
// race detector, which changes allocation behaviour.
func TestTranslateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2k-candidate pool")
	}
	sys, questions := geoSystem(t, 2000, 20, core.Options{NoCache: true, Workers: 1})
	ctx := context.Background()
	var total float64
	for _, nl := range questions {
		total += testing.AllocsPerRun(3, func() {
			if _, err := sys.TranslateContext(ctx, nl); err != nil {
				t.Fatal(err)
			}
		})
	}
	avg := total / float64(len(questions))
	t.Logf("%.0f allocs per translation over %d questions (pool %d)", avg, len(questions), sys.PoolSize())
	if avg > maxTranslateAllocs {
		t.Errorf("%.0f allocs per translation, ratchet is %d", avg, maxTranslateAllocs)
	}
}
