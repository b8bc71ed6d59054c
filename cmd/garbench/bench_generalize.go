package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/memgov"
	"repro/internal/schema/schematest"
	"repro/internal/spill"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// The generalize benchmark measures the resource-governed streaming
// machinery under pool-scale pressure: candidate records stream
// through a memgov-governed RAM buffer that overflows into rotating
// spill runs, and an external merge replays them. At each scale the
// replay must be byte-identical and complete (hash equality against
// the deterministic source), the accountant must never exceed its
// limit, and GC'd heap growth must stay near the budget — not near the
// data — proving the spill actually bounds RAM. A final end-to-end
// anchor builds the employee pool governed-with-spill and unbounded
// and asserts byte-identical candidates.

// genScales are the record counts of the scaling sweep.
var genScales = []int{1_000, 10_000, 100_000}

// genRunBytes rotates spill runs at this size so every scale exercises
// multi-run external merges.
const genRunBytes = 256 << 10

// genScaleStats is one scale's row in BENCH_generalize.json.
type genScaleStats struct {
	Records       int     `json:"records"`
	RecordBytes   int64   `json:"record_bytes"`
	BudgetBytes   int64   `json:"budget_bytes"`
	SpillRuns     int     `json:"spill_runs"`
	SpillBytes    int64   `json:"spill_bytes"`
	RecordsPerSec float64 `json:"records_per_sec"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	// BudgetPeak is the accountant's high-water mark; PeakHeapGrowth
	// the largest GC'd heap growth observed while streaming+merging.
	BudgetPeak      int64 `json:"budget_peak_bytes"`
	PeakHeapGrowth  int64 `json:"peak_heap_growth_bytes"`
	ReplayIdentical bool  `json:"replay_identical"`
}

// genPipelineStats is the end-to-end anchor block.
type genPipelineStats struct {
	Pool                 int     `json:"pool"`
	SpillFiles           int     `json:"spill_files"`
	SpillBytes           int64   `json:"spill_bytes"`
	ElapsedMS            float64 `json:"elapsed_ms"`
	IdenticalToUnbounded bool    `json:"identical_to_unbounded"`
}

type genReport struct {
	GOMAXPROCS int              `json:"gomaxprocs"`
	Iters      int              `json:"iters"`
	Scales     []genScaleStats  `json:"scales"`
	Pipeline   genPipelineStats `json:"pipeline"`
}

// genRecord renders the i-th synthetic candidate record: SQL-shaped
// text of varied length, deterministic in (seed, i) so the source can
// be regenerated for hash comparison without retaining it in RAM.
func genRecord(rng *rand.Rand, i int) []byte {
	pad := make([]byte, 40+rng.Intn(160))
	for j := range pad {
		pad[j] = byte('a' + rng.Intn(26))
	}
	return []byte(fmt.Sprintf(
		"SELECT c%d, COUNT(*) FROM t%d WHERE label = '%s' GROUP BY c%d ORDER BY %d",
		i%97, i%13, pad, i%97, i))
}

// sourceHash streams the deterministic record sequence through one
// hash: the reference a replay must reproduce byte-for-byte.
func sourceHash(n int) (uint64, int64) {
	h := fnv.New64a()
	rng := rand.New(rand.NewSource(42))
	var total int64
	for i := 0; i < n; i++ {
		rec := genRecord(rng, i)
		hashRec(h, uint64(i), rec)
		total += int64(len(rec))
	}
	return h.Sum64(), total
}

// hashRec folds one (seq, payload) record into h.
//
//garlint:allow errlost -- hash.Hash.Write never returns an error by its documented contract
func hashRec(h hash.Hash64, seq uint64, payload []byte) {
	var seqb [8]byte
	for i := 7; i >= 0; i-- {
		seqb[i] = byte(seq)
		seq >>= 8
	}
	h.Write(seqb[:])
	h.Write(payload)
}

// runGeneralizeScale streams n records under a budget of a quarter of
// their total bytes, spilling through rotating runs in dir, then
// merge-replays and verifies hash equality. Returns the measured row.
func runGeneralizeScale(n int, dir string) (genScaleStats, error) {
	wantHash, totalBytes := sourceHash(n)
	budgetBytes := totalBytes / 4
	st := genScaleStats{Records: n, RecordBytes: totalBytes, BudgetBytes: budgetBytes}

	runtime.GC()
	var m0, m runtime.MemStats
	runtime.ReadMemStats(&m0)
	base := m0.HeapAlloc
	sampleEvery := n / 8
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	sample := func() {
		runtime.GC()
		runtime.ReadMemStats(&m)
		if g := int64(m.HeapAlloc) - int64(base); g > st.PeakHeapGrowth {
			st.PeakHeapGrowth = g
		}
	}

	budget := memgov.New("bench.generalize", budgetBytes)
	buf := budget.Child("buffer", budgetBytes/4).Hold()
	defer buf.Release()

	var (
		buffered [][]byte // seq-prefixed records held in RAM pre-spill
		runs     []string
		w        *spill.Writer
		spilling bool
	)
	flush := func(rec []byte) error {
		if w == nil {
			nw, err := spill.Create(dir, "bench", nil)
			if err != nil {
				return err
			}
			w = nw
		}
		if err := w.Append(rec); err != nil {
			return err
		}
		if w.Bytes() >= genRunBytes {
			path, err := w.Finish()
			if err != nil {
				return err
			}
			runs = append(runs, path)
			w = nil
		}
		return nil
	}

	start := time.Now()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		rec := spill.Record(uint64(i), genRecord(rng, i))
		if !spilling {
			if err := buf.Grow(int64(len(rec))); err == nil {
				buffered = append(buffered, rec)
				if i%sampleEvery == 0 {
					sample()
				}
				continue
			}
			spilling = true
			for _, b := range buffered {
				if err := flush(b); err != nil {
					return st, err
				}
			}
			buffered = nil
			buf.Release()
		}
		if err := flush(rec); err != nil {
			return st, err
		}
		if i%sampleEvery == 0 {
			sample()
		}
	}
	if w != nil {
		path, err := w.Finish()
		if err != nil {
			return st, err
		}
		runs = append(runs, path)
	}
	st.SpillRuns = len(runs)
	for _, p := range runs {
		if fi, err := os.Stat(p); err == nil {
			st.SpillBytes += fi.Size()
		}
	}

	// Merge replay: every record must come back, in order, unchanged.
	h := fnv.New64a()
	replayed := 0
	readers := make([]*spill.Reader, 0, len(runs))
	for _, p := range runs {
		r, err := spill.Open(p, nil)
		if err != nil {
			return st, err
		}
		defer r.Close()
		readers = append(readers, r)
	}
	merge := spill.NewMerge(readers...)
	for {
		seq, payload, err := merge.Next()
		if err != nil {
			break
		}
		hashRec(h, seq, payload)
		replayed++
		if replayed%sampleEvery == 0 {
			sample()
		}
	}
	for _, rec := range buffered {
		seq, payload, err := spill.SplitRecord(rec)
		if err != nil {
			return st, err
		}
		hashRec(h, seq, payload)
		replayed++
	}
	st.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	st.RecordsPerSec = float64(n) / (st.ElapsedMS / 1000)
	st.BudgetPeak = budget.Peak()
	st.ReplayIdentical = replayed == n && h.Sum64() == wantHash

	for _, p := range runs {
		if err := os.Remove(p); err != nil {
			return st, err
		}
	}

	if !st.ReplayIdentical {
		return st, fmt.Errorf("scale %d: replay diverged (%d of %d records, hash mismatch=%v)",
			n, replayed, n, h.Sum64() != wantHash)
	}
	if st.BudgetPeak > budgetBytes {
		return st, fmt.Errorf("scale %d: accountant overran its limit: peak %d > budget %d",
			n, st.BudgetPeak, budgetBytes)
	}
	// The RSS-vs-budget assertion: GC'd heap growth while streaming
	// must track the budget, not the data. Twice the budget plus fixed
	// harness slack is well below full in-RAM retention at every scale
	// that matters.
	if bound := 2*budgetBytes + 4<<20; st.PeakHeapGrowth > bound {
		return st, fmt.Errorf("scale %d: peak heap growth %d exceeds budget-derived bound %d (budget %d, data %d)",
			n, st.PeakHeapGrowth, bound, budgetBytes, totalBytes)
	}
	return st, nil
}

// benchSamples are the employee-database sample queries from the
// paper's running example, the pipeline anchor's generalization input.
func benchSamples() []string {
	return []string{
		"SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1",
		"SELECT name FROM employee WHERE age > 30",
		"SELECT age FROM employee WHERE city = 'Austin'",
		"SELECT city, COUNT(*) FROM employee GROUP BY city",
		"SELECT AVG(bonus) FROM evaluation",
		"SELECT COUNT(*) FROM employee",
		"SELECT shop_name FROM shop ORDER BY number_products DESC LIMIT 1",
		"SELECT name FROM employee ORDER BY age DESC LIMIT 1",
		"SELECT city FROM employee",
	}
}

// runGeneralizePipeline is the end-to-end anchor: the employee pool
// built governed (tiny RAM buffer, forced spill) and unbounded must be
// byte-identical candidate-for-candidate.
func runGeneralizePipeline(dir string) (genPipelineStats, error) {
	var st genPipelineStats
	samples := make([]*sqlast.Query, 0, len(benchSamples()))
	for i, s := range benchSamples() {
		q, err := sqlparse.Parse(s)
		if err != nil {
			return st, fmt.Errorf("bench sample %d: %w", i, err)
		}
		samples = append(samples, q)
	}
	opts := core.Options{GeneralizeSize: 2000, RetrievalK: 100, Seed: 42, NoCache: true}
	plain := core.New(schematest.Employee(), opts)
	plain.Prepare(samples)

	govOpts := opts
	govOpts.MemBudget = 256 << 20
	govOpts.SpillDir = dir
	govOpts.SpillBufferBytes = 4096
	gov := core.New(schematest.Employee(), govOpts)
	start := time.Now()
	gov.Prepare(samples)
	st.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000

	ms := gov.MemStats()
	st.Pool = gov.PoolSize()
	st.SpillFiles = ms.SpillFiles
	st.SpillBytes = ms.SpillBytes
	if ms.SpillFiles == 0 {
		return st, fmt.Errorf("governed pipeline build never spilled")
	}
	if ms.Degraded {
		return st, fmt.Errorf("governed pipeline build degraded: %s", ms.DegradeReason)
	}

	a, b := plain.Pool(), gov.Pool()
	st.IdenticalToUnbounded = len(a) == len(b)
	for i := 0; st.IdenticalToUnbounded && i < len(a); i++ {
		st.IdenticalToUnbounded = a[i].SQL.String() == b[i].SQL.String() && a[i].Dialect == b[i].Dialect
	}
	if !st.IdenticalToUnbounded {
		return st, fmt.Errorf("governed pool diverged from unbounded pool (%d vs %d candidates)",
			len(b), len(a))
	}
	return st, nil
}

// runGeneralizeBench is the `-bench generalize` entry point: the
// scaling sweep (best of iters passes per scale) plus the end-to-end
// anchor, printed and written to outPath as JSON.
func runGeneralizeBench(iters int, outPath string) error {
	if iters < 1 {
		iters = 1
	}
	dir, err := os.MkdirTemp("", "garbench-spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	report := genReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Iters: iters}
	for _, n := range genScales {
		fmt.Fprintf(os.Stderr, "bench: streaming %d records through budget+spill...\n", n)
		var best genScaleStats
		for it := 0; it < iters; it++ {
			st, err := runGeneralizeScale(n, filepath.Join(dir, fmt.Sprintf("s%d", n)))
			if err != nil {
				return err
			}
			if it == 0 || st.RecordsPerSec > best.RecordsPerSec {
				best = st
			}
		}
		report.Scales = append(report.Scales, best)
	}
	fmt.Fprintln(os.Stderr, "bench: building governed vs unbounded employee pool...")
	report.Pipeline, err = runGeneralizePipeline(filepath.Join(dir, "pipeline"))
	if err != nil {
		return err
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("generalize bench: gomaxprocs=%d iters=%d\n", report.GOMAXPROCS, report.Iters)
	for _, s := range report.Scales {
		fmt.Printf("  %7d records: %8.0f rec/s, %d runs (%d KiB spilled), budget %d KiB peak %d KiB, heap growth %d KiB\n",
			s.Records, s.RecordsPerSec, s.SpillRuns, s.SpillBytes>>10,
			s.BudgetBytes>>10, s.BudgetPeak>>10, s.PeakHeapGrowth>>10)
	}
	fmt.Printf("  pipeline: %d candidates, %d spill file(s), identical to unbounded: %v\n",
		report.Pipeline.Pool, report.Pipeline.SpillFiles, report.Pipeline.IdenticalToUnbounded)
	fmt.Printf("  written to %s\n", outPath)
	return nil
}
