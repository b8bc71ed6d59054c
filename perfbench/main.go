// Command perfbench is the repository's end-to-end benchmark. Each run
// generates its inputs from the seed, cold-starts a real `gar serve`
// child process, drives it over loopback with a closed-loop HTTP client
// (every caller waits for its SQL before asking the next question),
// checks every answer, and prints one JSON result line. With -trace 1
// it then rebuilds the same system in process and replays the same
// requests through each layer's public functions, timing every call
// from outside, to break the cost down by layer.
//
// Run it from the repository root through the wrapper, which builds gar
// and the benchmark from source first:
//
//	bash perfbench/run.sh --workload geo-2k-cold --seed 1 --seconds 12 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads and
// metrics, and maps each per-layer metric to the end-to-end metric and
// workload it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one traffic mix against one `gar serve` of the GEO-like
// spec.
type workload struct {
	name      string
	pool      int
	execGuide bool
	// stateDir runs the server with a fresh -statedir (background
	// checkpoints after every publication).
	stateDir bool
	// reloader adds a connection that posts /reload back to back during
	// the measured window.
	reloader bool
	// conns is the number of closed-loop translate connections.
	conns int
	// reloads is how many reloads are timed: after the measured window,
	// or with a reloader at least this many during it.
	reloads int
}

var workloads = []workload{
	{name: "geo-2k-cold", pool: 2000, conns: 2, reloads: 3},
	{name: "geo-16k-reload", pool: 20000, execGuide: true, stateDir: true, reloader: true, conns: 1, reloads: 2},
}

// setups is how many cold starts an end-to-end run makes; setup_s is
// their median, which one start alone is too noisy to give.
const setups = 5

// maxReplay caps the requests the traced run replays: the head of the
// end-to-end sequence.
const maxReplay = 2500

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 adds the traced in-process run and prints the per-layer metrics")
	garBin := flag.String("gar", "", "path to the built gar binary")
	work := flag.String("work", ".bench_build/runs", "scratch directory for specs and server state")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *garBin == "" || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -gar and -workload (one of %s)\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(*w, *garBin, *work, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(w workload, garBin, work string, seed int64, seconds float64, traced bool) (*result, error) {
	ctx := context.Background()
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "specs"), 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := makeGeoInputs(filepath.Join(dir, "specs"), seed)
	if err != nil {
		return nil, err
	}

	starts := setups
	if traced {
		starts = 1
	}
	r, err := runE2E(ctx, garBin, w, in, dir, starts, seconds)
	if err != nil {
		return nil, err
	}
	chk := checkAnswers(in, r.ordered, len(r.warm.samples))
	report(w, r, chk)

	res := &result{
		Correct:   len(chk.bad) == 0 && r.reloadFailed == 0 && len(r.reloads) > 0,
		Attempted: len(r.measured.samples),
		Failed:    len(r.measured.samples) - r.measured.ok(),
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		return nil, errors.New("no request completed in the measured window")
	}
	if !traced {
		res.Metrics = endToEnd(r, chk)
		return res, nil
	}
	seq := r.ordered
	if len(seq) > maxReplay {
		seq = seq[:maxReplay]
	}
	tm, err := runTrace(ctx, w, in, dir, seq, r.after.ExecGuide.Timeouts > 0, spanFile(work, w, seed))
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	for k, v := range tm {
		res.Metrics[k] = v
	}
	for k, v := range serverLayers(in, r) {
		res.Metrics[k] = v
	}
	return res, nil
}

// spanFile is where the traced run writes its spans (one JSON object a
// line), beside the build outputs.
func spanFile(work string, w workload, seed int64) string {
	return filepath.Join(filepath.Dir(work), fmt.Sprintf("spans-%s-%d.jsonl", w.name, seed))
}

// endToEnd computes the user-visible metrics of the measured window.
func endToEnd(r *e2eRun, chk checked) map[string]metric {
	var lat []float64
	undegraded := 0
	for _, s := range r.measured.samples {
		if s.err == nil && s.status == http.StatusOK {
			lat = append(lat, ms(s.latency))
			if !s.degraded {
				undegraded++
			}
		}
	}
	ok := len(lat)
	return map[string]metric{
		"setup_s":          {median(r.setups), "s"},
		"translate_p50_ms": {percentile(lat, 0.50), "ms"},
		"translate_p99_ms": {percentile(lat, tailQuantile(len(lat))), "ms"},
		"throughput_rps":   {float64(ok) / r.measured.wall.Seconds(), "1/s"},
		"ok_frac":          {ratio(float64(ok), float64(len(r.measured.samples))), "ratio"},
		"undegraded_frac":  {ratio(float64(undegraded), float64(ok)), "ratio"},
		"top1_exact":       {chk.top1, "ratio"},
		"server_rss_mb":    {r.rssMB, "MB"},
		"reload_s":         {median(r.reloads), "s"},
	}
}

// serverLayers are the per-layer metrics read from the end-to-end run:
// the serve path's own overhead and the server's /healthz counters
// over the measured window.
func serverLayers(in *inputs, r *e2eRun) map[string]metric {
	var overhead []float64
	for _, s := range r.measured.samples {
		if s.err == nil && s.status == http.StatusOK {
			overhead = append(overhead, ms(s.latency)-s.elapsedMS)
		}
	}
	a0, a1 := r.before.Admission, r.after.Admission
	c0, c1 := r.before.Caches, r.after.Caches
	ok := float64(r.measured.ok())
	executed := float64(r.after.ExecGuide.Executed - r.before.ExecGuide.Executed)
	demoted := float64(r.after.ExecGuide.Demoted - r.before.ExecGuide.Demoted)
	return map[string]metric{
		"serve.overhead_p50_ms": {percentile(overhead, 0.50), "ms"},
		"admit.shed":            {float64(a1.ShedQueueFull + a1.ShedDeadline - a0.ShedQueueFull - a0.ShedDeadline), "count"},
		"admit.peak_in_flight":  {float64(a1.PeakInFlight), "count"},
		"transcache.translations.hit_ratio": {hitRatio(c1.Translations.Hits-c0.Translations.Hits,
			c1.Translations.Misses-c0.Translations.Misses), "ratio"},
		"transcache.embeddings.hit_ratio": {hitRatio(c1.Embeddings.Hits-c0.Embeddings.Hits,
			c1.Embeddings.Misses-c0.Embeddings.Misses), "ratio"},
		"execguide.executed_per_request": {ratio(executed, ok), "count"},
		"execguide.demoted_frac":         {ratio(demoted, executed), "ratio"},
		"input.repeat_frac":              {repeatFrac(in, r.ordered), "ratio"},
	}
}

// report prints the human-readable account of the run: requests sent,
// succeeded and failed per phase, sample counts and the output checks.
func report(w workload, r *e2eRun, chk checked) {
	for _, p := range []struct {
		name string
		ph   phase
	}{{"warm-up", r.warm}, {"measured", r.measured}} {
		ok := p.ph.ok()
		fmt.Printf("%s %s: sent %d, succeeded %d, failed %d in %.2fs\n",
			w.name, p.name, len(p.ph.samples), ok, len(p.ph.samples)-ok, p.ph.wall.Seconds())
	}
	n := r.measured.ok()
	fmt.Printf("%s latency samples: %d; translate_p99_ms is their p%.2f\n", w.name, n, 100*tailQuantile(n))
	fmt.Printf("%s setups: %v s; reloads: %v s, %d failed\n", w.name, r.setups, r.reloads, r.reloadFailed)
	fmt.Printf("%s checks: %d answers parsed and bound against their schema, %d malformed\n", w.name, chk.ok, len(chk.bad))
	for i, b := range chk.bad {
		if i == 5 {
			break
		}
		fmt.Printf("  malformed: %s\n", b)
	}
}

// tailQuantile is the quantile translate_p99_ms reports: p99, or with
// fewer than 1,000 samples the highest quantile that still leaves ten
// samples beyond it.
func tailQuantile(n int) float64 {
	return max(0, min(0.99, 1-10/float64(n)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(p*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}
