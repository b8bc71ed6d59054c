package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/norm"
	"repro/internal/schema"
	"repro/internal/sqlast"
)

// sample is one translate request as the client saw it.
type sample struct {
	pos     int // stream position
	status  int
	err     error
	latency time.Duration
	// The rest is set for 200 answers only.
	ans        *answer
	elapsedMS  float64
	degraded   bool
	generation uint64
}

// answer is the SQL of a 200 translate answer: the top-1 and every
// returned candidate, best first.
type answer struct {
	sql        string
	candidates []string
}

func newAnswer(ta *translateAnswer) *answer {
	a := &answer{sql: ta.SQL}
	for _, c := range ta.Candidates {
		a.candidates = append(a.candidates, c.SQL)
	}
	return a
}

// phase is the outcome of one closed-loop driving phase.
type phase struct {
	samples []sample
	wall    time.Duration
}

func (p phase) ok() int {
	n := 0
	for _, s := range p.samples {
		if s.status == http.StatusOK && s.err == nil {
			n++
		}
	}
	return n
}

// drive sends the stream from position from over conns closed-loop
// connections: each connection sends its next question only after its
// previous answer arrived. It stops after count requests when count is
// positive, else once more reports false.
func drive(ctx context.Context, cl *client, in *inputs, from, count int, more func() bool, conns int) phase {
	var next atomic.Int64
	next.Store(int64(from))
	per := make([][]sample, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				if count <= 0 && !more() {
					return
				}
				pos := int(next.Add(1) - 1)
				if count > 0 && pos >= from+count {
					return
				}
				req := in.stream[pos%len(in.stream)]
				s := sample{pos: pos}
				var ta translateAnswer
				t0 := time.Now()
				s.status, s.err = cl.do(ctx, http.MethodPost, "/translate",
					map[string]string{"question": req.question}, &ta)
				s.latency = time.Since(t0)
				if s.err == nil && s.status == http.StatusOK {
					s.ans, s.elapsedMS, s.degraded, s.generation = newAnswer(&ta), ta.ElapsedMS, ta.Degraded, ta.Generation
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	out := phase{wall: time.Since(start)}
	for _, ss := range per {
		out.samples = append(out.samples, ss...)
	}
	sort.Slice(out.samples, func(i, j int) bool { return out.samples[i].pos < out.samples[j].pos })
	return out
}

// e2eRun is everything one end-to-end run measured.
type e2eRun struct {
	setups         []float64
	warm, measured phase
	reloads        []float64
	reloadFailed   int
	before, after  *healthz
	rssMB          float64
	// ordered lists the sent stream positions in stream order: the
	// request sequence the traced run replays.
	ordered []sample
}

// serverArgs are the `gar serve` flags of a workload; dir holds the
// run's server state and run is the setup index (fresh state per start).
func (w workload) serverArgs(spec, dir string, run int) []string {
	args := []string{"-spec", spec, "-pool", strconv.Itoa(w.pool)}
	if w.execGuide {
		args = append(args, "-execguide")
	}
	if w.stateDir {
		args = append(args, "-statedir", filepath.Join(dir, fmt.Sprintf("state-%d", run)))
	}
	return args
}

// coldStart starts a server and waits until /readyz is 200. It returns
// the set-up time in seconds.
func coldStart(ctx context.Context, bin string, w workload, in *inputs, dir string, run int) (*child, *client, float64, error) {
	t0 := time.Now()
	c, err := startChild(bin, w.serverArgs(in.path, dir, run))
	if err != nil {
		return nil, nil, 0, err
	}
	addr, err := c.listening(170 * time.Second)
	if err != nil {
		c.stop()
		return nil, nil, 0, err
	}
	cl := newClient(addr, w.conns+1)
	err = waitFor(ctx, 170*time.Second, "/readyz", func() (bool, error) {
		status, err := cl.do(ctx, http.MethodGet, "/readyz", nil, nil)
		return status == http.StatusOK, err
	})
	if err != nil {
		cl.close()
		c.stop()
		return nil, nil, 0, fmt.Errorf("%w\n%s", err, c.logTail())
	}
	return c, cl, time.Since(t0).Seconds(), nil
}

// runE2E cold-starts the server setups times (keeping the last one),
// warms it up, drives it for the measured window and collects the
// server-side counters around that window.
func runE2E(ctx context.Context, bin string, w workload, in *inputs, dir string, setups int, seconds float64) (*e2eRun, error) {
	r := &e2eRun{}
	var c *child
	var cl *client
	for i := 0; i < setups; i++ {
		var setup float64
		var err error
		c, cl, setup, err = coldStart(ctx, bin, w, in, dir, i)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup)
		if i < setups-1 {
			cl.close()
			c.stop()
		}
	}
	defer c.stop()
	defer cl.close()

	r.warm = drive(ctx, cl, in, 0, in.warmup, nil, w.conns)
	if w.stateDir {
		// The cold build's first checkpoint is written in the background;
		// let it land before the measured window opens.
		err := waitFor(ctx, 60*time.Second, "the first checkpoint", func() (bool, error) {
			h, err := cl.healthz(ctx)
			return err == nil && h.Checkpoint.Writes > 0, err
		})
		if err != nil {
			return nil, err
		}
	}
	var err error
	if r.before, err = cl.healthz(ctx); err != nil {
		return nil, err
	}

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// Reads run until the deadline and, with a reloader, until its last
	// reload has finished too, so every reload is timed under read load.
	// The reloader makes at least w.reloads reloads: a reload takes about
	// as long as the window, so stopping at the deadline alone would
	// make one or two reloads, and a window of one or two reload times,
	// from run to run.
	var reloading atomic.Bool
	reloading.Store(w.reloader)
	var wg sync.WaitGroup
	if w.reloader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer reloading.Store(false)
			for ctx.Err() == nil && (len(r.reloads) < w.reloads || time.Now().Before(deadline)) {
				r.reloads = append(r.reloads, r.reload(ctx, cl))
			}
		}()
	}
	r.measured = drive(ctx, cl, in, in.warmup, 0, func() bool {
		return time.Now().Before(deadline) || reloading.Load()
	}, w.conns)
	wg.Wait()

	if r.after, err = cl.healthz(ctx); err != nil {
		return nil, err
	}
	if r.rssMB, err = c.peakRSSMB(); err != nil {
		return nil, err
	}
	if !w.reloader {
		// The read path did not reload; time the reloads now.
		for i := 0; i < w.reloads; i++ {
			r.reloads = append(r.reloads, r.reload(ctx, cl))
		}
	}
	r.ordered = append(append([]sample{}, r.warm.samples...), r.measured.samples...)
	return r, nil
}

// reload times one POST /reload, in seconds; a failure is counted
// (and fails the run).
func (r *e2eRun) reload(ctx context.Context, cl *client) float64 {
	t0 := time.Now()
	status, err := cl.do(ctx, http.MethodPost, "/reload", nil, nil)
	if err != nil || status != http.StatusOK {
		r.reloadFailed++
		fmt.Fprintf(os.Stderr, "perfbench: reload: status %d, %v\n", status, err)
	}
	return time.Since(t0).Seconds()
}

// checked is the verdict of the output checks over every answer.
type checked struct {
	top1 float64
	ok   int
	bad  []string
}

// checkAnswers validates every 200 answer — its SQL and each
// candidate's parse and bind against the schema — and scores top-1
// exact match against the gold with the repository's normalization
// over the first scored samples (the accuracy set).
func checkAnswers(in *inputs, samples []sample, scored int) checked {
	var out checked
	exact, answered := 0, 0
	for i, s := range samples {
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		out.ok++
		req := in.stream[s.pos%len(in.stream)]
		if s.generation == 0 {
			out.bad = append(out.bad, fmt.Sprintf("question %q: answer without a generation", req.question))
		}
		top := validAnswer(in.db, s.ans, &out.bad)
		if top == nil || i >= scored {
			continue
		}
		gold, err := parseBound(in.db, req.gold)
		if err != nil {
			out.bad = append(out.bad, fmt.Sprintf("gold %q: %v", req.gold, err))
			continue
		}
		answered++
		if norm.ExactMatch(top, gold) {
			exact++
		}
	}
	out.top1 = ratio(float64(exact), float64(answered))
	return out
}

// validAnswer parses and binds an answer's SQL and every candidate,
// returning the bound top-1, or nil after recording what is malformed.
func validAnswer(db *schema.Database, a *answer, bad *[]string) *sqlast.Query {
	if len(a.candidates) == 0 || a.candidates[0] != a.sql {
		*bad = append(*bad, fmt.Sprintf("answer %q: top-1 is not the first candidate", a.sql))
		return nil
	}
	top, err := parseBound(db, a.sql)
	if err != nil {
		*bad = append(*bad, fmt.Sprintf("answer %q: %v", a.sql, err))
		return nil
	}
	for _, c := range a.candidates[1:] {
		if _, err := parseBound(db, c); err != nil {
			*bad = append(*bad, fmt.Sprintf("candidate %q: %v", c, err))
			return nil
		}
	}
	return top
}

// repeatFrac is the share of sent questions already sent earlier in
// the run.
func repeatFrac(in *inputs, samples []sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	seen := map[string]bool{}
	rep := 0
	for _, s := range samples {
		q := in.stream[s.pos%len(in.stream)].question
		if seen[q] {
			rep++
		}
		seen[q] = true
	}
	return float64(rep) / float64(len(samples))
}
