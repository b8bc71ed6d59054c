// The serve mode runs GAR as an HTTP JSON service over one database
// or many:
//
//	gar serve -spec db.json -addr :8765
//	gar serve -demo
//	gar serve -specdir specs/ -statedir /var/lib/gar -maxtenants 16
//
// Every database is a tenant of one fleet registry (internal/fleet)
// and answers under its name:
//
//	POST /db/{name}/translate {"question": "who is the oldest employee"}
//	POST /db/{name}/reload
//	POST /db/{name}/feedback   (see serve_feedback.go)
//	GET  /db/{name}/healthz
//	GET  /db/{name}/readyz
//
// With -spec or -demo the fleet holds one tenant, named after the
// spec's database. It is activated before the server listens and is
// never evicted, and the root paths /translate, /reload, /feedback,
// /healthz and /readyz are aliases of its routes. With -specdir every
// {tenant}.json in the directory is a tenant: cold tenants activate on
// their first request, a bounded LRU working set evicts idle ones
// after a checkpoint flush, the root /healthz is the fleet roll-up and
// the root /readyz answers 200 once any tenant serves.
//
// Each request runs under a per-request timeout, the request body is
// size-limited, panics are recovered into 500 responses, and SIGINT or
// SIGTERM drains in-flight requests and flushes every resident
// tenant's final checkpoint before exiting.
//
// Every tenant is overload-protected on its own: an admission
// controller bounds concurrent translations and queues a bounded
// overflow with a deadline-aware wait (a request that would miss its
// deadline in the queue is shed immediately), answering sheds with
// 429 + Retry-After. A circuit breaker trips the re-ranking stage into
// retrieval-only degraded mode after repeated stage failures, and a
// reload hot-swaps the candidate pool and models from the spec with
// zero downtime (the old snapshot serves until the atomic swap).
//
// With -statedir the serving state is durable: a tenant warm-starts
// from its newest valid checkpoint (skipping Prepare and Train
// entirely), checkpoints in the background after every state change,
// and prunes old generations down to -keepckpt. The -spec tenant keeps
// its checkpoints at the root of -statedir, a -specdir tenant under
// -statedir/{tenant}/; the feedback WAL and spill runs sit in the
// feedback/ and spill/ subdirectories of either.
//
// -maxtenants, -tenantidle, -tenantinflight, -tenantqueue,
// -tenantmemlimit and -trainbudget shape the fleet and apply to
// -specdir only: the -spec tenant gets the whole -maxinflight,
// -maxqueue and -memlimit. -loadmodels applies to -spec only, since
// one model file cannot fit many schemas.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/gar"
	"repro/internal/admit"
	"repro/internal/checkpoint"
	"repro/internal/fleet"
)

// serveConfig holds the tunables of the HTTP surface; the admission,
// breaker and durability knobs live in fleet.Config.
type serveConfig struct {
	// Timeout bounds each translation (the request context is also
	// honored, so a disconnecting client cancels its work).
	Timeout time.Duration
	// MaxBody caps the request body size in bytes.
	MaxBody int64
	// TopK caps the candidates returned per translation.
	TopK int
	// ReloadTimeout bounds one reload (default 5m).
	ReloadTimeout time.Duration
}

type translateRequest struct {
	Question string `json:"question"`
}

type candidateJSON struct {
	SQL     string  `json:"sql"`
	Dialect string  `json:"dialect"`
	Score   float64 `json:"score"`
}

type translateResponse struct {
	// Tenant names the database that answered.
	Tenant     string          `json:"tenant,omitempty"`
	SQL        string          `json:"sql"`
	Dialect    string          `json:"dialect"`
	Degraded   bool            `json:"degraded,omitempty"`
	Warnings   []string        `json:"warnings,omitempty"`
	Candidates []candidateJSON `json:"candidates"`
	Generation uint64          `json:"generation"`
	ElapsedMS  float64         `json:"elapsed_ms"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// recoverMiddleware converts handler panics into JSON 500 responses.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeJSON(w, http.StatusInternalServerError,
					errorJSON{Error: fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// decodeTranslate reads and validates a translate request body, writing
// the error response itself when the body is unusable.
func decodeTranslate(w http.ResponseWriter, r *http.Request, maxBody int64) (translateRequest, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	var req translateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorJSON{Error: "bad request body: " + err.Error()})
		return req, false
	}
	if strings.TrimSpace(req.Question) == "" {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "empty question"})
		return req, false
	}
	return req, true
}

// writeAdmitError maps an admission failure: sheds answer 429 with a
// Retry-After hint; a context that ended while queued (client gone or
// deadline hit) answers 504.
func writeAdmitError(w http.ResponseWriter, err error) {
	if shed, ok := admit.AsShed(err); ok {
		w.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, errorJSON{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusGatewayTimeout, errorJSON{Error: err.Error()})
}

// writeTranslateError maps a pipeline failure; deadline and
// cancellation (the client went away — 499-style handling keeps logs
// honest) map to 504.
func writeTranslateError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// translateJSON renders a pipeline result, capping candidates at topK.
func translateJSON(res *gar.Result, topK int, start time.Time, tenant string) translateResponse {
	out := translateResponse{
		Tenant:     tenant,
		SQL:        res.SQL,
		Dialect:    res.Dialect,
		Degraded:   res.Degraded,
		Warnings:   res.Warnings,
		Generation: res.Generation,
		ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
	}
	for i, c := range res.Candidates {
		if i >= topK {
			break
		}
		out.Candidates = append(out.Candidates, candidateJSON{SQL: c.SQL, Dialect: c.Dialect, Score: c.Score})
	}
	return out
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// at least 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

//garlint:allow errlost -- a response-encode failure means the client hung up; there is no one left to tell
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// runServe is the `gar serve` entry point.
func runServe(args []string) {
	fs := flag.NewFlagSet("gar serve", flag.ExitOnError)
	addr := fs.String("addr", ":8765", "listen address")
	specPath := fs.String("spec", "", "path to the JSON database spec")
	demo := fs.Bool("demo", false, "use the built-in employee demo database")
	garJ := fs.Bool("j", false, "enable GAR-J (use join annotations)")
	pool := fs.Int("pool", 2000, "generalized candidate pool size")
	loadModels := fs.String("loadmodels", "", "-spec only: load ranking models instead of training")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request translation timeout")
	maxBody := fs.Int64("maxbody", 1<<20, "maximum request body size in bytes")
	topK := fs.Int("top", 5, "number of candidates returned per translation")
	maxInFlight := fs.Int("maxinflight", 8, "maximum concurrent translations")
	maxQueue := fs.Int("maxqueue", 16, "maximum queued translations before shedding")
	retryAfter := fs.Duration("retryafter", time.Second, "Retry-After hint on shed (429) responses")
	breakerFailures := fs.Int("breakfailures", 5, "consecutive re-rank failures that trip the circuit breaker")
	breakerCooldown := fs.Duration("breakcooldown", 2*time.Second, "how long a tripped breaker stays open before probing")
	noBreaker := fs.Bool("nobreaker", false, "disable the re-rank circuit breaker")
	noStageBudget := fs.Bool("nostagebudget", false, "disable per-stage deadline budgets")
	execGuide := fs.Bool("execguide", false, "execution-guided reranking: execute top candidates on a seeded sample instance and demote failures")
	execBudget := fs.Duration("execbudget", 25*time.Millisecond, "per-candidate execution budget under -execguide")
	workers := fs.Int("workers", 0, "parallel fan-out of encoding and re-rank scoring (0 = one per CPU)")
	cacheSize := fs.Int("cachesize", 1024, "entries per translation cache (embeddings, results)")
	noCache := fs.Bool("nocache", false, "disable the translation-path caches")
	stateDir := fs.String("statedir", "", "durable serving-state directory: warm-start from the newest valid checkpoint and checkpoint after every state change")
	keepCkpt := fs.Int("keepckpt", 3, "checkpoint generations retained in -statedir")
	specDir := fs.String("specdir", "", "directory of per-tenant JSON database specs ({tenant}.json): serve a multi-tenant fleet")
	maxTenants := fs.Int("maxtenants", 8, "-specdir only: tenants resident in memory at once (LRU eviction beyond)")
	tenantIdle := fs.Duration("tenantidle", 15*time.Minute, "-specdir only: evict tenants idle this long (0 disables)")
	tenantInFlight := fs.Int("tenantinflight", 0, "-specdir only: per-tenant concurrent translations (0 = maxinflight/maxtenants)")
	tenantQueue := fs.Int("tenantqueue", 0, "-specdir only: per-tenant queue depth (0 = maxqueue/maxtenants)")
	memLimit := fs.Int64("memlimit", 0, "serving-state memory budget in bytes: pool, embeddings and caches spill or degrade instead of growing past it (0 = unbounded)")
	tenantMemLimit := fs.Int64("tenantmemlimit", 0, "-specdir only: per-tenant share of -memlimit in bytes (0 = memlimit/maxtenants)")
	feedbackOn := fs.Bool("feedback", false, "accept POST /feedback into a durable WAL and retrain in the background (requires -statedir)")
	shadowThreshold := fs.Float64("shadowthreshold", 0, "how much worse (shadow top-1 exact match) a retrained candidate may score and still be promoted")
	trainInterval := fs.Duration("traininterval", 30*time.Second, "quiet window after feedback arrives before a background retrain starts")
	trainBudget := fs.Int("trainbudget", 1, "-specdir only: tenants allowed to retrain concurrently")
	if err := fs.Parse(args); err != nil {
		// Unreachable with ExitOnError, but the error stays handled if
		// the flag set's policy ever changes.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opts := gar.Options{
		GeneralizeSize:  *pool,
		JoinAnnotations: *garJ,
		Seed:            1,
		EncoderEpochs:   14,
		RerankEpochs:    40,
		Workers:         *workers,
		CacheSize:       *cacheSize,
		NoCache:         *noCache,
		ExecGuide:       *execGuide,
		ExecBudget:      *execBudget,
	}
	if !*noStageBudget {
		// Each stage gets a slice of the remaining deadline so a slow
		// re-rank degrades early instead of starving post-processing.
		opts.StageBudget = gar.StageBudget{Retrieval: 0.5, Rerank: 0.6, Postprocess: 0.7, ExecGuide: 0.9}
	}

	if *feedbackOn && *stateDir == "" {
		fatal(fmt.Errorf("gar serve: -feedback requires -statedir (the WAL lives in the state directory)"))
	}
	if *memLimit != 0 && *memLimit < minMemLimit {
		fatal(fmt.Errorf("gar serve: -memlimit %d bytes is below the %d-byte (1 MiB) floor: a budget that small cannot hold even a minimal serving snapshot; raise it or pass 0 for unbounded", *memLimit, minMemLimit))
	}

	src := &specDirSource{
		dir:        *specDir,
		specPath:   *specPath,
		demo:       *demo,
		stateDir:   *stateDir,
		loadModels: *loadModels,
		opts:       opts,
	}
	fcfg := fleet.Config{
		MaxActive:       *maxTenants,
		IdleAfter:       *tenantIdle,
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		TenantInFlight:  *tenantInFlight,
		TenantQueue:     *tenantQueue,
		RetryAfter:      *retryAfter,
		BreakerFailures: *breakerFailures,
		BreakerCooldown: *breakerCooldown,
		NoBreaker:       *noBreaker,
		Keep:            *keepCkpt,
		Feedback:        *feedbackOn,
		TrainInterval:   *trainInterval,
		ShadowThreshold: *shadowThreshold,
		TrainBudget:     *trainBudget,
		MemLimit:        *memLimit,
		TenantMemLimit:  *tenantMemLimit,
	}
	var names []string
	root := ""
	if *specDir != "" {
		if *specPath != "" || *demo {
			fatal(fmt.Errorf("gar serve: -specdir is exclusive with -spec and -demo"))
		}
		if *loadModels != "" {
			fatal(fmt.Errorf("gar serve: -loadmodels does not apply to -specdir: one model file cannot fit every tenant's schema"))
		}
		if *memLimit > 0 {
			// The fleet splits the process budget across resident
			// tenants; a share below the floor would start every tenant
			// degraded-by-construction.
			share := *tenantMemLimit
			if share <= 0 {
				share = *memLimit / int64(max(*maxTenants, 1))
			}
			if share < minMemLimit {
				fatal(fmt.Errorf("gar serve: the per-tenant memory share (%d bytes) is below the %d-byte (1 MiB) floor; raise -memlimit or -tenantmemlimit, or lower -maxtenants", share, minMemLimit))
			}
		}
		var err error
		if names, err = tenantNames(*specDir); err != nil {
			fatal(err)
		}
		if len(names) == 0 {
			fatal(fmt.Errorf("gar serve: no tenant specs (*.json) in %s", *specDir))
		}
	} else {
		s, err := loadSpec(*specPath, *demo)
		if err != nil {
			fatal(err)
		}
		root = specTenant(s)
		names = []string{root}
		// One tenant that is never evicted: its admission split and
		// memory share are the whole -maxinflight, -maxqueue and
		// -memlimit.
		fcfg.MaxActive, fcfg.IdleAfter = 1, 0
		fcfg.TenantInFlight, fcfg.TenantQueue, fcfg.TenantMemLimit = 0, 0, 0
	}
	serveFleet(*addr, src, fcfg, names, root, serveConfig{
		Timeout: *timeout,
		MaxBody: *maxBody,
		TopK:    *topK,
	})
}

// specTenant names the lone tenant of a -spec or -demo server: the
// spec's database name when it is a valid tenant name, "default"
// otherwise.
func specTenant(s *spec) string {
	if checkpoint.ValidTenantName(s.Database.Name) {
		return s.Database.Name
	}
	return "default"
}

// openFleet registers names with a new registry. A non-empty root is
// the lone tenant of a -spec server: it is activated before openFleet
// returns, so a build error surfaces here (the caller exits on it) and
// the server announces "ready" only after a published snapshot.
func openFleet(src fleet.Source, fcfg fleet.Config, names []string, root string) (*fleet.Registry, error) {
	reg := fleet.New(src, fcfg)
	for _, name := range names {
		if err := reg.Register(name); err != nil {
			return nil, err
		}
	}
	if root != "" {
		h, err := reg.Acquire(context.Background(), root)
		if err != nil {
			return nil, err
		}
		h.Release()
	}
	return reg, nil
}

// serveFleet serves the tenants until SIGINT or SIGTERM, then drains
// the requests and flushes every tenant.
func serveFleet(addr string, src fleet.Source, fcfg fleet.Config, names []string, root string, cfg serveConfig) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gar serve: "+format+"\n", args...)
	}
	fcfg.Logf = logf
	reg, err := openFleet(src, fcfg, names, root)
	if err != nil {
		fatal(err)
	}
	what := fmt.Sprintf("fleet of %d tenants", len(names))
	if root != "" {
		th, err := reg.TenantHealth(root)
		if err != nil {
			fatal(err)
		}
		what = fmt.Sprintf("%d candidate queries", th.Pool)
	}

	srv := &http.Server{
		Addr:              addr,
		Handler:           newFleetHandler(reg, cfg, root),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// Listen before announcing readiness so the logged address is the
	// bound one (":0" resolves to a real port — the restart tests rely
	// on reading it back).
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	logf("%s ready on %s", what, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Idle reaper: periodically evict tenants idle past -tenantidle,
	// each flushed before its snapshot is dropped.
	if fcfg.IdleAfter > 0 {
		go func() {
			period := max(fcfg.IdleAfter/4, time.Second)
			tick := time.NewTicker(period)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if n := reg.EvictIdle(ctx); n > 0 {
						logf("idle reaper evicted %d tenant(s)", n)
					}
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	logf("draining connections")
	// One window bounds the whole sequence — drain every tenant's
	// in-flight requests, then flush every tenant's final checkpoint —
	// so a slow drain cannot silently double the time to exit.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fatal(err)
	}
	if err := reg.Shutdown(shutdownCtx); err != nil {
		logf("fleet shutdown: %v", err)
	} else {
		logf("fleet flushed and stopped")
	}
}

// shutdownTimeout bounds the whole graceful-shutdown sequence: the
// request drain and the final checkpoint flushes share it.
const shutdownTimeout = 10 * time.Second

// minMemLimit is the smallest admissible -memlimit (1 MiB). Below it
// not even a minimal snapshot — schema bindings, a handful of
// candidates and their embeddings — fits, so the server would start
// degraded by construction; that configuration is rejected up front.
const minMemLimit = 1 << 20
