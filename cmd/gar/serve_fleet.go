package main

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/gar"
	"repro/internal/breaker"
	"repro/internal/fleet"
)

// specDirSource is the fleet.Source of `gar serve`: it builds tenant
// systems from JSON specs — {dir}/{tenant}.json under -specdir, or the
// one -spec file (or the built-in demo) for a one-tenant server. The
// registry calls it concurrently for different tenants.
type specDirSource struct {
	dir      string // -specdir; empty for the one-tenant server
	specPath string // -spec; empty with demo
	demo     bool
	// stateDir is -statedir: the one tenant's state lives at its root,
	// a -specdir tenant's under {stateDir}/{tenant}.
	stateDir   string
	loadModels string // -spec only
	opts       gar.Options
}

func (s *specDirSource) load(name string) (*spec, error) {
	if s.dir == "" {
		return loadSpec(s.specPath, s.demo)
	}
	return loadSpec(filepath.Join(s.dir, name+".json"), false)
}

// StateDir keeps the single-database layout for -spec (checkpoints at
// the root of -statedir) and gives each -specdir tenant its own
// subdirectory.
func (s *specDirSource) StateDir(name string) string {
	if s.dir == "" || s.stateDir == "" {
		return s.stateDir
	}
	return filepath.Join(s.stateDir, name)
}

// Cold assembles the schema-bound shell the registry warm-starts or
// deploys into.
func (s *specDirSource) Cold(name string) (*gar.System, error) {
	sp, err := s.load(name)
	if err != nil {
		return nil, err
	}
	sys, _, err := newSystem(sp, s.opts)
	return sys, err
}

// Deploy cold-builds the tenant from its spec: prepare the pool and
// train (or no-op for a schema-only spec, which serves 503 until a
// reload provides samples).
func (s *specDirSource) Deploy(ctx context.Context, name string, sys *gar.System) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	sp, err := s.load(name)
	if err != nil {
		return false, err
	}
	if len(sp.Samples) == 0 {
		return false, nil
	}
	if _, err := deploySystem(sys, sp, s.opts, s.loadModels); err != nil {
		return false, err
	}
	return true, nil
}

// Reload re-reads the tenant's spec, rebuilds pool/models/content off
// to the side, and swaps them into the live system atomically.
func (s *specDirSource) Reload(ctx context.Context, name string, sys *gar.System) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp, err := s.load(name)
	if err != nil {
		return err
	}
	content, models, err := reloadModels(sp, s.opts, s.loadModels)
	if err != nil {
		return err
	}
	if content != nil {
		sys.SetContent(content)
	}
	_, err = sys.Swap(sp.Samples, models)
	return err
}

// FeedbackBase loads the tenant's committed corpus for the online
// trainer; implementing fleet.FeedbackSource opts the fleet into the
// feedback loop.
func (s *specDirSource) FeedbackBase(name string) (gar.BaseData, error) {
	sp, err := s.load(name)
	if err != nil {
		return gar.BaseData{}, err
	}
	return specBase(sp), nil
}

// tenantNames lists the tenants of a spec directory: the stem of every
// *.json file.
func tenantNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names, nil
}

// fleetServer routes per-database requests to the tenant registry.
type fleetServer struct {
	reg *fleet.Registry
	cfg serveConfig
}

// newFleetHandler assembles the router with the panic-recovery
// middleware outermost, so no handler bug can kill the process. Every
// tenant answers under /db/{name}/. With root set (the one-tenant
// -spec server) the root paths alias root's routes; otherwise the root
// /healthz and /readyz describe the whole fleet.
func newFleetHandler(reg *fleet.Registry, cfg serveConfig, root string) http.Handler {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 5
	}
	if cfg.ReloadTimeout <= 0 {
		cfg.ReloadTimeout = 5 * time.Minute
	}
	s := &fleetServer{reg: reg, cfg: cfg}
	mux := http.NewServeMux()
	// handle registers one route; any other method on its path answers
	// 405 in JSON, like every other error.
	handle := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+path, h)
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", method)
			writeJSON(w, http.StatusMethodNotAllowed, errorJSON{Error: "use " + method})
		})
	}
	for _, rt := range []struct {
		method, path string
		h            func(w http.ResponseWriter, r *http.Request, name string)
	}{
		{http.MethodPost, "/translate", s.handleTranslate},
		{http.MethodPost, "/reload", s.handleReload},
		{http.MethodPost, "/feedback", s.handleFeedback},
		{http.MethodGet, "/healthz", s.handleTenantHealthz},
		{http.MethodGet, "/readyz", s.handleTenantReadyz},
	} {
		handle(rt.method, "/db/{name}"+rt.path, func(w http.ResponseWriter, r *http.Request) {
			rt.h(w, r, r.PathValue("name"))
		})
		if root != "" {
			handle(rt.method, rt.path, func(w http.ResponseWriter, r *http.Request) { rt.h(w, r, root) })
		}
	}
	if root == "" {
		handle(http.MethodGet, "/healthz", s.handleHealthz)
		handle(http.MethodGet, "/readyz", s.handleReadyz)
	}
	return recoverMiddleware(mux)
}

// writeAcquireError maps a registry acquire/reload failure onto the
// HTTP surface: unknown tenant 404, saturated working set 429 with
// Retry-After, closed registry 503, an activation still running at the
// request's deadline 503 with Retry-After (the build continues; the
// client should come back), anything else 503.
func writeAcquireError(w http.ResponseWriter, err error) {
	var sat *fleet.SaturatedError
	switch {
	case errors.Is(err, fleet.ErrUnknownTenant):
		writeJSON(w, http.StatusNotFound, errorJSON{Error: err.Error()})
	case errors.As(err, &sat):
		w.Header().Set("Retry-After", retryAfterSeconds(sat.RetryAfter))
		writeJSON(w, http.StatusTooManyRequests, errorJSON{Error: err.Error()})
	case errors.Is(err, fleet.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "tenant still activating: " + err.Error()})
	default:
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: err.Error()})
	}
}

func (s *fleetServer) handleTranslate(w http.ResponseWriter, r *http.Request, name string) {
	req, ok := decodeTranslate(w, r, s.cfg.MaxBody)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()

	h, err := s.reg.Acquire(ctx, name)
	if err != nil {
		writeAcquireError(w, err)
		return
	}
	defer h.Release()
	if !h.Sys().Ready() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "tenant " + name + ": no snapshot published"})
		return
	}
	// Per-tenant admission: this tenant's budget, not the fleet's — a
	// burst here sheds here and nowhere else.
	release, err := h.Admit(ctx)
	if err != nil {
		writeAdmitError(w, err)
		return
	}
	defer release()

	start := time.Now()
	res, err := h.Sys().TranslateContext(ctx, req.Question)
	if err != nil {
		writeTranslateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, translateJSON(res, s.cfg.TopK, start, name))
}

func (s *fleetServer) handleReload(w http.ResponseWriter, r *http.Request, name string) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.ReloadTimeout)
	defer cancel()
	start := time.Now()
	gen, pool, err := s.reg.Reload(ctx, name)
	if err != nil {
		if errors.Is(err, fleet.ErrReloadInProgress) {
			writeJSON(w, http.StatusConflict, errorJSON{Error: err.Error()})
			return
		}
		if errors.Is(err, fleet.ErrUnknownTenant) || errors.As(err, new(*fleet.SaturatedError)) ||
			errors.Is(err, fleet.ErrClosed) {
			writeAcquireError(w, err)
			return
		}
		writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: "reload failed: " + err.Error()})
		return
	}
	out := map[string]any{
		"tenant":     name,
		"generation": gen,
		"pool":       pool,
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *fleetServer) handleTenantHealthz(w http.ResponseWriter, r *http.Request, name string) {
	th, err := s.reg.TenantHealth(name)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: err.Error()})
		return
	}
	status := http.StatusOK
	if !th.Serving() {
		// Cold, activating, evicting or unavailable: not serving now.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, th)
}

func (s *fleetServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.reg.Health()
	status := http.StatusOK
	if h.Status == "unavailable" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// readyJSON is the body of both readiness probes.
type readyJSON struct {
	Ready      bool              `json:"ready"`
	Reason     string            `json:"reason,omitempty"`
	Generation uint64            `json:"generation,omitempty"`
	Breaker    *breaker.Snapshot `json:"breaker,omitempty"`
}

// handleTenantReadyz is one tenant's readiness probe: 200 exactly while
// it serves a published snapshot (a tripped breaker still serves),
// 503 otherwise. Unlike a request it never activates a cold tenant.
func (s *fleetServer) handleTenantReadyz(w http.ResponseWriter, r *http.Request, name string) {
	th, err := s.reg.TenantHealth(name)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: err.Error()})
		return
	}
	if !th.Serving() {
		writeJSON(w, http.StatusServiceUnavailable, readyJSON{Reason: "tenant " + th.Status, Breaker: th.Breaker})
		return
	}
	writeJSON(w, http.StatusOK, readyJSON{Ready: true, Generation: th.Generation, Breaker: th.Breaker})
}

// handleReadyz gates fleet readiness on the first published snapshot:
// 503 until at least one tenant serves.
func (s *fleetServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.reg.AnyReady() {
		writeJSON(w, http.StatusServiceUnavailable, readyJSON{Reason: "no tenant has a published snapshot"})
		return
	}
	writeJSON(w, http.StatusOK, readyJSON{Ready: true})
}
