package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/gar"
	"repro/internal/fleet"
)

// testTenant is the lone tenant of the one-tenant test servers, named
// as `gar serve -demo` names it.
var testTenant = specTenant(demoSpec())

// newTestServer assembles a one-tenant server the way `gar serve -spec`
// does: a registry of one never-evicted tenant, activated before the
// first request, behind the handler with root-path aliases.
func newTestServer(t *testing.T, src fleet.Source, fcfg fleet.Config, cfg serveConfig) (*fleet.Registry, http.Handler) {
	t.Helper()
	fcfg.MaxActive, fcfg.IdleAfter = 1, 0
	reg, err := openFleet(src, fcfg, []string{testTenant}, testTenant)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := reg.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return reg, newFleetHandler(reg, cfg, testTenant)
}

// demoSource serves the built-in demo spec as `gar serve -demo` does.
func demoSource() *specDirSource {
	return &specDirSource{demo: true, opts: testServeOpts()}
}

// testHandler is a one-tenant demo server with default fleet limits.
func testHandler(t *testing.T, cfg serveConfig) http.Handler {
	t.Helper()
	_, h := newTestServer(t, demoSource(), fleet.Config{}, cfg)
	return h
}

// sysSource is a one-tenant fleet.Source over a prebuilt system, so a
// test can serve exactly the system it built — fault injector already
// installed, say. Reload runs the test's hook.
type sysSource struct {
	sys    *gar.System
	reload func(ctx context.Context, sys *gar.System) error
}

func (s *sysSource) Cold(string) (*gar.System, error) { return s.sys, nil }

func (s *sysSource) Deploy(_ context.Context, _ string, sys *gar.System) (bool, error) {
	return sys.Ready(), nil
}

func (s *sysSource) Reload(ctx context.Context, _ string, sys *gar.System) error {
	if s.reload == nil {
		return errors.New("no reload hook")
	}
	return s.reload(ctx, sys)
}

func (s *sysSource) StateDir(string) string { return "" }

func postTranslate(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/translate", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestServeTranslateAndHealthz(t *testing.T) {
	h := testHandler(t, serveConfig{})

	rec := postTranslate(h, `{"question": "how many employees are there"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("translate status %d: %s", rec.Code, rec.Body)
	}
	var resp translateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	ok, err := gar.ExactMatch(resp.SQL, "SELECT COUNT(*) FROM employee")
	if err != nil || !ok {
		t.Errorf("served translation wrong: %s (%v)", resp.SQL, err)
	}
	if resp.Degraded || len(resp.Candidates) == 0 {
		t.Errorf("unexpected response shape: %+v", resp)
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, req)
	if hrec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", hrec.Code)
	}
	var health struct {
		Status string `json:"status"`
		Pool   int    `json:"pool"`
	}
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Pool == 0 {
		t.Errorf("healthz: %+v", health)
	}
}

func TestServeRequestValidation(t *testing.T) {
	h := testHandler(t, serveConfig{MaxBody: 256})

	if rec := postTranslate(h, `{"question": ""}`); rec.Code != http.StatusBadRequest {
		t.Errorf("empty question: status %d", rec.Code)
	}
	if rec := postTranslate(h, `not json`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", rec.Code)
	}
	big := `{"question": "` + strings.Repeat("x", 4096) + `"}`
	if rec := postTranslate(h, big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/translate", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /translate: status %d", rec.Code)
	}
	// Every error path must answer JSON with an error field.
	var e errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("error response not JSON: %s", rec.Body)
	}
}

func TestServeTimeout(t *testing.T) {
	// A nanosecond budget cannot finish retrieval: the request must
	// come back 504, not hang or crash.
	h := testHandler(t, serveConfig{Timeout: time.Nanosecond})
	rec := postTranslate(h, `{"question": "how many employees are there"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout status %d: %s", rec.Code, rec.Body)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	h := recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d", rec.Code)
	}
	if !bytes.Contains(rec.Body.Bytes(), []byte("handler bug")) {
		t.Errorf("panic message lost: %s", rec.Body)
	}
}

// TestServeHealthzReportsCaches pins the cache counters surfaced by
// /healthz: a repeated question must hit the translation cache, and the
// hit/miss/size numbers must be visible to operators.
func TestServeHealthzReportsCaches(t *testing.T) {
	h := testHandler(t, serveConfig{})
	for i := 0; i < 2; i++ {
		if rec := postTranslate(h, `{"question": "how many employees are there"}`); rec.Code != http.StatusOK {
			t.Fatalf("translate %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var health struct {
		Caches struct {
			Translations struct {
				Hits   uint64 `json:"hits"`
				Misses uint64 `json:"misses"`
				Size   int    `json:"size"`
			} `json:"translations"`
			Embeddings struct {
				Size int `json:"size"`
			} `json:"embeddings"`
		} `json:"caches"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	tc := health.Caches.Translations
	if tc.Hits != 1 || tc.Misses != 1 || tc.Size != 1 {
		t.Errorf("translation cache counters = %+v", tc)
	}
	if health.Caches.Embeddings.Size != 1 {
		t.Errorf("embedding cache size = %d, want 1", health.Caches.Embeddings.Size)
	}
}
