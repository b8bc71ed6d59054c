package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/gar"
	"repro/internal/faults"
	"repro/internal/fleet"
)

func testServeOpts() gar.Options {
	return gar.Options{
		GeneralizeSize: 200, RetrievalK: 10, Seed: 1,
		EncoderEpochs: 12, RerankEpochs: 30,
	}
}

func getJSON(t *testing.T, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("GET %s: not JSON: %s", path, rec.Body)
	}
	return rec.Code, m
}

func postReload(h http.Handler) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/reload", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeNotReady: before any snapshot is published the service must
// refuse work loudly — 503 everywhere a probe or client looks.
func TestServeNotReady(t *testing.T) {
	db := gar.NewDatabase("empty")
	db.AddTable("t", gar.Key("id"), gar.NumberColumn("id", "identifier"))
	sys, err := gar.New(db, gar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, h := newTestServer(t, &sysSource{sys: sys}, fleet.Config{}, serveConfig{})

	rec := postTranslate(h, `{"question": "anything"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("translate on unready system: status %d", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("unready translate shed without Retry-After")
	}

	code, body := getJSON(t, h, "/readyz")
	if code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Errorf("readyz on unready system: %d %v", code, body)
	}
	code, body = getJSON(t, h, "/healthz")
	if code != http.StatusServiceUnavailable || body["status"] != "unavailable" {
		t.Errorf("healthz on unready system: %d %v", code, body)
	}
}

// TestServeReadyzHealthz checks the happy-path shape of both probes.
func TestServeReadyzHealthz(t *testing.T) {
	_, h := newTestServer(t, demoSource(), fleet.Config{MaxInFlight: 4}, serveConfig{})

	code, body := getJSON(t, h, "/readyz")
	if code != http.StatusOK || body["ready"] != true {
		t.Fatalf("readyz: %d %v", code, body)
	}
	if body["generation"].(float64) < 1 {
		t.Errorf("readyz generation: %v", body["generation"])
	}

	code, body = getJSON(t, h, "/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
	br := body["breaker"].(map[string]any)
	if br["state"] != "closed" {
		t.Errorf("healthz breaker state: %v", br["state"])
	}
	adm := body["admission"].(map[string]any)
	if adm["max_in_flight"].(float64) != 4 {
		t.Errorf("healthz admission: %v", adm)
	}
}

// TestServeHealthzDegraded: a tripped re-rank breaker keeps the service
// serving (readyz 200) but flips /healthz to degraded so operators see
// the reduced answer quality.
func TestServeHealthzDegraded(t *testing.T) {
	sys, _, err := buildSystem(demoSpec(), testServeOpts(), "")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(1).Fail(faults.Rerank, errors.New("reranker down"))
	sys.SetFaultInjector(inj)
	_, h := newTestServer(t, &sysSource{sys: sys},
		fleet.Config{BreakerFailures: 1, BreakerCooldown: time.Hour}, serveConfig{})

	rec := postTranslate(h, `{"question": "how many employees are there"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded translate: status %d: %s", rec.Code, rec.Body)
	}
	var resp translateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Error("re-rank failure not flagged degraded")
	}

	code, body := getJSON(t, h, "/healthz")
	if code != http.StatusOK || body["status"] != "degraded" {
		t.Errorf("healthz with open breaker: %d %v", code, body)
	}
	if br := body["breaker"].(map[string]any); br["state"] != "open" {
		t.Errorf("healthz breaker: %v", br)
	}
	if code, body := getJSON(t, h, "/readyz"); code != http.StatusOK || body["ready"] != true {
		t.Errorf("degraded service must stay ready: %d %v", code, body)
	}
}

// TestServeBurstSheds saturates the service deterministically (a fault
// gate parks admitted requests inside retrieval) and checks the
// admission contract: bounded in-flight work, every excess arrival shed
// immediately with 429 + Retry-After, and every admitted request served
// once the stall clears.
func TestServeBurstSheds(t *testing.T) {
	sys, _, err := buildSystem(demoSpec(), testServeOpts(), "")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(1)
	release := inj.Block(faults.Retrieval)
	defer release()
	sys.SetFaultInjector(inj)

	_, h := newTestServer(t, &sysSource{sys: sys}, fleet.Config{
		MaxInFlight: 2,
		MaxQueue:    2,
		RetryAfter:  3 * time.Second,
		NoBreaker:   true,
	}, serveConfig{Timeout: 10 * time.Second})

	type result struct {
		code       int
		retryAfter string
	}
	results := make(chan result, 16)
	post := func() {
		rec := postTranslate(h, `{"question": "how many employees are there"}`)
		results <- result{rec.Code, rec.Header().Get("Retry-After")}
	}
	admission := func() map[string]any {
		_, body := getJSON(t, h, "/healthz")
		return body["admission"].(map[string]any)
	}

	// Fill both worker slots; the holders park inside retrieval.
	go post()
	go post()
	waitFor(t, "slot holders to park in retrieval", func() bool {
		return inj.Calls(faults.Retrieval) == 2
	})
	// Fill both queue slots.
	go post()
	go post()
	waitFor(t, "queue to fill", func() bool {
		return admission()["queued"].(float64) == 2
	})

	// Saturated: every further arrival must shed synchronously with
	// 429 and a Retry-After hint, without touching the pipeline.
	for i := 0; i < 6; i++ {
		go post()
	}
	for i := 0; i < 6; i++ {
		r := <-results
		if r.code != http.StatusTooManyRequests {
			t.Fatalf("saturated request %d: status %d, want 429", i, r.code)
		}
		if r.retryAfter != "3" {
			t.Fatalf("shed %d: Retry-After %q, want \"3\"", i, r.retryAfter)
		}
	}
	if got := inj.Calls(faults.Retrieval); got != 2 {
		t.Fatalf("shed requests reached the pipeline: %d retrieval calls, want 2", got)
	}

	// Open the gate: all four admitted requests complete.
	release()
	for i := 0; i < 4; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("admitted request %d after release: status %d", i, r.code)
		}
	}

	adm := admission()
	if adm["admitted"].(float64) != 4 {
		t.Errorf("admitted: %v, want 4", adm["admitted"])
	}
	if adm["shed_queue_full"].(float64) != 6 {
		t.Errorf("shed_queue_full: %v, want 6", adm["shed_queue_full"])
	}
	if peak := adm["peak_in_flight"].(float64); peak > 2 {
		t.Errorf("peak_in_flight: %v, want <= 2", peak)
	}
	if adm["in_flight"].(float64) != 0 || adm["queued"].(float64) != 0 {
		t.Errorf("occupancy after drain: %v", adm)
	}
}

// TestServeReload: POST /reload swaps in a new generation with zero
// downtime, concurrent reloads are refused with 409, and a failing
// reload reports honestly.
func TestServeReload(t *testing.T) {
	sys, _, models, err := buildSystemModels(demoSpec(), testServeOpts(), "")
	if err != nil {
		t.Fatal(err)
	}
	src := &sysSource{sys: sys, reload: func(ctx context.Context, sys *gar.System) error {
		_, err := sys.Swap(demoSpec().Samples, models)
		return err
	}}
	_, h := newTestServer(t, src, fleet.Config{}, serveConfig{})

	before := sys.Generation()
	rec := postReload(h)
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Generation uint64 `json:"generation"`
		Pool       int    `json:"pool"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Generation != before+1 || out.Pool == 0 {
		t.Errorf("reload response: %+v (generation before: %d)", out, before)
	}
	if rec := postTranslate(h, `{"question": "how many employees are there"}`); rec.Code != http.StatusOK {
		t.Errorf("translate after reload: status %d", rec.Code)
	}

	// Method and reload errors.
	req := httptest.NewRequest(http.MethodGet, "/reload", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, req)
	if mrec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /reload: status %d", mrec.Code)
	}
	src.reload = func(ctx context.Context, sys *gar.System) error { return errors.New("spec unreadable") }
	if rec := postReload(h); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("failing reload: status %d", rec.Code)
	}

	// A reload in progress makes a second one bounce with 409 instead
	// of queueing behind it.
	entered := make(chan struct{})
	proceed := make(chan struct{})
	src.reload = func(ctx context.Context, sys *gar.System) error {
		close(entered)
		<-proceed
		return nil
	}
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postReload(h) }()
	<-entered
	if rec := postReload(h); rec.Code != http.StatusConflict {
		t.Errorf("concurrent reload: status %d, want 409", rec.Code)
	}
	close(proceed)
	if rec := <-first; rec.Code != http.StatusOK {
		t.Errorf("blocked reload after release: status %d", rec.Code)
	}
}
