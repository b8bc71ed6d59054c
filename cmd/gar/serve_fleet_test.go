package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/gar"
	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/fleet"
)

// writeSpecDir lays down one demo spec per tenant name and returns the
// directory, ready for -specdir.
func writeSpecDir(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	data, err := json.Marshal(demoSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// newTestFleet assembles a registry over a spec directory plus the
// fleet handler in front of it.
func newTestFleet(t *testing.T, src fleet.Source, fcfg fleet.Config, cfg serveConfig, names ...string) (*fleet.Registry, http.Handler) {
	t.Helper()
	reg := fleet.New(src, fcfg)
	for _, name := range names {
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = reg.Shutdown(ctx)
	})
	return reg, newFleetHandler(reg, cfg, "")
}

func postFleetTranslate(h http.Handler, tenant, question string) *httptest.ResponseRecorder {
	body := fmt.Sprintf(`{"question": %q}`, question)
	req := httptest.NewRequest(http.MethodPost, "/db/"+tenant+"/translate", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func postFleetReload(h http.Handler, tenant string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/db/"+tenant+"/reload", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestFleetHandlerRoutingAndHealth covers the per-database surface end
// to end in process: readyz flips on the first published snapshot,
// translate routes by path and stamps the tenant, unknown names 404,
// and both health endpoints tell the truth about a half-cold fleet.
func TestFleetHandlerRoutingAndHealth(t *testing.T) {
	dir := writeSpecDir(t, "alpha", "beta")
	src := &specDirSource{dir: dir, opts: testServeOpts()}
	reg, h := newTestFleet(t, src, fleet.Config{}, serveConfig{}, "alpha", "beta")

	// Before any request, no tenant has a snapshot: not ready.
	if code, body := getJSON(t, h, "/readyz"); code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("cold readyz = %d %v, want 503 not-ready", code, body)
	}

	rec := postFleetTranslate(h, "alpha", "how many employees are there")
	if rec.Code != http.StatusOK {
		t.Fatalf("translate status %d: %s", rec.Code, rec.Body)
	}
	var resp translateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "alpha" {
		t.Errorf("response tenant = %q, want alpha", resp.Tenant)
	}
	if ok, err := gar.ExactMatch(resp.SQL, "SELECT COUNT(*) FROM employee"); err != nil || !ok {
		t.Errorf("served translation wrong: %s (%v)", resp.SQL, err)
	}

	if code, body := getJSON(t, h, "/readyz"); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("readyz after first snapshot = %d %v, want 200 ready", code, body)
	}

	// Unknown tenants 404 on every per-database route.
	if rec := postFleetTranslate(h, "gamma", "x"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown tenant translate = %d, want 404", rec.Code)
	}
	if code, _ := getJSON(t, h, "/db/gamma/healthz"); code != http.StatusNotFound {
		t.Errorf("unknown tenant healthz = %d, want 404", code)
	}
	if rec := postFleetReload(h, "gamma"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown tenant reload = %d, want 404", rec.Code)
	}

	// Per-tenant health: alpha serves, beta is still cold (503 row).
	if code, body := getJSON(t, h, "/db/alpha/healthz"); code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("alpha healthz = %d %v", code, body)
	}
	if code, body := getJSON(t, h, "/db/beta/healthz"); code != http.StatusServiceUnavailable || body["status"] != "cold" {
		t.Errorf("cold beta healthz = %d %v, want 503 cold", code, body)
	}

	// Fleet roll-up: a cold sibling is a fact of a bounded working set,
	// not degradation.
	code, body := getJSON(t, h, "/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("fleet healthz = %d %v", code, body)
	}
	tenants := body["tenants"].(map[string]any)
	if len(tenants) != 2 {
		t.Fatalf("roll-up covers %d tenants, want 2", len(tenants))
	}
	if st := tenants["alpha"].(map[string]any)["status"]; st != "ok" {
		t.Errorf("alpha roll-up status = %v", st)
	}
	if st := tenants["beta"].(map[string]any)["state"]; st != "cold" {
		t.Errorf("beta roll-up state = %v", st)
	}
	if reg.Health().Known != 2 {
		t.Errorf("registry knows %d tenants", reg.Health().Known)
	}

	// Request validation matches the single-tenant surface.
	if rec := postFleetTranslate(h, "alpha", ""); rec.Code != http.StatusBadRequest {
		t.Errorf("empty question = %d, want 400", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/db/alpha/translate", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, req)
	if mrec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET translate = %d, want 405", mrec.Code)
	}
}

// gatedFleetSource wraps specDirSource so a test can park one tenant's
// reload at a gate, after announcing itself on entered.
type gatedFleetSource struct {
	*specDirSource
	mu      sync.Mutex
	gate    map[string]chan struct{}
	entered chan string
}

func (g *gatedFleetSource) Reload(ctx context.Context, name string, sys *gar.System) error {
	g.mu.Lock()
	gate := g.gate[name]
	g.mu.Unlock()
	if gate != nil {
		g.entered <- name
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-gate:
		}
	}
	return g.specDirSource.Reload(ctx, name, sys)
}

// TestFleetHandlerReloadScoping pins the per-tenant 409: while alpha's
// reload is in flight a second alpha reload conflicts, but beta
// reloads concurrently without contention.
func TestFleetHandlerReloadScoping(t *testing.T) {
	dir := writeSpecDir(t, "alpha", "beta")
	gate := make(chan struct{})
	src := &gatedFleetSource{
		specDirSource: &specDirSource{dir: dir, opts: testServeOpts()},
		gate:          map[string]chan struct{}{"alpha": gate},
		entered:       make(chan string, 1),
	}
	_, h := newTestFleet(t, src, fleet.Config{}, serveConfig{}, "alpha", "beta")

	if rec := postFleetTranslate(h, "alpha", "how many employees are there"); rec.Code != http.StatusOK {
		t.Fatalf("activate alpha: %d %s", rec.Code, rec.Body)
	}

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postFleetReload(h, "alpha") }()
	<-src.entered // the reload now holds alpha's lock at the gate

	if rec := postFleetReload(h, "alpha"); rec.Code != http.StatusConflict {
		t.Fatalf("concurrent alpha reload = %d %s, want 409", rec.Code, rec.Body)
	}
	// The conflict is scoped: beta reloads fine in the middle of it.
	if rec := postFleetReload(h, "beta"); rec.Code != http.StatusOK {
		t.Fatalf("beta reload during alpha's = %d %s", rec.Code, rec.Body)
	}

	close(gate)
	rec := <-first
	if rec.Code != http.StatusOK {
		t.Fatalf("gated alpha reload = %d %s", rec.Code, rec.Body)
	}
	var out struct {
		Tenant     string  `json:"tenant"`
		Generation uint64  `json:"generation"`
		ElapsedMS  float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != "alpha" || out.Generation == 0 {
		t.Errorf("reload response = %+v", out)
	}
}

// TestFleetBurstSheds saturates one tenant's admission budget and
// proves the shed is tenant-scoped and deterministic: the overflow is
// refused with 429 and the configured Retry-After, the sibling keeps
// serving 200s, and the parked requests complete once released.
func TestFleetBurstSheds(t *testing.T) {
	dir := writeSpecDir(t, "alpha", "beta")
	src := &specDirSource{dir: dir, opts: testServeOpts()}
	reg, h := newTestFleet(t, src,
		fleet.Config{TenantInFlight: 1, TenantQueue: 1, RetryAfter: 7 * time.Second},
		serveConfig{Timeout: time.Minute}, "alpha", "beta")

	if rec := postFleetTranslate(h, "alpha", "how many employees are there"); rec.Code != http.StatusOK {
		t.Fatalf("activate alpha: %d %s", rec.Code, rec.Body)
	}

	// Pin alpha and park every admitted request inside retrieval.
	hnd, err := reg.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer hnd.Release()
	inj := faults.NewInjector(1)
	release := inj.Block(faults.Retrieval)
	defer release()
	hnd.Sys().SetFaultInjector(inj)

	parked := make(chan *httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		go func() { parked <- postFleetTranslate(h, "alpha", "who is the oldest employee") }()
	}
	waitFor(t, "alpha to saturate (1 slot + 1 queued)", func() bool {
		st := reg.Health().Tenants["alpha"].Admission
		return st.InFlight == 1 && st.Queued == 1
	})

	for i := 0; i < 3; i++ {
		rec := postFleetTranslate(h, "alpha", "who is the oldest employee")
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("overflow %d = %d %s, want 429", i, rec.Code, rec.Body)
		}
		if ra := rec.Header().Get("Retry-After"); ra != "7" {
			t.Fatalf("overflow %d Retry-After = %q, want \"7\"", i, ra)
		}
	}
	// The sibling's budget is untouched: beta activates and serves.
	if rec := postFleetTranslate(h, "beta", "how many employees are there"); rec.Code != http.StatusOK {
		t.Fatalf("beta during alpha's burst = %d %s", rec.Code, rec.Body)
	}

	release()
	for i := 0; i < 2; i++ {
		if rec := <-parked; rec.Code != http.StatusOK {
			t.Fatalf("parked request %d after release = %d %s", i, rec.Code, rec.Body)
		}
	}
	health := reg.Health()
	if n := health.Tenants["alpha"].Admission.ShedQueueFull; n != 3 {
		t.Errorf("alpha shed %d requests, want exactly 3", n)
	}
	if st := health.Tenants["beta"].Admission; st.ShedQueueFull != 0 || st.ShedDeadline != 0 {
		t.Errorf("beta shed requests during alpha's burst: %+v", st)
	}
}

const (
	serveFleetSpecEnv  = "GAR_FLEET_SPEC_DIR"
	serveFleetStateEnv = "GAR_FLEET_STATE_DIR"
)

// TestServeFleetServerHelper is the child body for the fleet restart
// test: the real runServe in fleet mode against directories passed in
// the environment.
func TestServeFleetServerHelper(t *testing.T) {
	specDir := os.Getenv(serveFleetSpecEnv)
	if specDir == "" {
		t.Skip("helper process body; run via TestServeFleetRestartSIGTERM")
	}
	runServe([]string{
		"-specdir", specDir,
		"-statedir", os.Getenv(serveFleetStateEnv),
		"-addr", "127.0.0.1:0", "-pool", "200",
	})
}

func translateFleetOver(t *testing.T, addr, tenant, question string) translateResponse {
	t.Helper()
	body := fmt.Sprintf(`{"question": %q}`, question)
	resp, err := http.Post("http://"+addr+"/db/"+tenant+"/translate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out translateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("translate %s status %d", tenant, resp.StatusCode)
	}
	return out
}

// TestServeFleetRestartSIGTERM is the fleet durability contract end to
// end: serve two tenants, translate on both, SIGTERM — every resident
// tenant's state flushes under {statedir}/{tenant}/ — then restart and
// warm-start each tenant to byte-identical answers at the same
// generation, with no retraining.
func TestServeFleetRestartSIGTERM(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal semantics required")
	}
	if testing.Short() {
		t.Skip("subprocess restart test skipped in -short")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	specDir := writeSpecDir(t, "alpha", "beta")
	stateDir := t.TempDir()
	env := []string{serveFleetSpecEnv + "=" + specDir, serveFleetStateEnv + "=" + stateDir}
	const question = "who is the oldest employee"

	cmd, addr, logs := serveChild(t, exe, "TestServeFleetServerHelper", env...)
	first := map[string]translateResponse{}
	for _, tenant := range []string{"alpha", "beta"} {
		first[tenant] = translateFleetOver(t, addr, tenant, question)
	}
	stopServeChild(t, cmd, logs)
	out := logs()
	if !strings.Contains(out, "fleet flushed and stopped") {
		t.Fatalf("no fleet flush on SIGTERM; logs:\n%s", out)
	}
	for _, tenant := range []string{"alpha", "beta"} {
		if !strings.Contains(out, "tenant "+tenant+" final checkpoint flushed") {
			t.Fatalf("tenant %s not flushed; logs:\n%s", tenant, out)
		}
		entries, err := os.ReadDir(filepath.Join(stateDir, tenant))
		if err != nil || len(entries) == 0 {
			t.Fatalf("tenant %s state empty after shutdown (err=%v)", tenant, err)
		}
	}

	cmd2, addr2, logs2 := serveChild(t, exe, "TestServeFleetServerHelper", env...)
	defer func() { _ = cmd2.Process.Kill() }()
	for _, tenant := range []string{"alpha", "beta"} {
		second := translateFleetOver(t, addr2, tenant, question)
		if second.SQL != first[tenant].SQL || second.Generation != first[tenant].Generation {
			t.Fatalf("restart changed %s: %q gen %d -> %q gen %d", tenant,
				first[tenant].SQL, first[tenant].Generation, second.SQL, second.Generation)
		}
	}
	if out := logs2(); !strings.Contains(out, "warm=true") {
		t.Fatalf("second start retrained instead of warm-starting; logs:\n%s", out)
	}
	stopServeChild(t, cmd2, logs2)
}

// TestRunCheckpointCLIMultiTenant drives the checkpoint verbs over a
// fleet state tree: list and verify walk every tenant subdirectory,
// report rows per tenant, flag per-tenant damage with exit 1, and
// prune prefixes its output with the tenant it cleaned.
func TestRunCheckpointCLIMultiTenant(t *testing.T) {
	dir := t.TempDir()
	sys, _, err := buildSystem(demoSpec(), serveStateOpts, "")
	if err != nil {
		t.Fatal(err)
	}
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"acme", "globex"} {
		st, err := checkpoint.OpenTenant(dir, tenant)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Write(m, sections); err != nil {
			t.Fatal(err)
		}
	}

	var out, errOut bytes.Buffer
	if code := runCheckpoint([]string{"list", "-statedir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("list exit %d: %s", code, errOut.String())
	}
	text := out.String()
	for _, header := range []string{"tenant acme:", "tenant globex:"} {
		if !strings.Contains(text, header) {
			t.Fatalf("list missing %q:\n%s", header, text)
		}
	}

	// Damage one tenant's checkpoint: verify must localize the blame.
	name := filepath.Join(dir, "globex", fmt.Sprintf("gen-%020d.ckpt", m.Generation))
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := runCheckpoint([]string{"verify", "-statedir", dir, "-o", "json"}, &out, &errOut); code != 1 {
		t.Fatalf("verify exit %d, want 1: %s", code, errOut.String())
	}
	var reports []checkpointReport
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("verify saw %d rows, want 2: %+v", len(reports), reports)
	}
	for _, r := range reports {
		switch r.Tenant {
		case "acme":
			if !r.Valid {
				t.Errorf("undamaged tenant flagged: %+v", r)
			}
		case "globex":
			if r.Valid {
				t.Errorf("damaged tenant passed verify: %+v", r)
			}
		default:
			t.Errorf("row with unexpected tenant: %+v", r)
		}
	}

	out.Reset()
	errOut.Reset()
	if code := runCheckpoint([]string{"prune", "-statedir", dir, "-keep", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("prune exit %d: %s", code, errOut.String())
	}
	text = out.String()
	for _, prefix := range []string{"tenant acme: kept newest", "tenant globex: kept newest"} {
		if !strings.Contains(text, prefix) {
			t.Fatalf("prune output missing %q:\n%s", prefix, text)
		}
	}
}

// TestFleetHandlerColdPaths covers the surface a fleet shows when it
// cannot serve: a schema-only tenant activates to an empty state and
// answers 503, a full working set with every resident pinned sheds new
// tenants with 429, and a closed registry refuses with 503.
func TestFleetHandlerColdPaths(t *testing.T) {
	dir := writeSpecDir(t, "alpha")
	bare := demoSpec()
	bare.Samples = nil
	data, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "empty.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	src := &specDirSource{dir: dir, opts: testServeOpts()}
	reg, h := newTestFleet(t, src,
		fleet.Config{MaxActive: 1, RetryAfter: 2 * time.Second},
		serveConfig{}, "alpha", "empty")

	// A schema-only tenant activates cleanly but has nothing published:
	// 503 with a back-off hint, not an error.
	rec := postFleetTranslate(h, "empty", "how many employees are there")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("schema-only tenant = %d %s, want 503", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("schema-only 503 has no Retry-After")
	}

	// Pin the sole working-set slot; activating anyone else must shed.
	if rec := postFleetTranslate(h, "alpha", "how many employees are there"); rec.Code != http.StatusOK {
		t.Fatalf("activate alpha: %d %s", rec.Code, rec.Body)
	}
	hnd, err := reg.Acquire(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	rec = postFleetTranslate(h, "empty", "how many employees are there")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated working set = %d %s, want 429", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Errorf("saturated Retry-After = %q, want \"2\"", ra)
	}
	hnd.Release()

	// tenantNames sees only *.json stems, sorted.
	names, err := tenantNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha", "empty"}; len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("tenantNames = %v, want %v", names, want)
	}
	if _, err := tenantNames(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("tenantNames on a missing directory succeeded")
	}

	// A closed registry refuses with 503 on every route that acquires.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := reg.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := postFleetTranslate(h, "alpha", "x"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("translate after shutdown = %d, want 503", rec.Code)
	}
	if rec := postFleetReload(h, "alpha"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("reload after shutdown = %d, want 503", rec.Code)
	}
}
