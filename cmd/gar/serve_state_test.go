package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/gar"
	"repro/internal/checkpoint"
	"repro/internal/fleet"
)

var serveStateOpts = gar.Options{
	GeneralizeSize: 200, RetrievalK: 10, Seed: 1,
	EncoderEpochs: 12, RerankEpochs: 30,
}

// TestServeWarmStartHandler is the in-process restart: a trained
// server's checkpoint, written at the root of a state directory in the
// single-database layout, is recovered by a server that never runs
// Prepare or Train, and the warm handler answers /translate with the
// same SQL at the same generation while /healthz reports the
// checkpoint counters.
func TestServeWarmStartHandler(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := buildSystem(demoSpec(), serveStateOpts, "")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := cold.WriteCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	_, coldHandler := newTestServer(t, &sysSource{sys: cold}, fleet.Config{}, serveConfig{})

	var mu sync.Mutex
	var skipped []string
	logf := func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "skipping checkpoint") {
			mu.Lock()
			skipped = append(skipped, line)
			mu.Unlock()
		}
	}
	src := &specDirSource{demo: true, stateDir: dir, opts: serveStateOpts}
	reg, warmHandler := newTestServer(t, src, fleet.Config{Keep: 2, Logf: logf}, serveConfig{})
	if row, err := reg.TenantHealth(testTenant); err != nil || row.Counters.WarmStarts != 1 || row.Counters.ColdBuilds != 0 {
		t.Fatalf("server did not warm-start from the checkpoint: %+v (%v)", row.Counters, err)
	}
	mu.Lock()
	if len(skipped) != 0 {
		t.Fatalf("recovery skipped a checkpoint of a store holding one valid one: %v", skipped)
	}
	mu.Unlock()

	for _, q := range []string{"who is the oldest employee", "how many employees are there"} {
		body := fmt.Sprintf(`{"question": %q}`, q)
		a := postTranslate(coldHandler, body)
		b := postTranslate(warmHandler, body)
		if a.Code != http.StatusOK || b.Code != http.StatusOK {
			t.Fatalf("%q: status cold=%d warm=%d", q, a.Code, b.Code)
		}
		var ra, rb translateResponse
		if err := json.Unmarshal(a.Body.Bytes(), &ra); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b.Body.Bytes(), &rb); err != nil {
			t.Fatal(err)
		}
		if ra.SQL != rb.SQL || ra.Dialect != rb.Dialect {
			t.Fatalf("%q: warm answer %q, cold answer %q", q, rb.SQL, ra.SQL)
		}
		if rb.Generation != gen {
			t.Fatalf("%q: warm generation %d, want checkpointed %d", q, rb.Generation, gen)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	warmHandler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d: %s", rec.Code, rec.Body)
	}
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["checkpoint"]; !ok {
		t.Fatalf("healthz has no checkpoint section: %v", health)
	}
}

// writeBareSpec writes the demo spec without its sample queries — a
// schema-only spec with nothing to cold-build from — and returns its
// path.
func writeBareSpec(t *testing.T) string {
	t.Helper()
	bare := demoSpec()
	bare.Samples = nil
	data, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bare.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServeAllCorruptCleanEmptyState: when every checkpoint is damaged
// and the spec has no samples to cold-build from, the server comes up
// on a clean empty state — /translate and /readyz answer 503, nothing
// panics, and the damage is reported, not swallowed.
func TestServeAllCorruptCleanEmptyState(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, fmt.Sprintf("gen-%020d.ckpt", 7))
	if err := os.WriteFile(name, []byte("GARCKPT1 but then trash"), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var skipped []string
	logf := func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, "skipping checkpoint") {
			mu.Lock()
			skipped = append(skipped, line)
			mu.Unlock()
		}
	}
	src := &specDirSource{specPath: writeBareSpec(t), stateDir: dir, opts: serveStateOpts}
	reg, h := newTestServer(t, src, fleet.Config{Logf: logf}, serveConfig{})
	row, err := reg.TenantHealth(testTenant)
	if err != nil {
		t.Fatal(err)
	}
	if row.Ready || row.Counters.WarmStarts != 0 || row.Counters.ColdBuilds != 0 {
		t.Fatalf("all-corrupt store: %+v", row)
	}
	mu.Lock()
	if len(skipped) != 1 || !strings.Contains(skipped[0], name) {
		t.Fatalf("corrupt checkpoint not reported: %q", skipped)
	}
	mu.Unlock()

	rec := postTranslate(h, `{"question": "how many employees are there"}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("translate on empty state: %d, want 503", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	ready := httptest.NewRecorder()
	h.ServeHTTP(ready, req)
	if ready.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on empty state: %d, want 503", ready.Code)
	}
}

const serveStateEnv = "GAR_SERVE_STATE_DIR"

// TestServeStateServerHelper is the child body for the restart test:
// it runs the real runServe (listen, signal handling, shutdown flush)
// against the state directory passed in the environment.
func TestServeStateServerHelper(t *testing.T) {
	dir := os.Getenv(serveStateEnv)
	if dir == "" {
		t.Skip("helper process body; run via TestServeRestartSIGTERM")
	}
	runServe([]string{"-demo", "-addr", "127.0.0.1:0", "-statedir", dir, "-pool", "200",
		"-feedback", "-traininterval", "1h"})
}

// serveChild starts a server subprocess — the named helper test with
// the given environment — and returns once it announces readiness,
// along with its address and a way to collect everything it logged.
func serveChild(t *testing.T, exe, helper string, env ...string) (cmd *exec.Cmd, addr string, logs func() string) {
	t.Helper()
	cmd = exec.Command(exe, "-test.run=^"+helper+"$", "-test.v")
	cmd.Env = append(os.Environ(), env...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var buf bytes.Buffer
	logs = func() string { mu.Lock(); defer mu.Unlock(); return buf.String() }
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			buf.WriteString(line + "\n")
			mu.Unlock()
			if i := strings.Index(line, "ready on "); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("ready on "):]):
				default:
				}
			}
		}
	}()

	select {
	case addr = <-addrc:
	case <-time.After(3 * time.Minute):
		_ = cmd.Process.Kill()
		t.Fatalf("server never became ready; logs:\n%s", logs())
	}
	return cmd, addr, logs
}

// stopServeChild sends SIGTERM and waits for a clean exit.
func stopServeChild(t *testing.T, cmd *exec.Cmd, logs func() string) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server exited uncleanly: %v; logs:\n%s", err, logs())
		}
	case <-time.After(time.Minute):
		_ = cmd.Process.Kill()
		t.Fatalf("server ignored SIGTERM; logs:\n%s", logs())
	}
}

func translateOver(t *testing.T, addr, question string) translateResponse {
	t.Helper()
	body := fmt.Sprintf(`{"question": %q}`, question)
	resp, err := http.Post("http://"+addr+"/translate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out translateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("translate status %d", resp.StatusCode)
	}
	return out
}

// TestServeRestartSIGTERM is the end-to-end durability contract: serve,
// translate, record feedback, SIGTERM, restart on the same -statedir —
// the second process warm-starts from the flushed checkpoint (no
// Prepare, no Train), answers the same question identically and
// replays the feedback WAL. The state directory keeps the
// single-database layout: checkpoints at its root, the WAL under
// feedback/.
func TestServeRestartSIGTERM(t *testing.T) {
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
	dir := t.TempDir()
	const question = "who is the oldest employee"

	cmd, addr, logs := serveChild(t, exe, "TestServeStateServerHelper", serveStateEnv+"="+dir)
	first := translateOver(t, addr, question)
	resp, err := http.Post("http://"+addr+"/feedback", "application/json",
		strings.NewReader(`{"question": "how many people work here", "sql": "SELECT COUNT(*) FROM employee"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("feedback status %d", resp.StatusCode)
	}
	stopServeChild(t, cmd, logs)
	if out := logs(); !strings.Contains(out, "final checkpoint flushed") {
		t.Fatalf("no final flush on SIGTERM; logs:\n%s", out)
	}

	for _, pattern := range []string{"gen-*.ckpt", filepath.Join("feedback", "seg-*.fwal")} {
		if files, err := filepath.Glob(filepath.Join(dir, pattern)); err != nil || len(files) == 0 {
			t.Fatalf("state directory has no %s after shutdown (err=%v)", pattern, err)
		}
	}

	cmd2, addr2, logs2 := serveChild(t, exe, "TestServeStateServerHelper", serveStateEnv+"="+dir)
	defer func() { _ = cmd2.Process.Kill() }()
	if out := logs2(); !strings.Contains(out, "warm=true") {
		t.Fatalf("second start did not warm-start; logs:\n%s", out)
	}
	second := translateOver(t, addr2, question)
	if second.SQL != first.SQL || second.Dialect != first.Dialect {
		t.Fatalf("restart changed the answer: %q -> %q", first.SQL, second.SQL)
	}
	if second.Generation != first.Generation {
		t.Fatalf("restart changed the generation: %d -> %d", first.Generation, second.Generation)
	}
	var health struct {
		Feedback *fleet.FeedbackHealth `json:"feedback"`
	}
	hresp, err := http.Get("http://" + addr2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Feedback == nil || health.Feedback.WAL.LastSeq != 1 {
		t.Fatalf("restart did not replay the feedback WAL: %+v", health.Feedback)
	}
	stopServeChild(t, cmd2, logs2)
}

// TestRunCheckpointCLI drives the `gar checkpoint` verbs over a real
// state directory: list and verify see the valid generations, verify
// flags a damaged one with exit 1, and prune enforces retention.
func TestRunCheckpointCLI(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := buildSystem(demoSpec(), serveStateOpts, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.WriteCheckpoint(st); err != nil {
		t.Fatal(err)
	}
	m, sections, err := sys.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	m.Generation = 2
	if err := st.Write(m, sections); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if code := runCheckpoint([]string{"list", "-statedir", dir}, &out, &errOut); code != 0 {
		t.Fatalf("list exit %d: %s", code, errOut.String())
	}
	if n := strings.Count(out.String(), "ok"); n != 2 {
		t.Fatalf("list saw %d valid checkpoints, want 2:\n%s", n, out.String())
	}

	// Damage the newest file in place: verify must flag it.
	name := filepath.Join(dir, fmt.Sprintf("gen-%020d.ckpt", 2))
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
	if len(reports) != 2 || reports[0].Valid || !reports[1].Valid {
		t.Fatalf("verify verdicts wrong: %+v", reports)
	}

	// Prune to one generation; the damaged newest survives by
	// generation order, which is exactly why verify exists.
	out.Reset()
	errOut.Reset()
	if code := runCheckpoint([]string{"prune", "-statedir", dir, "-keep", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("prune exit %d: %s", code, errOut.String())
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("prune left %d generations, want 1", len(entries))
	}

	// Usage errors exit 2.
	if code := runCheckpoint(nil, &out, &errOut); code != 2 {
		t.Fatalf("no-verb exit %d, want 2", code)
	}
	if code := runCheckpoint([]string{"list"}, &out, &errOut); code != 2 {
		t.Fatalf("no-statedir exit %d, want 2", code)
	}
	if code := runCheckpoint([]string{"bogus", "-statedir", dir}, &out, &errOut); code != 2 {
		t.Fatalf("bad-verb exit %d, want 2", code)
	}
}

// TestBuildServingSystemPaths drives the startup decision tree of the
// one-tenant server: warm start from a valid checkpoint, fallback past
// a corrupt one, cold build when nothing is recoverable, clean empty
// state for a schema-only spec, and abandoned-temp cleanup.
func TestBuildServingSystemPaths(t *testing.T) {
	serve := func(src *specDirSource) (*fleet.Registry, fleet.TenantHealth) {
		t.Helper()
		reg, _ := newTestServer(t, src, fleet.Config{}, serveConfig{})
		row, err := reg.TenantHealth(testTenant)
		if err != nil {
			t.Fatal(err)
		}
		return reg, row
	}

	// No statedir: plain cold build, no checkpointer.
	reg, row := serve(&specDirSource{demo: true, opts: serveStateOpts})
	if row.Checkpoint != nil || row.Counters.ColdBuilds != 1 || !row.Ready {
		t.Fatalf("cold path: %+v", row)
	}

	// Seed a state directory from that system, plus a corrupt newer
	// generation and an abandoned temp file.
	h, err := reg.Acquire(context.Background(), testTenant)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seed, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := h.Sys().WriteCheckpoint(seed)
	h.Release()
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, fmt.Sprintf("gen-%020d.ckpt", gen+1))
	if err := os.WriteFile(bad, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, ".ckpt-orphan.tmp")
	if err := os.WriteFile(tmp, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Statedir with a recoverable generation: warm start past the
	// corrupt file, temp swept.
	_, row = serve(&specDirSource{demo: true, stateDir: dir, opts: serveStateOpts})
	if row.Checkpoint == nil || row.Counters.WarmStarts != 1 || !row.Ready || row.Generation != gen {
		t.Fatalf("warm path: %+v", row)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("abandoned temp not swept: %v", err)
	}

	// Statedir with nothing recoverable but samples in the spec: cold
	// build behind the store.
	_, row = serve(&specDirSource{demo: true, stateDir: t.TempDir(), opts: serveStateOpts})
	if row.Checkpoint == nil || row.Counters.ColdBuilds != 1 || !row.Ready {
		t.Fatalf("cold-behind-store path: %+v", row)
	}

	// Schema-only spec and an empty statedir: clean empty state.
	_, row = serve(&specDirSource{specPath: writeBareSpec(t), stateDir: t.TempDir(), opts: serveStateOpts})
	if row.Checkpoint == nil || row.Counters.WarmStarts != 0 || row.Counters.ColdBuilds != 0 || row.Ready {
		t.Fatalf("empty-state path: %+v", row)
	}
}

// TestCheckpointReportsText pins the human-readable list output: the
// empty message, the ok row and the INVALID row.
func TestCheckpointReportsText(t *testing.T) {
	var out bytes.Buffer
	printCheckpointReports(&out, nil)
	if !strings.Contains(out.String(), "no checkpoints") {
		t.Fatalf("empty listing = %q", out.String())
	}
	out.Reset()
	printCheckpointReports(&out, []checkpointReport{
		{Generation: 2, Size: 10, Valid: true, Database: "employee", Sections: 4},
		{Generation: 1, Size: 3, Error: "checkpoint: corrupt"},
	})
	text := out.String()
	if !strings.Contains(text, "ok") || !strings.Contains(text, "db=employee") {
		t.Fatalf("valid row missing: %q", text)
	}
	if !strings.Contains(text, "INVALID") || !strings.Contains(text, "corrupt") {
		t.Fatalf("invalid row missing: %q", text)
	}
}
