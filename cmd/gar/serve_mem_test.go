package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/fleet"
)

const serveMemArgsEnv = "GAR_SERVE_MEM_ARGS"

// TestServeMemlimitHelper is the child body for the flag-rejection
// tests: it runs the real runServe with the arguments passed in the
// environment, so the parent can observe the fatal exit.
func TestServeMemlimitHelper(t *testing.T) {
	raw := os.Getenv(serveMemArgsEnv)
	if raw == "" {
		t.Skip("helper process body; run via TestServeMemlimitFloor")
	}
	runServe(strings.Fields(raw))
}

// TestServeMemlimitFloor pins the up-front rejection of flags that
// cannot serve: a -memlimit below 1 MiB, and a fleet whose per-tenant
// share falls below that floor, must both refuse to start with an
// error that names the flag and the floor; -loadmodels with -specdir
// (one model file for many schemas) must refuse too.
func TestServeMemlimitFloor(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cases := []struct {
		name string
		args string
		want string
	}{
		{"below floor", "-demo -addr 127.0.0.1:0 -memlimit 1024", "-memlimit 1024 bytes is below"},
		{"negative", "-demo -addr 127.0.0.1:0 -memlimit -1", "below"},
		{"fleet share", "-specdir " + dir + " -addr 127.0.0.1:0 -memlimit 2097152 -maxtenants 8",
			"per-tenant memory share"},
		{"loadmodels with specdir", "-specdir " + dir + " -addr 127.0.0.1:0 -loadmodels models.gob",
			"-loadmodels does not apply to -specdir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(exe, "-test.run=^TestServeMemlimitHelper$", "-test.v")
			cmd.Env = append(os.Environ(), serveMemArgsEnv+"="+tc.args)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("server started despite %q:\n%s", tc.args, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("rejection message for %q lacks %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
}

// TestServeHealthzReportsMemory pins the resource-governance block of
// /healthz: with a budget configured, operators must see live usage,
// the snapshot's footprint, and a clean degradation record.
func TestServeHealthzReportsMemory(t *testing.T) {
	_, h := newTestServer(t, demoSource(), fleet.Config{MemLimit: 64 << 20}, serveConfig{})

	if rec := postTranslate(h, `{"question": "how many employees are there"}`); rec.Code != http.StatusOK {
		t.Fatalf("translate status %d: %s", rec.Code, rec.Body)
	}
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d: %s", rec.Code, rec.Body)
	}
	var health struct {
		Memory *struct {
			Budget struct {
				Limit int64 `json:"limit"`
				Used  int64 `json:"used"`
				Peak  int64 `json:"peak"`
			} `json:"budget"`
			SnapshotBytes int64  `json:"snapshot_bytes"`
			Degraded      bool   `json:"degraded"`
			DegradeReason string `json:"degrade_reason"`
		} `json:"memory"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Memory == nil {
		t.Fatalf("healthz lacks memory block: %s", rec.Body)
	}
	m := health.Memory
	if m.Budget.Limit != 64<<20 {
		t.Errorf("budget limit = %d, want %d", m.Budget.Limit, 64<<20)
	}
	if m.Budget.Used <= 0 || m.SnapshotBytes <= 0 {
		t.Errorf("budget used = %d, snapshot bytes = %d, want both positive", m.Budget.Used, m.SnapshotBytes)
	}
	if m.Budget.Peak < m.Budget.Used {
		t.Errorf("peak %d below used %d", m.Budget.Peak, m.Budget.Used)
	}
	if m.Degraded || m.DegradeReason != "" {
		t.Errorf("roomy budget degraded: %v %q", m.Degraded, m.DegradeReason)
	}

	// An ungoverned system must not grow a memory block.
	plain := testHandler(t, serveConfig{})
	rec = httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var bare map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &bare); err != nil {
		t.Fatal(err)
	}
	if _, ok := bare["memory"]; ok {
		t.Errorf("ungoverned healthz has memory block: %s", rec.Body)
	}
}
