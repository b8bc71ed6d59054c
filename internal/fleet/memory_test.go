package fleet_test

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
)

// TestFleetMemoryGovernance pins the fleet half of resource
// governance: resident tenants account their snapshots and caches
// against per-tenant shares of one process budget, /healthz surfaces
// the accounting at both levels, and the flush-before-evict sequence
// returns every evicted byte to the shared root — activation of a new
// tenant does not ratchet the process footprint up.
func TestFleetMemoryGovernance(t *testing.T) {
	src := newTestSource(t)
	src.stateDir = t.TempDir()
	reg := fleet.New(src, fleet.Config{
		MaxActive:      2,
		MemLimit:       64 << 20,
		TenantMemLimit: 16 << 20,
	})
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	const q = "which item has the largest quantity"
	if _, err := translateVia(ctx, reg, "alpha", q); err != nil {
		t.Fatal(err)
	}
	if _, err := translateVia(ctx, reg, "beta", q); err != nil {
		t.Fatal(err)
	}

	h := reg.Health()
	if h.Memory == nil || h.Memory.Limit != 64<<20 {
		t.Fatalf("fleet memory block = %+v", h.Memory)
	}
	usedTwo := h.Memory.Used
	if usedTwo <= 0 {
		t.Fatalf("no bytes accounted with two resident tenants")
	}
	alpha := h.Tenants["alpha"]
	if alpha.Memory == nil {
		t.Fatal("resident tenant row lacks memory block")
	}
	if alpha.Memory.Budget == nil || alpha.Memory.Budget.Limit != 16<<20 {
		t.Fatalf("tenant budget = %+v", alpha.Memory.Budget)
	}
	if alpha.Memory.SnapshotBytes <= 0 || alpha.Memory.Budget.Used <= 0 {
		t.Fatalf("tenant accounting empty: %+v", alpha.Memory)
	}
	if alpha.Memory.Degraded {
		t.Fatalf("roomy tenant share degraded: %q", alpha.Memory.DegradeReason)
	}
	alphaUsed := alpha.Memory.Budget.Used

	// Activating gamma evicts alpha (the LRU tenant). The eviction
	// must give alpha's bytes back: the root's usage stays at the
	// two-resident level instead of accumulating a third tenant.
	if _, err := translateVia(ctx, reg, "gamma", q); err != nil {
		t.Fatal(err)
	}
	h = reg.Health()
	if row := h.Tenants["alpha"]; row.State != "cold" {
		t.Fatalf("alpha not evicted: %+v", row)
	} else if row.Memory != nil {
		t.Fatalf("cold tenant still reports memory: %+v", row.Memory)
	}
	if h.Memory.Used > usedTwo+alphaUsed/2 {
		t.Fatalf("eviction leaked memory: used %d with two residents, %d after evict+activate",
			usedTwo, h.Memory.Used)
	}

	// Warm-reactivating alpha re-accounts its snapshot from the
	// checkpoint restore path — same budget discipline as a cold build.
	if _, err := translateVia(ctx, reg, "alpha", q); err != nil {
		t.Fatal(err)
	}
	row, err := reg.TenantHealth("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if row.Memory == nil || row.Memory.SnapshotBytes <= 0 {
		t.Fatalf("warm-started tenant not re-accounted: %+v", row.Memory)
	}
	if used := reg.Health().Memory.Used; used <= 0 || used > 64<<20 {
		t.Fatalf("root accounting out of range after churn: %d", used)
	}
}

// TestFleetTenantBudgetPressure pins graceful degradation inside one
// tenant share: a share too small for the full pool truncates that
// tenant's pool — the tenant serves degraded, the fleet roll-up says
// degraded — while translations keep answering.
func TestFleetTenantBudgetPressure(t *testing.T) {
	src := newTestSource(t)
	src.stateDir = t.TempDir()
	reg := fleet.New(src, fleet.Config{
		MaxActive:      2,
		MemLimit:       64 << 20,
		TenantMemLimit: tenantPressureLimit,
	})
	if err := reg.Register("alpha"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := translateVia(ctx, reg, "alpha", "how many items are there")
	if err != nil {
		t.Fatalf("pressured tenant cannot translate: %v", err)
	}
	if res.SQL == "" {
		t.Fatal("pressured tenant returned empty SQL")
	}
	row, err := reg.TenantHealth("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if row.Memory == nil || !row.Memory.Degraded {
		t.Fatalf("pressure not flagged: %+v", row.Memory)
	}
	if row.Status != "degraded" {
		t.Fatalf("tenant status = %q, want degraded", row.Status)
	}
	if row.Memory.Budget.Used > row.Memory.Budget.Limit {
		t.Fatalf("tenant budget overrun: %+v", row.Memory.Budget)
	}
	if h := reg.Health(); h.Status != "degraded" {
		t.Fatalf("fleet status = %q, want degraded", h.Status)
	}
}

// tenantPressureLimit is a share well below the fixture pool's full
// footprint (~15KB snapshot), so activation must shed candidates to
// fit instead of failing outright.
const tenantPressureLimit = 10 << 10

// TestFleetSpillWithoutStateDir pins the spill rule for tenants without
// durable state: a share whose pool-build buffer overflows spills to a
// process-private temp directory instead of truncating, so the tenant
// serves the same pool an ungoverned build produces, undegraded — and
// Shutdown removes the spill directory.
func TestFleetSpillWithoutStateDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // the registry's temp spill directory lands here
	ctx := context.Background()
	activate := func(cfg fleet.Config) (*fleet.Registry, fleet.TenantHealth) {
		t.Helper()
		src := newTestSource(t)
		src.opts.SpillBufferBytes = spillBuffer
		reg := fleet.New(src, cfg)
		if err := reg.Register("alpha"); err != nil {
			t.Fatal(err)
		}
		if _, err := translateVia(ctx, reg, "alpha", "how many items are there"); err != nil {
			t.Fatal(err)
		}
		row, err := reg.TenantHealth("alpha")
		if err != nil {
			t.Fatal(err)
		}
		return reg, row
	}
	_, plain := activate(fleet.Config{MaxActive: 1})
	reg, row := activate(fleet.Config{MaxActive: 1, MemLimit: spillLimit})
	if row.Memory == nil || row.Memory.SpillFiles == 0 {
		t.Fatalf("buffer did not overflow to disk: %+v", row.Memory)
	}
	if row.Memory.Degraded || row.Status != "ok" {
		t.Fatalf("spilled tenant degraded (%s): %q", row.Status, row.Memory.DegradeReason)
	}
	if row.Pool != plain.Pool {
		t.Fatalf("spilled pool has %d candidates, ungoverned build %d", row.Pool, plain.Pool)
	}
	if dirs, err := filepath.Glob(filepath.Join(tmp, "gar-spill-*")); err != nil || len(dirs) != 1 {
		t.Fatalf("process-private spill directories = %v (%v), want one", dirs, err)
	}
	if err := reg.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if dirs, err := filepath.Glob(filepath.Join(tmp, "gar-spill-*")); err != nil || len(dirs) != 0 {
		t.Fatalf("Shutdown left the spill directory behind: %v (%v)", dirs, err)
	}
}

// spillLimit is a share roomy enough for the fixture's whole snapshot
// (~20KB); spillBuffer caps the pool build's RAM record buffer well
// below the fixture's records, so the build must overflow to disk.
const (
	spillLimit  = 1 << 20
	spillBuffer = 1 << 10
)
