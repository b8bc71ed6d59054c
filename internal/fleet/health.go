package fleet

import (
	"repro/gar"
	"repro/internal/admit"
	"repro/internal/breaker"
	"repro/internal/feedback"
)

// FeedbackHealth is the online-learning block of a health row: the
// accept/reject tallies of the feedback endpoint, the WAL's footprint,
// and the trainer's counters (state, promotions, shadow verdicts,
// rollbacks).
type FeedbackHealth struct {
	Accepted uint64           `json:"accepted"`
	Rejected uint64           `json:"rejected"`
	WAL      feedback.Stats   `json:"wal"`
	Trainer  gar.TrainerStats `json:"trainer"`
}

// TenantHealth is one tenant's row in the fleet health roll-up, and
// the whole /healthz body of a one-tenant server.
type TenantHealth struct {
	// State is the lifecycle position (cold|activating|active|evicting)
	// and Status the serving verdict: ok, degraded (breaker not closed),
	// unavailable (active but no published snapshot), or the lifecycle
	// state for tenants that are not active.
	State  string `json:"state"`
	Status string `json:"status"`
	Ready  bool   `json:"ready"`
	// Generation and Pool describe the published snapshot, when there
	// is one.
	Generation uint64 `json:"generation,omitempty"`
	Pool       int    `json:"pool,omitempty"`
	// Admission is the tenant's budget and shed counters; Breaker its
	// re-ranking breaker (absent while the tenant is not resident or
	// breakers are disabled); Checkpoint its durability counters.
	Admission  admit.Stats          `json:"admission"`
	Breaker    *breaker.Snapshot    `json:"breaker,omitempty"`
	Checkpoint *gar.CheckpointStats `json:"checkpoint,omitempty"`
	// Caches are the translation-path cache counters; ExecGuide the
	// execution-guided reranking counters, present only when the
	// tenant's system runs that stage. Both are absent while the tenant
	// is not resident.
	Caches    *gar.CacheStats     `json:"caches,omitempty"`
	ExecGuide *gar.ExecGuideStats `json:"execguide,omitempty"`
	// Memory is the tenant's resource-governance block (budget usage,
	// snapshot bytes, spill gauges, degradation record), absent while
	// the tenant is not resident or memory governance is off.
	Memory *gar.MemStats `json:"memory,omitempty"`
	// Feedback is the online-learning block, absent while the tenant is
	// not resident or the feedback loop is disabled.
	Feedback *FeedbackHealth `json:"feedback,omitempty"`
	// Counters are the lifecycle tallies; LastError the most recent
	// activation or eviction failure.
	Counters  Counters `json:"counters"`
	LastError string   `json:"last_error,omitempty"`
}

// Health is the fleet-wide roll-up served by GET /healthz.
type Health struct {
	// Status aggregates the tenants: ok (every resident tenant serving
	// cleanly), degraded (some tenant degraded, unready or failing),
	// unavailable (no tenant has a published snapshot).
	Status string `json:"status"`
	// Known counts registered tenants, Active the resident ones,
	// MaxActive the working-set bound.
	Known     int `json:"known"`
	Active    int `json:"active"`
	MaxActive int `json:"max_active"`
	// ShedSaturated counts activations shed because the working set was
	// full with every tenant pinned.
	ShedSaturated uint64 `json:"shed_saturated"`
	// Memory is the process-wide memory budget's gauges, absent when
	// memory governance is disabled.
	Memory *gar.MemBudgetStats `json:"memory,omitempty"`
	// Tenants holds the per-tenant rows, keyed by name.
	Tenants map[string]TenantHealth `json:"tenants"`
}

// Serving reports whether the row's tenant answers translations now:
// status ok, or degraded (reduced quality, still serving).
func (h TenantHealth) Serving() bool { return h.Status == "ok" || h.Status == "degraded" }

// tenantHealth assembles one tenant's row.
func (r *Registry) tenantHealth(t *tenant) TenantHealth {
	t.mu.Lock()
	h := TenantHealth{
		State:    t.state.String(),
		Counters: t.counters,
	}
	sys, ckptr := t.sys, t.ckptr
	flog, trainer := t.flog, t.trainer
	resident := t.state == stateActive || t.state == stateEvicting
	if t.lastErr != nil {
		h.LastError = t.lastErr.Error()
	}
	t.mu.Unlock()

	h.Admission = t.ctl.Stats()
	if sys != nil {
		h.Ready = sys.Ready()
		h.Generation = sys.Generation()
		h.Pool = sys.PoolSize()
		cs := sys.CacheStats()
		h.Caches = &cs
		if sys.ExecGuide() {
			es := sys.ExecGuideStats()
			h.ExecGuide = &es
		}
		if ms := sys.MemStats(); ms.Budget != nil {
			h.Memory = &ms
		}
	}
	if ckptr != nil {
		cs := ckptr.Stats()
		h.Checkpoint = &cs
	}
	if flog != nil && trainer != nil {
		h.Feedback = &FeedbackHealth{
			Accepted: t.fbAccepted.Load(),
			Rejected: t.fbRejected.Load(),
			WAL:      flog.Stats(),
			Trainer:  trainer.Stats(),
		}
	}
	if t.br != nil && resident {
		snap := t.br.Snapshot()
		h.Breaker = &snap
	}
	switch {
	case h.State != "active":
		h.Status = h.State
	case !h.Ready:
		h.Status = "unavailable"
	case h.Breaker != nil && h.Breaker.State != breaker.Closed:
		h.Status = "degraded"
	case h.Memory != nil && h.Memory.Degraded:
		// The pool was truncated (or spilled and partially lost) under
		// resource pressure: the tenant serves, at reduced quality.
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	return h
}

// TenantHealth reports one tenant's health row, or ErrUnknownTenant.
func (r *Registry) TenantHealth(name string) (TenantHealth, error) {
	r.mu.Lock()
	t := r.tenants[name]
	r.mu.Unlock()
	if t == nil {
		return TenantHealth{}, ErrUnknownTenant
	}
	return r.tenantHealth(t), nil
}

// Health reports the fleet-wide roll-up. A tenant that is cold with no
// recorded failure is a normal fact of a bounded working set and does
// not degrade the fleet; a failing, unready or degraded tenant does.
func (r *Registry) Health() Health {
	tenants := r.all()
	r.capMu.Lock()
	active := r.active
	r.capMu.Unlock()
	h := Health{
		Known:         len(tenants),
		Active:        active,
		MaxActive:     r.cfg.MaxActive,
		ShedSaturated: r.shedSaturated.Load(),
		Memory:        r.memRoot.Stats(),
		Tenants:       make(map[string]TenantHealth, len(tenants)),
	}
	anyReady, degraded := false, false
	for _, t := range tenants {
		row := r.tenantHealth(t)
		h.Tenants[t.name] = row
		if row.Serving() {
			anyReady = true
		}
		if row.Status == "degraded" || row.Status == "unavailable" || row.LastError != "" {
			degraded = true
		}
	}
	switch {
	case !anyReady:
		h.Status = "unavailable"
	case degraded:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	return h
}
