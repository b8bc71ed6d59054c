package fleet_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/gar"
	"repro/internal/admit"
	"repro/internal/faults"
	"repro/internal/fleet"
)

// newPanicInjector makes every re-ranking call blow up.
func newPanicInjector() *faults.Injector {
	return faults.NewInjector(1).Panic(faults.Rerank, "isolation test")
}

// installBlockGate parks every retrieval on sys until the returned
// release is called.
func installBlockGate(sys *gar.System) (release func()) {
	inj := faults.NewInjector(1)
	release = inj.Block(faults.Retrieval)
	sys.SetFaultInjector(inj)
	return release
}

// TestFleetIsolationUnderFaults is the fault-containment proof for the
// fleet, meant to run under -race: ten tenants share one registry;
// one tenant's re-ranking stage panics (tripping its breaker into
// retrieval-only), another is saturated with faults.Block until its
// admission budget sheds — while eight healthy tenants, hammered
// concurrently and churned through idle eviction and warm
// re-activation the whole time, must answer every request with zero
// sheds, undegraded results, byte-identical SQL and unchanged
// generations.
func TestFleetIsolationUnderFaults(t *testing.T) {
	src := newTestSource(t)
	src.stateDir = t.TempDir()
	healthy := make([]string, 8)
	for i := range healthy {
		healthy[i] = fmt.Sprintf("healthy%d", i)
	}
	reg := fleet.New(src, fleet.Config{
		MaxActive:       10,
		TenantInFlight:  2,
		TenantQueue:     2,
		BreakerFailures: 1,
		BreakerCooldown: time.Hour, // a tripped tenant stays tripped for the whole storm
		IdleAfter:       3 * time.Millisecond,
	})
	for _, name := range append([]string{"panicky", "blocked"}, healthy...) {
		if err := reg.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	questions := []string{
		"how many items are there",
		"which item has the largest quantity",
	}

	// Baseline answers per healthy tenant, before any fault exists.
	type answer struct {
		sql string
		gen uint64
	}
	baseline := map[string]answer{}
	for _, name := range healthy {
		res, err := translateVia(ctx, reg, name, questions[0])
		if err != nil {
			t.Fatalf("baseline %s: %v", name, err)
		}
		baseline[name] = answer{sql: res.SQL, gen: res.Generation}
	}

	// Fault tenant 1: every re-rank panics. The first request trips the
	// breaker; the tenant then serves degraded retrieval-only answers.
	// The pinned handle keeps the injector's system resident.
	hp, err := reg.Acquire(ctx, "panicky")
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Release()
	hp.Sys().SetFaultInjector(newPanicInjector())

	// Fault tenant 2: a gate at retrieval parks every admitted request,
	// deterministically saturating this tenant's budget (2 slots + 2
	// queued), so further arrivals shed 429 — on this tenant only.
	hb, err := reg.Acquire(ctx, "blocked")
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Release()
	releaseGate := installBlockGate(hb.Sys())

	parked := make(chan error, 4)
	for range 4 {
		go func() {
			pctx, cancel := context.WithTimeout(ctx, time.Minute)
			defer cancel()
			_, err := translateVia(pctx, reg, "blocked", questions[0])
			parked <- err
		}()
	}
	waitFor(t, "the blocked tenant to saturate", func() bool {
		st := reg.Health().Tenants["blocked"].Admission
		return st.InFlight == 2 && st.Queued == 2
	})
	for i := range 2 {
		_, err := translateVia(ctx, reg, "blocked", questions[0])
		if _, ok := admit.AsShed(err); !ok {
			t.Fatalf("overflow request %d on the saturated tenant = %v, want shed", i, err)
		}
	}

	// The storm: hammer every healthy tenant from two workers each,
	// churn the working set with an aggressive idle reaper, and keep
	// poking the panicking tenant — all at once.
	stormCtx, stopStorm := context.WithCancel(ctx)
	var reaper sync.WaitGroup
	reaper.Add(1)
	go func() {
		defer reaper.Done()
		for stormCtx.Err() == nil {
			reg.EvictIdle(stormCtx)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	var degradedSeen sync.WaitGroup
	degradedSeen.Add(1)
	go func() {
		defer degradedSeen.Done()
		for i := range 10 {
			res, err := translateVia(ctx, reg, "panicky", questions[i%2])
			if err != nil {
				t.Errorf("panicky request %d: %v", i, err)
				return
			}
			if i > 0 && !res.Degraded {
				t.Errorf("panicky request %d not degraded after breaker trip", i)
			}
		}
	}()

	const iterations = 25
	var workers sync.WaitGroup
	for _, name := range healthy {
		for w := range 2 {
			workers.Add(1)
			go func(name string, w int) {
				defer workers.Done()
				want := baseline[name]
				for i := range iterations {
					res, err := translateVia(ctx, reg, name, questions[0])
					if err != nil {
						t.Errorf("%s worker %d iter %d: %v", name, w, i, err)
						return
					}
					if res.Degraded {
						t.Errorf("%s worker %d iter %d: degraded result on a healthy tenant", name, w, i)
						return
					}
					if res.SQL != want.sql || res.Generation != want.gen {
						t.Errorf("%s worker %d iter %d: %q gen %d, want %q gen %d",
							name, w, i, res.SQL, res.Generation, want.sql, want.gen)
						return
					}
					// The second question exercises the pipeline off the
					// comparison path, interleaving cache and rerank work.
					if _, err := translateVia(ctx, reg, name, questions[1]); err != nil {
						t.Errorf("%s worker %d iter %d: %v", name, w, i, err)
						return
					}
				}
			}(name, w)
		}
	}
	workers.Wait()
	degradedSeen.Wait()
	stopStorm()
	reaper.Wait()

	// Containment ledger: healthy tenants shed nothing and stayed
	// closed; the faulty pair carries all the damage.
	h := reg.Health()
	for _, name := range healthy {
		row := h.Tenants[name]
		if row.Admission.ShedQueueFull != 0 || row.Admission.ShedDeadline != 0 {
			t.Errorf("%s shed requests: %+v", name, row.Admission)
		}
		if row.Breaker != nil && row.Breaker.Trips != 0 {
			t.Errorf("%s breaker tripped: %+v", name, row.Breaker)
		}
	}
	if row := h.Tenants["panicky"]; row.Breaker == nil || row.Breaker.Trips == 0 {
		t.Errorf("panicky breaker never tripped: %+v", row)
	} else if row.Status != "degraded" {
		t.Errorf("panicky status = %q, want degraded", row.Status)
	}
	if row := h.Tenants["blocked"]; row.Admission.ShedQueueFull < 2 {
		t.Errorf("blocked tenant sheds = %+v, want >= 2", row.Admission)
	}
	if h.ShedSaturated != 0 {
		t.Errorf("working set saturated %d times with MaxActive covering every tenant", h.ShedSaturated)
	}

	// Releasing the gate lets the parked requests finish normally: the
	// saturation was load, not damage.
	releaseGate()
	for i := range 4 {
		if err := <-parked; err != nil {
			t.Errorf("parked request %d after release: %v", i, err)
		}
	}
}
