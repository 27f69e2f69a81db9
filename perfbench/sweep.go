package main

import (
	"runtime"
	"slices"
	"time"

	"batlife"
	"batlife/internal/core"
	"batlife/internal/engine"
)

// sweepWorkers is the Sweep parallelism: the container's two vCPUs.
const sweepWorkers = 2

func scenarios(ps []problem) []batlife.Scenario {
	out := make([]batlife.Scenario, len(ps))
	for i, p := range ps {
		out[i] = batlife.Scenario{Name: p.name, Battery: p.battery, Workload: p.workload, DeltaAs: p.delta, Times: p.times}
	}
	return out
}

// runSweep drives the sweep-grid workload: each operation is one Sweep
// on a fresh Solver.
func runSweep(cfg config, o *outcome) error {
	w, err := newWorkloads()
	if err != nil {
		return err
	}
	ps := sweepOrder(sweepGrid(w), cfg.seed)
	scs := scenarios(ps)
	ref := references.Sweep

	// The traced run alternates untraced sweeps with sweeps traced by
	// spans and a Telemetry registry, so a change of host speed during
	// the run moves both alike.
	reg := batlife.NewTelemetry()
	var sweeps, allocs, traced []float64
	var stats engine.Stats
	start := time.Now()
	for len(sweeps) == 0 || len(traced) == 0 && cfg.trace || time.Since(start) < cfg.seconds {
		if cfg.trace && len(traced) < len(sweeps) {
			d, _, _ := sweepOnce(scs, ref, cfg.tracer, reg, o, false)
			traced = append(traced, ms(d))
			continue
		}
		d, st, alloc := sweepOnce(scs, ref, nil, nil, o, cfg.trace)
		sweeps = append(sweeps, ms(d))
		allocs = append(allocs, alloc)
		stats.Hits += st.Hits
		stats.Misses += st.Misses
		stats.Evictions += st.Evictions
	}
	untraced := median(sweeps)
	o.set("op_p50_ms", untraced)
	o.note("op_p50_ms", "median of %d sweeps over %d scenarios", len(sweeps), len(scs))
	o.set("ops_per_s", float64(len(sweeps))/(sum(sweeps)/1e3))
	o.set("peak_rss_mb", selfPeakRSSMB())
	if !cfg.trace {
		return nil
	}

	n := float64(len(sweeps))
	o.set("solve.alloc_mb", median(allocs))
	o.set("engine.hits", float64(stats.Hits)/n)
	o.set("engine.misses", float64(stats.Misses)/n)
	o.set("engine.evictions", float64(stats.Evictions)/n)
	o.set("engine.hit_ratio", ratio(float64(stats.Hits), float64(stats.Hits+stats.Misses)))

	// Grouping is counted from the scenario list, outside the traced
	// sweeps, with the same fingerprint Sweep groups by.
	probe := cfg.tracer.root("probe")
	sp := probe.child("engine.fingerprint")
	groups := make(map[engine.Key]bool)
	for _, p := range ps {
		key, _ := engine.Fingerprint(p.model, p.delta, core.Options{})
		groups[key] = true
	}
	fp := sp.end()
	probe.end()
	o.set("sweep.groups", float64(len(groups)))
	o.set("engine.fingerprint_us", ms(fp)*1e3)

	tn := float64(len(traced))
	o.set("trace.overhead_pct", 100*(median(traced)-untraced)/untraced)
	o.note("trace.overhead_pct", "traced sweep %.1f ms (with Telemetry) vs untraced %.1f ms", median(traced), untraced)
	o.set("sweep.builds", float64(reg.Counter("engine_cache_misses_total").Value())/tn)
	o.set("ctmc.spmv", float64(reg.Counter("ctmc_spmv_total").Value())/tn)
	o.set("ctmc.iterations", float64(reg.Counter("ctmc_uniformization_iterations_total").Value())/tn)
	o.set("solver.memo_hits", float64(reg.Counter("solver_result_memo_hits_total").Value())/tn)
	o.set("solver.memo_ratio", ratio(float64(reg.Counter("solver_result_memo_hits_total").Value()),
		float64(reg.Counter("solver_solves_total").Value())))
	states := reg.Histogram("core_expanded_states").Snapshot()
	o.set("core.states", states.Sum/tn)
	o.set("core.nnz", reg.Histogram("core_expanded_nnz").Snapshot().Sum/tn)
	o.set("core.build_ms", reg.Histogram("core_build_seconds").Snapshot().Sum*1e3/tn)
	qw := reg.Histogram("sweep_queue_wait_seconds").Snapshot()
	for _, p := range tailPercentiles {
		if supports(float64(qw.Count), p) {
			o.set("sweep.queue_wait_ms", qw.Quantile(p/100)*1e3)
			o.note("sweep.queue_wait_ms", "p%g of %d scenario waits", p, qw.Count)
			break
		}
	}
	return nil
}

// sweepOrder permutes the scenarios by seed within each shared-model
// group and keeps the groups in their listed order. Sweep hands groups
// to its workers in order of first appearance, so permuting the groups
// would change the makespan on two workers from seed to seed.
func sweepOrder(ps []problem, seed int64) []problem {
	group := make(map[engine.Key]int)
	rank := make([]int, len(ps))
	for i, p := range ps {
		key, _ := engine.Fingerprint(p.model, p.delta, core.Options{})
		if _, ok := group[key]; !ok {
			group[key] = len(group)
		}
		rank[i] = group[key]
	}
	idx := make([]int, len(ps))
	for i := range idx {
		idx[i] = i
	}
	idx = permute(idx, seed)
	slices.SortStableFunc(idx, func(a, b int) int { return rank[a] - rank[b] })
	out := make([]problem, len(ps))
	for i, j := range idx {
		out[i] = ps[j]
	}
	return out
}

// sweepOnce runs one Sweep on a fresh Solver and checks every scenario.
// With a tracer it records spans around the facade calls; with a
// registry the Solver records its own telemetry into it.
func sweepOnce(scs []batlife.Scenario, ref map[string][]float64, t *tracer, reg *batlife.Telemetry, o *outcome, measureAlloc bool) (time.Duration, engine.Stats, float64) {
	// Collect the previous Sweep's garbage, untimed, so every Sweep
	// starts from the same heap.
	runtime.GC()
	var before runtime.MemStats
	if measureAlloc {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	root := t.root("sweep")
	sp := root.child("solver.new")
	s := batlife.NewSolver(batlife.SolverOptions{Telemetry: reg})
	sp.end()
	sp = root.child("solver.sweep")
	res, err := s.Sweep(scs, batlife.SweepOptions{Workers: sweepWorkers, Epsilon: epsilon})
	sp.end()
	st := s.Stats()
	sp = root.child("solver.close")
	s.Close()
	sp.end()
	root.end()
	d := time.Since(start)
	var alloc float64
	if measureAlloc {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		alloc = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	}
	if err != nil {
		o.check("sweep", err.Error())
		return d, st, alloc
	}
	for _, r := range res {
		if r.Err != nil {
			o.check(r.Name, r.Err.Error())
			continue
		}
		o.check(r.Name, checkCDF(r.Distribution.EmptyProb, ref[r.Name]))
	}
	return d, st, alloc
}

// sweepSetup builds what a sweep-grid run needs before its first Sweep.
func sweepSetup() error {
	w, err := newWorkloads()
	if err != nil {
		return err
	}
	scenarios(sweepGrid(w))
	batlife.NewSolver(batlife.SolverOptions{}).Close()
	return nil
}
