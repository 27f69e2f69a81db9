package main

import (
	"runtime"
	"time"

	"batlife"
	"batlife/internal/core"
	"batlife/internal/engine"
	"batlife/internal/foxglynn"
	"batlife/internal/sparse"
)

// spmvProbeNNZ is the number of non-zeros one SpMV probe streams
// through per kernel and rung, so every rung's probe runs for a similar
// time (tens of milliseconds) whatever its size.
const spmvProbeNNZ = 20_000_000

// runLadder drives the cold-ladder workload: every pass solves each rung
// on a fresh Solver that is closed afterwards.
func runLadder(cfg config, o *outcome) error {
	w, err := newWorkloads()
	if err != nil {
		return err
	}
	rungs := permute(ladder(w), cfg.seed)
	ref := references.Ladder

	var passes, allocs []float64
	var traced []ladderLayers
	var stats engine.Stats
	start := time.Now()
	// The traced run alternates untraced and traced passes, so a change
	// of host speed during the run moves both alike.
	for len(passes) == 0 || len(traced) == 0 && cfg.trace || time.Since(start) < cfg.seconds {
		if cfg.trace && len(traced) < len(passes) {
			traced = append(traced, tracedLadderPass(cfg.tracer, rungs, ref, o))
			continue
		}
		var before runtime.MemStats
		if cfg.trace {
			runtime.ReadMemStats(&before)
		}
		d, st := ladderPass(rungs, ref, o)
		passes = append(passes, ms(d))
		stats.Hits += st.Hits
		stats.Misses += st.Misses
		stats.Evictions += st.Evictions
		if cfg.trace {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		}
	}
	untraced := median(passes)
	o.set("op_p50_ms", untraced)
	o.note("op_p50_ms", "median of %d passes over %d rungs", len(passes), len(rungs))
	o.set("ops_per_s", float64(len(passes))/(sum(passes)/1e3))
	o.set("peak_rss_mb", selfPeakRSSMB())
	if !cfg.trace {
		return nil
	}

	n := float64(len(passes))
	o.set("solve.alloc_mb", median(allocs))
	o.set("engine.hits", float64(stats.Hits)/n)
	o.set("engine.misses", float64(stats.Misses)/n)
	o.set("engine.evictions", float64(stats.Evictions)/n)
	o.set("engine.hit_ratio", ratio(float64(stats.Hits), float64(stats.Hits+stats.Misses)))
	reportLadderLayers(o, traced, untraced)
	return nil
}

// ladderPass solves every rung through the public facade, each on a
// fresh Solver, and checks the answers. The pass time is the sum of
// the rungs' NewSolver-to-Close times; between rungs the heap is
// collected, untimed, so every rung starts as cold as a fresh process
// and peak memory does not depend on where earlier garbage happened to
// be collected.
func ladderPass(rungs []problem, ref map[string][]float64, o *outcome) (time.Duration, engine.Stats) {
	var stats engine.Stats
	var total time.Duration
	for _, r := range rungs {
		runtime.GC()
		start := time.Now()
		s := batlife.NewSolver(batlife.SolverOptions{})
		d, err := s.LifetimeDistribution(r.battery, r.workload, r.times,
			batlife.AnalysisOptions{Delta: r.delta, Epsilon: epsilon})
		st := s.Stats()
		s.Close()
		total += time.Since(start)
		stats.Hits += st.Hits
		stats.Misses += st.Misses
		stats.Evictions += st.Evictions
		if err != nil {
			o.check(r.name, err.Error())
			continue
		}
		o.check(r.name, checkCDF(d.EmptyProb, ref[r.name]))
	}
	return total, stats
}

// rungLayers is what the traced path measured on one rung.
type rungLayers struct {
	states, nnz, iterations, spmvs int
	qt                             float64
	fingerprint, build, operator   time.Duration
	loop, weights                  time.Duration
	window                         int
	poolNsPerNNZ, serialNsPerNNZ   float64
	spmvBytes                      float64
}

// ladderLayers is one traced pass: the rung spans' total, and each
// rung's layers by name.
type ladderLayers struct {
	solvePath time.Duration
	rungs     map[string]rungLayers
}

// tracedLadderPass solves every rung by calling the layers the facade
// calls, one span around each call, then probes the Fox–Glynn and SpMV
// layers outside the rung spans so the probes do not count as tracing
// overhead.
func tracedLadderPass(t *tracer, rungs []problem, ref map[string][]float64, o *outcome) ladderLayers {
	pass := ladderLayers{rungs: make(map[string]rungLayers, len(rungs))}
	for _, r := range rungs {
		runtime.GC()
		var l rungLayers
		pool := sparse.NewPool(runtime.NumCPU())
		root := t.root("rung")

		sp := root.child("engine.fingerprint")
		engine.Fingerprint(r.model, r.delta, core.Options{})
		l.fingerprint = sp.end()

		sp = root.child("core.build")
		e, err := core.Build(r.model, r.delta, core.Options{})
		l.build = sp.end()
		if err != nil {
			root.end()
			pool.Close()
			o.check(r.name+" (traced)", err.Error())
			continue
		}

		sp = root.child("ctmc.operator")
		u, err := e.Operator()
		l.operator = sp.end()
		if err != nil {
			root.end()
			pool.Close()
			o.check(r.name+" (traced)", err.Error())
			continue
		}

		sp = root.child("ctmc.loop")
		res, err := e.LifetimeCDFOpts(r.times, core.SolveOptions{Epsilon: epsilon, Pool: pool})
		l.loop = sp.end()
		pass.solvePath += root.end()
		if err != nil {
			pool.Close()
			o.check(r.name+" (traced)", err.Error())
			continue
		}
		o.check(r.name+" (traced)", checkCDF(res.EmptyProb, ref[r.name]))
		l.states, l.nnz, l.iterations, l.spmvs = res.States, res.NNZ, res.Iterations, res.SpMVs
		l.qt = res.Rate * r.times[len(r.times)-1]

		probe := t.root("probe")
		sp = probe.child("foxglynn.weights")
		for _, tp := range r.times {
			fw, err := foxglynn.Compute(u.Rate()*tp, epsilon)
			if err != nil {
				o.check(r.name+" (foxglynn)", err.Error())
				break
			}
			l.window = fw.Right - fw.Left + 1
		}
		l.weights = sp.end()

		gen := e.Generator()
		x := make([]float64, gen.Cols())
		for i := range x {
			x[i] = 1
		}
		dst := make([]float64, gen.Rows())
		reps := max(5, spmvProbeNNZ/gen.NNZ())
		sp = probe.child("sparse.spmv.pool")
		for k := 0; k < reps; k++ {
			if err := pool.MulVec(gen, dst, x); err != nil {
				o.check(r.name+" (spmv)", err.Error())
				break
			}
		}
		l.poolNsPerNNZ = float64(sp.end()) / float64(reps*gen.NNZ())
		sp = probe.child("sparse.spmv.serial")
		for k := 0; k < reps; k++ {
			if err := gen.MulVec(dst, x); err != nil {
				o.check(r.name+" (spmv)", err.Error())
				break
			}
		}
		l.serialNsPerNNZ = float64(sp.end()) / float64(reps*gen.NNZ())
		probe.end()
		pool.Close()
		// vals (8 B) + column index (4 B) per non-zero, row pointers
		// (4 B per row + 1), x read and dst written (8 B per entry).
		l.spmvBytes = float64(12*gen.NNZ() + 4*(gen.Rows()+1) + 8*gen.Cols() + 8*gen.Rows())
		pass.rungs[r.name] = l
	}
	return pass
}

// reportLadderLayers sets the per-layer metrics from the traced passes:
// per-pass totals are medians over passes.
func reportLadderLayers(o *outcome, passes []ladderLayers, untracedMS float64) {
	per := func(f func(rungLayers) float64) float64 {
		vals := make([]float64, len(passes))
		for i, p := range passes {
			for _, l := range p.rungs {
				vals[i] += f(l)
			}
		}
		return median(vals)
	}
	solvePath := make([]float64, len(passes))
	for i, p := range passes {
		solvePath[i] = ms(p.solvePath)
	}
	loop := per(func(l rungLayers) float64 { return ms(l.loop) })
	work := per(func(l rungLayers) float64 { return float64(l.nnz) * float64(l.iterations) })
	nnz := per(func(l rungLayers) float64 { return float64(l.nnz) })

	o.set("trace.overhead_pct", 100*(median(solvePath)-untracedMS)/untracedMS)
	o.note("trace.overhead_pct", "traced rung spans %.1f ms vs untraced pass %.1f ms", median(solvePath), untracedMS)
	o.set("ctmc.loop_ms", loop)
	o.set("ctmc.loop_share_pct", 100*loop/median(solvePath))
	o.set("ctmc.ns_per_nnz_iter", loop*1e6/work)
	o.set("ctmc.iterations", per(func(l rungLayers) float64 { return float64(l.iterations) }))
	o.set("ctmc.iters_per_qt", per(func(l rungLayers) float64 { return float64(l.iterations) })/
		per(func(l rungLayers) float64 { return l.qt }))
	o.set("ctmc.spmv", per(func(l rungLayers) float64 { return float64(l.spmvs) }))
	o.set("ctmc.operator_ms", per(func(l rungLayers) float64 { return ms(l.operator) }))
	o.set("core.states", per(func(l rungLayers) float64 { return float64(l.states) }))
	o.set("core.nnz", nnz)
	o.set("core.build_ms", per(func(l rungLayers) float64 { return ms(l.build) }))
	o.set("engine.fingerprint_us", per(func(l rungLayers) float64 { return ms(l.fingerprint) * 1e3 }))
	o.set("foxglynn.weights_ms", per(func(l rungLayers) float64 { return ms(l.weights) }))
	o.set("foxglynn.window", per(func(l rungLayers) float64 { return float64(l.window) }))
	o.set("sparse.spmv_ns_per_nnz", per(func(l rungLayers) float64 { return l.poolNsPerNNZ * float64(l.nnz) })/nnz)
	o.set("sparse.spmv_ns_per_nnz_serial", per(func(l rungLayers) float64 { return l.serialNsPerNNZ * float64(l.nnz) })/nnz)
	o.set("sparse.bytes_per_spmv_computed", per(func(l rungLayers) float64 { return l.spmvBytes }))
	o.note("sparse.bytes_per_spmv_computed", "computed from array sizes, one product per rung")

	for _, name := range rungNames {
		rung := func(f func(rungLayers) float64) float64 {
			vals := make([]float64, 0, len(passes))
			for _, p := range passes {
				if l, ok := p.rungs[name]; ok {
					vals = append(vals, f(l))
				}
			}
			return median(vals)
		}
		o.set("core.states."+name, rung(func(l rungLayers) float64 { return float64(l.states) }))
		o.set("core.nnz."+name, rung(func(l rungLayers) float64 { return float64(l.nnz) }))
		o.set("ctmc.loop_ms."+name, rung(func(l rungLayers) float64 { return ms(l.loop) }))
		o.set("ctmc.ns_per_nnz_iter."+name, rung(func(l rungLayers) float64 {
			return float64(l.loop) / (float64(l.nnz) * float64(l.iterations))
		}))
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ladderSetup builds what a cold-ladder run needs before its first
// pass; the set-up probe process times it.
func ladderSetup() error {
	w, err := newWorkloads()
	if err != nil {
		return err
	}
	ladder(w)
	batlife.NewSolver(batlife.SolverOptions{}).Close()
	return nil
}
