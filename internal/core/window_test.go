package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"batlife/internal/ctmc"
	"batlife/internal/foxglynn"
	"batlife/internal/sparse"
)

// timeGrid returns lo, lo+step, ..., hi.
func timeGrid(lo, hi, step float64) []float64 {
	var out []float64
	for t := lo; t <= hi; t += step {
		out = append(out, t)
	}
	return out
}

// TestEarlyStopMatchesFullWindowFig7 is the regression test for the
// steady-state stop on the Fig. 7 configuration (c = 1, Δ = 5 As). A
// per-entry max-norm test once stopped this solve while sub-normal mass
// still moved, 1.39e-10 away from the full window at t = 19,500 s; the
// exact stop waits until only the empty slice carries mass, so both
// solves agree within 2ε.
func TestEarlyStopMatchesFullWindowFig7(t *testing.T) {
	const eps = 1e-12
	e, err := Build(onOffModel(t, 1, 0), 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := e.Operator()
	if err != nil {
		t.Fatal(err)
	}
	times := timeGrid(6000, 20000, 250)
	w := e.emptyIndicator()
	stopped, err := u.Transient(e.alpha, w, times, ctmc.TransientOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	full, err := u.Transient(e.alpha, w, times, ctmc.TransientOptions{Epsilon: eps, DisableSteadyStateDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	if stopped.Iterations >= full.Iterations {
		t.Errorf("no early stop: %d of %d iterations", stopped.Iterations, full.Iterations)
	}
	for k, tk := range times {
		if d := math.Abs(stopped.Values[k] - full.Values[k]); d > 2*eps {
			t.Errorf("t=%v: early stop %v vs full window %v (|Δ| = %.3g > 2ε)",
				tk, stopped.Values[k], full.Values[k], d)
		}
	}
}

// plainUniformization is the test's referee: w·π(t) by textbook
// uniformisation — a full product v ← Pᵀ·v every step, with Pᵀ and the
// Fox–Glynn weights formed exactly as the engine forms them, and no live
// band and no early stop. Where nothing is trimmed the two agree bit for
// bit.
func plainUniformization(t *testing.T, gen *sparse.CSR, alpha, w, times []float64, eps float64) []float64 {
	t.Helper()
	n := gen.Rows()
	q := gen.MaxAbsDiagonal() * 1.02
	out := make([]float64, len(times))
	b := sparse.NewBuilder(n, n, gen.NNZ()+n)
	for r := 0; r < n; r++ {
		diag := 1.0
		gen.Row(r, func(c int, v float64) {
			if c == r {
				diag = 1 + v/q
			} else {
				b.Add(c, r, v/q)
			}
		})
		b.Add(r, r, diag)
	}
	pt, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]*foxglynn.Weights, len(times))
	right := 0
	for k, tk := range times {
		fw, err := foxglynn.Compute(q*tk, eps)
		if err != nil {
			t.Fatal(err)
		}
		weights[k], right = fw, max(right, fw.Right)
	}
	v := append([]float64(nil), alpha...)
	next := make([]float64, n)
	for m := 0; m <= right; m++ {
		s := 0.0
		for i := range w {
			s += w[i] * v[i]
		}
		for k, fw := range weights {
			if p := fw.At(m); p > 0 {
				out[k] += p * s
			}
		}
		if err := pt.MulVec(next, v); err != nil {
			t.Fatal(err)
		}
		v, next = next, v
	}
	return out
}

// hasAbsorbingRow reports whether some row of gen has no off-diagonal
// entry.
func hasAbsorbingRow(gen *sparse.CSR) bool {
	for r := 0; r < gen.Rows(); r++ {
		off := false
		gen.Row(r, func(c int, _ float64) { off = off || c != r })
		if !off {
			return true
		}
	}
	return false
}

// TestLiveBandBoundAgainstReferee checks the one-sided bound of the
// live-band solve, exact early stop included, on random small KiBaMRMs
// (charging, empty recovery, one and two wells): the windowed CDF never
// exceeds the referee's, and falls short of it by at most
// ε + DroppedMass. With the referee on the same Fox–Glynn weights the
// truncation cancels, so the shortfall is also within DroppedMass alone.
func TestLiveBandBoundAgainstReferee(t *testing.T) {
	const tol = 1e-14
	rng := rand.New(rand.NewSource(7))
	times := []float64{0.5, 3, 10, 40, 150, 600}
	trimmed := 0
	for trial := 0; trial < 120; trial++ {
		model, delta := randomModel(t, rng)
		opts := Options{AllowEmptyRecovery: rng.Intn(3) == 0}
		eps := []float64{1e-12, 1e-6}[trial%2]
		name := fmt.Sprintf("trial %d (N=%d, battery %+v, Δ=%v, currents %v, recovery %v, ε=%g)",
			trial, model.Workload.NumStates(), model.Battery, delta, model.Currents, opts.AllowEmptyRecovery, eps)
		e, err := Build(model, delta, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		u, err := e.Operator()
		if err != nil {
			t.Fatal(err)
		}
		// On a chain without absorbing states the early stop is the
		// max-norm heuristic, which the bound does not cover.
		w := e.emptyIndicator()
		got, err := u.Transient(e.alpha, w, times, ctmc.TransientOptions{
			Epsilon: eps, Workers: 1, DisableSteadyStateDetection: !hasAbsorbingRow(e.gen)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := plainUniformization(t, e.gen, e.alpha, w, times, eps)
		if got.DroppedMass < 0 {
			t.Fatalf("%s: DroppedMass = %v", name, got.DroppedMass)
		}
		if got.DroppedMass > 0 {
			trimmed++
		}
		for k, tk := range times {
			f, fref := got.Values[k], ref[k]
			if f > fref+tol {
				t.Errorf("%s: t=%v: windowed %v above referee %v", name, tk, f, fref)
			}
			if fref-f > got.DroppedMass+eps+tol {
				t.Errorf("%s: t=%v: windowed %v below referee %v by %.3g > ε + DroppedMass (%.3g)",
					name, tk, f, fref, fref-f, eps+got.DroppedMass)
			}
			if fref-f > got.DroppedMass+tol {
				t.Errorf("%s: t=%v: windowed %v below referee %v by %.3g > DroppedMass %.3g",
					name, tk, f, fref, fref-f, got.DroppedMass)
			}
		}
	}
	if trimmed == 0 {
		t.Error("no trial trimmed any mass; the bound was never exercised")
	}
}

// TestLiveBandWorkersBitIdentical pins that the SpMV parallelism does
// not change a live-band solve: values, DroppedMass and SweptNNZ agree
// bit for bit between one and four workers, on a chain large enough for
// the pool to split its band.
func TestLiveBandWorkersBitIdentical(t *testing.T) {
	e, err := Build(onOffModel(t, 0.625, 4.5e-5), 50, Options{})
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{1000, 2500, 4000}
	solve := func(workers int) *Result {
		res, err := e.LifetimeCDFOpts(times, SolveOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := solve(1), solve(4)
	for k := range times {
		//numlint:ignore floatcmp parallel products must be bit-identical to serial ones
		if one.EmptyProb[k] != four.EmptyProb[k] {
			t.Errorf("t=%v: 1 worker %v, 4 workers %v", times[k], one.EmptyProb[k], four.EmptyProb[k])
		}
	}
	//numlint:ignore floatcmp the dropped-mass total must not depend on the partition
	if one.DroppedMass != four.DroppedMass || one.SweptNNZ != four.SweptNNZ {
		t.Errorf("DroppedMass %v / %v, SweptNNZ %d / %d for 1 / 4 workers",
			one.DroppedMass, four.DroppedMass, one.SweptNNZ, four.SweptNNZ)
	}
	if e.ReachableStates() < 4096 {
		t.Fatalf("%d reachable states: too few for the parallel path", e.ReachableStates())
	}
}
