package batlife

import (
	"errors"
	"testing"
)

// TestSweepGroupMatchesSolo pins the Sweep group contract. Scenarios
// sharing (battery, workload, Δ) but with distinct time grids land in
// one fingerprint group and are answered by one transient solve over
// the union of their grids. The sweep holds a c = 1 group and a
// two-well group; grids interleave, repeat, and in each group one runs
// far past the lifetime so steady-state detection fires inside the
// union solve. Every curve must match a fresh solo solve bit for bit.
func TestSweepGroupMatchesSolo(t *testing.T) {
	b1, w := onOffC1(t)
	b2 := PaperBattery()
	scenarios := []Scenario{
		{Name: "c1-short", Battery: b1, Workload: w, DeltaAs: 100, Times: []float64{5000, 9000}},
		{Name: "two-well-a", Battery: b2, Workload: w, DeltaAs: 100, Times: []float64{8000, 10000, 12000}},
		{Name: "c1-long", Battery: b1, Workload: w, DeltaAs: 100, Times: []float64{10000, 15000, 20000}},
		{Name: "c1-dense", Battery: b1, Workload: w, DeltaAs: 100, Times: []float64{6000, 7000, 8000, 9000}},
		{Name: "two-well-b", Battery: b2, Workload: w, DeltaAs: 100, Times: []float64{9000, 11000, 13000}},
		{Name: "c1-short-again", Battery: b1, Workload: w, DeltaAs: 100, Times: []float64{5000, 9000}},
		{Name: "c1-past-life", Battery: b1, Workload: w, DeltaAs: 100, Times: []float64{9000, 40000}},
		{Name: "two-well-past-life", Battery: b2, Workload: w, DeltaAs: 100, Times: []float64{12000, 40000}},
	}
	reg := NewTelemetry()
	s := NewSolver(SolverOptions{Telemetry: reg})
	defer s.Close()
	results, err := s.Sweep(scenarios, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("scenario %q: %v", r.Name, r.Err)
		}
		if r.Index != i || r.Name != scenarios[i].Name {
			t.Fatalf("result %d is {Index: %d, Name: %q}, want input order", i, r.Index, r.Name)
		}
		solo, err := NewSolver(SolverOptions{}).LifetimeDistribution(
			scenarios[i].Battery, scenarios[i].Workload, scenarios[i].Times,
			AnalysisOptions{Delta: scenarios[i].DeltaAs})
		if err != nil {
			t.Fatal(err)
		}
		sameCurve(t, "grouped sweep "+r.Name, r.Distribution.EmptyProb, solo.EmptyProb)
	}

	// Each group costs exactly one solo solve over its union grid, and
	// that solve stops early on steady state.
	unions := map[Battery][]float64{
		b1: {5000, 6000, 7000, 8000, 9000, 10000, 15000, 20000, 40000},
		b2: {8000, 9000, 10000, 11000, 12000, 13000, 40000},
	}
	var unionSpMVs int64
	unionReports := make(map[Battery]SolveReport)
	for battery, union := range unions {
		var rep SolveReport
		if _, err := NewSolver(SolverOptions{}).LifetimeDistribution(battery, w, union,
			AnalysisOptions{Delta: 100, Report: &rep}); err != nil {
			t.Fatal(err)
		}
		if rep.Iterations >= rep.FoxGlynnRight {
			t.Errorf("union solve on %+v ran %d of %d iterations; want steady-state detection to stop it early",
				battery, rep.Iterations, rep.FoxGlynnRight)
		}
		unionSpMVs += int64(rep.SpMVs)
		rep.BuildDuration, rep.SolveDuration = 0, 0
		unionReports[battery] = rep
	}
	if st := s.Stats(); st.Misses != 2 {
		t.Errorf("model builds = %d, want 2 (one expanded CTMC per group)", st.Misses)
	}
	if v := reg.Counter("ctmc_solves_total").Value(); v != 2 {
		t.Errorf("ctmc_solves_total = %d, want 2 (one per group)", v)
	}
	if v := reg.Counter("ctmc_spmv_total").Value(); v != unionSpMVs {
		t.Errorf("ctmc_spmv_total = %d, want %d (solo solves over the union grids)", v, unionSpMVs)
	}
	if v := reg.Counter("solver_solves_total").Value(); v != int64(len(scenarios)) {
		t.Errorf("solver_solves_total = %d, want %d", v, len(scenarios))
	}

	// A grouped answer, and the report memoised with it, carry the
	// counts of the shared solve.
	for i, r := range results {
		sc := scenarios[i]
		want := unionReports[sc.Battery]
		if r.Distribution.Iterations != want.Iterations {
			t.Errorf("%s: Iterations = %d, want the union solve's %d", sc.Name, r.Distribution.Iterations, want.Iterations)
		}
		var rep SolveReport
		if _, err := s.LifetimeDistribution(sc.Battery, sc.Workload, sc.Times,
			AnalysisOptions{Delta: sc.DeltaAs, Report: &rep}); err != nil {
			t.Fatal(err)
		}
		if !rep.ResultMemoHit {
			t.Errorf("%s: re-query missed the memo", sc.Name)
		}
		// Only the per-call cache flags and build time differ.
		rep.ResultMemoHit, rep.ModelCacheHit, rep.BuildDuration = false, false, 0
		if rep != want {
			t.Errorf("%s: memoised report %+v, want the union solve's %+v", sc.Name, rep, want)
		}
	}
	memoBefore := reg.Counter("solver_result_memo_hits_total").Value()

	again, err := s.Sweep(scenarios, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again {
		if r.Err != nil {
			t.Fatalf("memoised scenario %q: %v", r.Name, r.Err)
		}
		sameCurve(t, "memoised sweep "+r.Name, r.Distribution.EmptyProb, results[i].Distribution.EmptyProb)
	}
	if v := reg.Counter("solver_result_memo_hits_total").Value() - memoBefore; v != int64(len(scenarios)) {
		t.Errorf("memo hits in repeat sweep = %d, want %d", v, len(scenarios))
	}
	if v := reg.Counter("ctmc_solves_total").Value(); v != 2 {
		t.Errorf("ctmc_solves_total after repeat sweep = %d, want 2", v)
	}
}

// TestSweepBatchedGroupErrorFallsBackToSolo: when the shared model of a
// group cannot be built (Δ does not divide the wells), or one member's
// grid is one a solo solve refuses (empty or descending), the
// group solve is abandoned and every member reports its own solo
// answer or error — grouping must not coarsen per-scenario error
// attribution, and the union of the grids must not hide a bad one.
func TestSweepBatchedGroupErrorFallsBackToSolo(t *testing.T) {
	b, w := onOffC1(t)
	scenarios := []Scenario{
		{Name: "bad-a", Battery: b, Workload: w, DeltaAs: 7, Times: []float64{5000}},
		{Name: "bad-b", Battery: b, Workload: w, DeltaAs: 7, Times: []float64{9000}},
		{Name: "good", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{9000}},
		{Name: "empty", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{}},
		{Name: "descending", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{9000, 5000}},
		{Name: "good-too", Battery: b, Workload: w, DeltaAs: 100, Times: []float64{5000, 12000}},
	}
	results, err := NewSolver(SolverOptions{}).Sweep(scenarios, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		sc := scenarios[i]
		solo, soloErr := NewSolver(SolverOptions{}).LifetimeDistribution(sc.Battery, sc.Workload, sc.Times,
			AnalysisOptions{Delta: sc.DeltaAs})
		if soloErr != nil {
			if r.Err == nil || r.Distribution != nil {
				t.Errorf("scenario %q: err = %v, dist = %v; want the solo error %v", sc.Name, r.Err, r.Distribution, soloErr)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("scenario %q: %v", sc.Name, r.Err)
			continue
		}
		sameCurve(t, "fallback "+sc.Name, r.Distribution.EmptyProb, solo.EmptyProb)
	}
	if results[2].Err != nil || results[5].Err != nil {
		t.Errorf("good scenarios failed: %v, %v", results[2].Err, results[5].Err)
	}
}

// TestSolverCloseKeepsSolving: Close releases the worker pool but the
// solver must keep answering queries (serially) and Close must be
// idempotent.
func TestSolverCloseKeepsSolving(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{9000, 12000}
	s := NewSolver(SolverOptions{})
	before, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 100})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	// Bypass the result memo with a fresh grid so the post-Close solve
	// actually iterates.
	after, err := s.LifetimeDistribution(b, w, []float64{9000, 12000, 15000}, AnalysisOptions{Delta: 100})
	if err != nil {
		t.Fatalf("solve after Close: %v", err)
	}
	sameCurve(t, "post-close prefix", after.EmptyProb[:2], before.EmptyProb)
}

// TestSweepGroupIterationBudgetPerScenario sets SweepOptions.MaxIterations
// between the Fox–Glynn right bounds of the short and the long grids of
// one shared-model group. The group's combined solve needs the long
// bound and is refused, so the whole group falls back to solo solves:
// the short members must still get solo-identical curves and only the
// long member may report ErrIterationLimit.
func TestSweepGroupIterationBudgetPerScenario(t *testing.T) {
	b, w := onOffC1(t)
	short := [][]float64{{5000, 9000}, {6000, 8000}}
	long := []float64{15000, 20000}
	rightBound := func(times []float64) int {
		var rep SolveReport
		if _, err := NewSolver(SolverOptions{}).LifetimeDistribution(b, w, times,
			AnalysisOptions{Delta: 100, Report: &rep}); err != nil {
			t.Fatal(err)
		}
		return rep.FoxGlynnRight
	}
	shortRight := max(rightBound(short[0]), rightBound(short[1]))
	longRight := rightBound(long)
	budget := (shortRight + longRight) / 2
	if !(shortRight < budget && budget < longRight) {
		t.Fatalf("budget %d does not separate the short (%d) and long (%d) right bounds", budget, shortRight, longRight)
	}

	scenarios := []Scenario{
		{Name: "short-a", Battery: b, Workload: w, DeltaAs: 100, Times: short[0]},
		{Name: "long", Battery: b, Workload: w, DeltaAs: 100, Times: long},
		{Name: "short-b", Battery: b, Workload: w, DeltaAs: 100, Times: short[1]},
	}
	results, err := NewSolver(SolverOptions{}).Sweep(scenarios, SweepOptions{Workers: 2, MaxIterations: budget})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		sc := scenarios[i]
		if sc.Name == "long" {
			if !errors.Is(r.Err, ErrIterationLimit) || r.Distribution != nil {
				t.Errorf("long: err = %v, dist = %v; want ErrIterationLimit alone", r.Err, r.Distribution)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", sc.Name, r.Err)
		}
		solo, err := NewSolver(SolverOptions{}).LifetimeDistribution(b, w, sc.Times,
			AnalysisOptions{Delta: 100, MaxIterations: budget})
		if err != nil {
			t.Fatal(err)
		}
		sameCurve(t, "budgeted sweep "+sc.Name, r.Distribution.EmptyProb, solo.EmptyProb)
	}
}
