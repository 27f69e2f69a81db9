package batlife

import (
	"bufio"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"batlife/internal/obs"
)

// TestSolveReportFirstSolve pins the report of a cold solve: a fresh
// model build, no memo hit, and the uniformisation statistics of the
// actual iteration.
func TestSolveReportFirstSolve(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{10000, 15000}
	s := NewSolver(SolverOptions{})
	var rep SolveReport
	d, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 50, Report: &rep})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModelCacheHit || rep.ResultMemoHit {
		t.Errorf("cold solve reported hits: %+v", rep)
	}
	if rep.States != d.States || rep.Transitions != d.Transitions || rep.Iterations != d.Iterations {
		t.Errorf("report stats %+v disagree with distribution %d/%d/%d",
			rep, d.States, d.Transitions, d.Iterations)
	}
	if rep.Iterations <= 0 || rep.SpMVs != rep.Iterations {
		t.Errorf("Iterations = %d, SpMVs = %d; want equal and positive", rep.Iterations, rep.SpMVs)
	}
	if rep.FoxGlynnRight <= 0 || rep.FoxGlynnLeft > rep.FoxGlynnRight {
		t.Errorf("Fox–Glynn window [%d, %d] implausible", rep.FoxGlynnLeft, rep.FoxGlynnRight)
	}
	if rep.UniformizationRate <= 0 {
		t.Errorf("UniformizationRate = %v", rep.UniformizationRate)
	}
	if rep.BuildDuration <= 0 || rep.SolveDuration <= 0 {
		t.Errorf("durations %v/%v, want positive on a cold solve", rep.BuildDuration, rep.SolveDuration)
	}
}

// TestSolveReportMemoReplay pins the memo-hit contract: the answer comes
// from the memo, the statistics replay those of the original solve, and
// ResultMemoHit/ModelCacheHit are set.
func TestSolveReportMemoReplay(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{10000, 15000}
	s := NewSolver(SolverOptions{})
	var first SolveReport
	if _, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 50, Report: &first}); err != nil {
		t.Fatal(err)
	}
	var second SolveReport
	d2, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 50, Report: &second})
	if err != nil {
		t.Fatal(err)
	}
	if !second.ResultMemoHit || !second.ModelCacheHit {
		t.Errorf("repeat solve: ResultMemoHit=%v ModelCacheHit=%v, want both true",
			second.ResultMemoHit, second.ModelCacheHit)
	}
	if second.SolveDuration != 0 {
		t.Errorf("memo hit SolveDuration = %v, want 0", second.SolveDuration)
	}
	if second.States != first.States || second.Iterations != first.Iterations ||
		second.SpMVs != first.SpMVs || second.FoxGlynnRight != first.FoxGlynnRight {
		t.Errorf("memo replay stats %+v != original %+v", second, first)
	}
	if d2.Iterations != first.Iterations {
		t.Errorf("memoised distribution Iterations = %d, want %d", d2.Iterations, first.Iterations)
	}
}

// TestTelemetryExactCounts asserts exact deterministic counter values
// after a known sequence of solves: two identical queries are one build,
// one engine hit, one memo hit — and the iteration total matches the
// report.
func TestTelemetryExactCounts(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{10000, 15000}
	reg := NewTelemetry()
	s := NewSolver(SolverOptions{Telemetry: reg})
	sweptBefore := scrapeCounter(t, reg, "ctmc_swept_nnz_total")
	var rep SolveReport
	if _, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 50, Report: &rep}); err != nil {
		t.Fatal(err)
	}
	// The report, the solve's span and the /metrics delta describe the
	// same solve field by field.
	if rep.SweptNNZ <= 0 || rep.SweptNNZ > int64(rep.SpMVs)*int64(rep.Transitions+rep.ReachableStates) {
		t.Errorf("SweptNNZ = %d, want in (0, SpMVs·(nnz+states)]", rep.SweptNNZ)
	}
	if d := scrapeCounter(t, reg, "ctmc_swept_nnz_total") - sweptBefore; d != rep.SweptNNZ {
		t.Errorf("/metrics ctmc_swept_nnz_total delta = %d, report SweptNNZ = %d", d, rep.SweptNNZ)
	}
	var spans []map[string]string
	for _, sp := range reg.Tracer().Spans() {
		if sp.Name == "ctmc.transient" {
			spans = append(spans, sp.Attrs)
		}
	}
	if len(spans) != 1 {
		t.Fatalf("%d ctmc.transient spans, want 1", len(spans))
	}
	for key, want := range map[string]string{
		"iterations":     strconv.Itoa(rep.Iterations),
		"foxglynn_left":  strconv.Itoa(rep.FoxGlynnLeft),
		"foxglynn_right": strconv.Itoa(rep.FoxGlynnRight),
		"swept_nnz":      strconv.FormatInt(rep.SweptNNZ, 10),
		"dropped_mass":   strconv.FormatFloat(rep.DroppedMass, 'g', -1, 64),
	} {
		if got := spans[0][key]; got != want {
			t.Errorf("ctmc.transient span %s = %q, report says %q", key, got, want)
		}
	}
	if _, err := s.LifetimeDistribution(b, w, times, AnalysisOptions{Delta: 50}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"solver_solves_total":                  2,
		"solver_result_memo_hits_total":        1,
		"engine_cache_misses_total":            1,
		"engine_cache_hits_total":              1,
		"core_expansions_total":                1,
		"ctmc_solves_total":                    1,
		"ctmc_uniformization_iterations_total": int64(rep.Iterations),
		"ctmc_spmv_total":                      int64(rep.SpMVs),
		"ctmc_swept_nnz_total":                 rep.SweptNNZ,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Grid and reachable sizes are reported separately and agree with
	// the report. Of the 290 grid states a full battery never reaches
	// the top level (both workload states) nor the empty "off" state.
	grid, reach := reg.Histogram("core_expanded_states").Snapshot(), reg.Histogram("core_reachable_states").Snapshot()
	if grid.Count != 1 || int(grid.Sum) != rep.States || reach.Count != 1 || int(reach.Sum) != rep.ReachableStates ||
		rep.States != 290 || rep.ReachableStates != 287 {
		t.Errorf("core_expanded_states %d/%v, core_reachable_states %d/%v, report states %d reachable %d, want 290 and 287",
			grid.Count, grid.Sum, reach.Count, reach.Sum, rep.States, rep.ReachableStates)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("Stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestSweepProgressOncePerScenario pins the Progress contract: exactly
// one callback per scenario — including memo-served repeats and failing
// scenarios — with each done value 1..n delivered exactly once.
func TestSweepProgressOncePerScenario(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{10000, 15000}
	mk := func(name string, delta float64) Scenario {
		return Scenario{Name: name, Battery: b, Workload: w, DeltaAs: delta, Times: times}
	}
	scenarios := []Scenario{
		mk("a", 50),
		mk("a-again", 50), // same cell: served from cache/memo
		mk("bad", 7),      // 7 does not divide the well capacities: fails
		mk("b", 100),
		mk("a-thrice", 50),
		mk("bad-again", 7),
	}
	var (
		mu    sync.Mutex
		calls []int
	)
	s := NewSolver(SolverOptions{})
	results, err := s.Sweep(scenarios, SweepOptions{
		Workers: 3,
		Progress: func(done, total int) {
			if total != len(scenarios) {
				t.Errorf("Progress total = %d, want %d", total, len(scenarios))
			}
			mu.Lock()
			calls = append(calls, done)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(scenarios) {
		t.Fatalf("Progress fired %d times, want once per scenario (%d)", len(calls), len(scenarios))
	}
	sort.Ints(calls)
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("Progress done values %v, want a permutation of 1..%d", calls, len(scenarios))
		}
	}
	var failed int
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
	}
	if failed != 2 {
		t.Errorf("%d failed scenarios, want 2", failed)
	}
}

// TestSweepTelemetrySpans runs an instrumented sweep and checks the span
// coverage the trace export promises: one sweep.scenario span per
// scenario, plus build and transient spans underneath.
func TestSweepTelemetrySpans(t *testing.T) {
	b, w := onOffC1(t)
	times := []float64{10000, 15000}
	reg := NewTelemetry()
	s := NewSolver(SolverOptions{Telemetry: reg})
	scenarios := []Scenario{
		{Name: "d50", Battery: b, Workload: w, DeltaAs: 50, Times: times},
		{Name: "d100", Battery: b, Workload: w, DeltaAs: 100, Times: times},
		{Name: "bad", Battery: b, Workload: w, DeltaAs: 7, Times: times},
	}
	if _, err := s.Sweep(scenarios, SweepOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, span := range reg.Tracer().Spans() {
		byName[span.Name]++
	}
	if byName["sweep.scenario"] != len(scenarios) {
		t.Errorf("sweep.scenario spans = %d, want %d (got %v)", byName["sweep.scenario"], len(scenarios), byName)
	}
	// All three scenarios are cache misses, so three engine.build spans
	// (the bad Δ ends with an error attr); core.build rejects the bad Δ
	// in validation, before its span starts.
	if byName["engine.build"] != 3 || byName["core.build"] != 2 {
		t.Errorf("build spans engine=%d core=%d, want 3/2", byName["engine.build"], byName["core.build"])
	}
	if byName["ctmc.transient"] != 2 {
		t.Errorf("ctmc.transient spans = %d, want 2", byName["ctmc.transient"])
	}
	if v := reg.Counter("sweep_scenarios_total").Value(); v != int64(len(scenarios)) {
		t.Errorf("sweep_scenarios_total = %d, want %d", v, len(scenarios))
	}
	if h := reg.Histogram("sweep_queue_wait_seconds"); h.Snapshot().Count != int64(len(scenarios)) {
		t.Errorf("sweep_queue_wait_seconds count = %d, want %d", h.Snapshot().Count, len(scenarios))
	}
}

// scrapeCounter reads one unlabelled counter sample from the registry's
// /metrics endpoint; an absent series reads 0.
func scrapeCounter(t *testing.T, reg *Telemetry, sample string) int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), sample+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("/metrics %s: %v", sample, err)
			}
			return n
		}
	}
	return 0
}
