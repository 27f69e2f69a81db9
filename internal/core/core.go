// Package core implements the paper's contribution: the Markovian
// approximation algorithm of Section 5, which computes the battery
// lifetime distribution of a KiBaMRM — a reward-inhomogeneous Markov
// reward model whose two accumulated rewards are the charge wells of the
// Kinetic Battery Model.
//
// The uncountable state space S × [0, u1] × [0, u2] of the MRM is broken
// down to a finite grid with step Δ: a state (i, j1, j2) of the derived
// pure CTMC means the workload is in state i, the available charge lies
// in (j1Δ, (j1+1)Δ] and the bound charge in (j2Δ, (j2+1)Δ]. Three kinds
// of transitions arise (Section 5.2):
//
//   - workload transitions (i, j1, j2) → (i′, j1, j2) with the original
//     rate Q_{i,i′}(j1Δ, j2Δ);
//   - consumption (i, j1, j2) → (i, j1−1, j2) with rate I_i/Δ;
//   - bound-to-available transfer (i, j1, j2) → (i, j1+1, j2−1) with
//     rate k(h2 − h1)/Δ = k(j2/(1−c) − j1/c).
//
// States with j1 = 0 are absorbing — the battery is empty, and the
// lifetime is defined as the first time this happens — so the battery
// lifetime distribution Pr{battery empty at t} is the transient
// probability mass on the j1 = 0 slice, obtained by uniformisation. The
// approximation is a phase-type distribution that converges to the true
// lifetime distribution as Δ → 0.
//
// Only the grid states reachable from a full battery are assembled; in a
// two-well model that is about half of the grid (see Expanded).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"batlife/internal/check"
	"batlife/internal/ctmc"
	"batlife/internal/mrm"
	"batlife/internal/obs"
	"batlife/internal/sparse"
)

// ErrBadGrid reports an unusable discretisation step.
var ErrBadGrid = errors.New("core: invalid discretisation")

// Options tunes the construction and solution of the expanded CTMC.
type Options struct {
	// Epsilon bounds the truncated Poisson tail mass of the transient
	// solve; zero selects 1e-12.
	Epsilon float64
	// Workers sets the SpMV parallelism; zero selects runtime.NumCPU().
	Workers int
	// AllowEmptyRecovery keeps the j1 = 0 states live instead of
	// absorbing. The paper makes them absorbing (lifetime = first
	// passage) but notes "the recovery transitions could easily be
	// included"; this flag includes them, turning the computed measure
	// into Pr{battery empty at time t} without the first-passage
	// interpretation.
	AllowEmptyRecovery bool
	// TransitionRate, when non-nil, overrides the workload generator
	// with a reward-dependent rate Q_{i,i′}(y1, y2), evaluated at the
	// grid point (j1Δ, j2Δ). Entries for which the underlying chain has
	// no transition are not consulted; return the given base rate to
	// leave a transition unchanged. A transition may be consulted more
	// than once, so the function must be deterministic.
	TransitionRate func(from, to int, y1, y2, base float64) float64
	// OnIteration is forwarded to the uniformisation engine.
	OnIteration func(done, total int)
	// Obs, when non-nil, receives expansion telemetry (state/NNZ counts,
	// build timing, a "core.build" span) and becomes the default
	// registry for solves on the built model. It does not affect the
	// result and is excluded from engine fingerprints.
	Obs *obs.Registry
	// Context, when non-nil, carries the request-scoped trace: the
	// "core.build" span is parented under the span the context carries
	// (see obs.StartSpan), so daemon builds appear inside their
	// request's trace. Like Obs it does not affect the result and is
	// excluded from engine fingerprints.
	Context context.Context
}

// SolveOptions tunes one transient solve on an already-built Expanded.
// Zero fields fall back to the Options the model was built with (and
// from there to the engine defaults), so an Expanded built once can be
// queried under many numerical settings — the substrate of the cached
// Solver facade.
type SolveOptions struct {
	// Epsilon bounds the truncated Poisson tail mass; zero falls back
	// to the build Options, then to 1e-12.
	Epsilon float64
	// Workers sets the SpMV parallelism; ignored when Pool is set.
	Workers int
	// Pool, when non-nil, supplies a shared SpMV worker pool.
	Pool *sparse.Pool
	// MaxIterations caps uniformisation steps; exceeding it fails the
	// solve with ctmc.ErrIterationBudget. Zero is unlimited.
	MaxIterations int
	// Context cancels the iteration loop between steps.
	Context context.Context
	// OnIteration is forwarded to the uniformisation engine.
	OnIteration func(done, total int)
	// Obs is forwarded to the uniformisation engine; nil falls back to
	// the build Options.
	Obs *obs.Registry
}

// Expanded is the derived pure CTMC Q* for one model and step size. It
// is immutable after Build apart from the lazily-constructed, internally
// synchronised uniformisation operator, so one Expanded may serve
// concurrent solves (e.g. parallel scenario sweeps sharing a cache).
//
// Q* is assembled only over the states reachable from the support of α:
// from a full battery about half of a two-well grid can never carry
// probability. Reachable states keep their ascending grid order, so the
// compact indexing preserves the row order of the full grid and the
// j1 = 0 slice is the prefix of length empty.
type Expanded struct {
	model mrm.KiBaMRM
	delta float64
	// n1, n2 are the level counts of the two reward dimensions.
	n1, n2 int
	// compact maps a grid index (see gridIndex) to the state's row in
	// gen, or −1 when the state is unreachable; reach is its inverse.
	// Phases expanded together share both slices.
	compact []int32
	reach   []int32
	// empty counts the reachable j1 = 0 states.
	empty int
	gen   *sparse.CSR
	alpha []float64
	opts  Options

	// uniOnce guards the lazily-built uniformised operator shared by
	// every transient solve on this model.
	uniOnce sync.Once
	uni     *ctmc.Uniformized
	uniErr  error
}

// Build discretises the model's reward space with step delta (in
// ampere-seconds) and assembles the expanded generator over the states
// reachable from a full battery. The step must divide both well
// capacities c·C and (1−c)·C.
func Build(model mrm.KiBaMRM, delta float64, opts Options) (*Expanded, error) {
	e, err := newExpanded(model, delta, opts)
	if err != nil {
		return nil, err
	}
	if err := expand([]*Expanded{e}); err != nil {
		return nil, err
	}
	return e, nil
}

// newExpanded validates the model and the grid step and sizes the grid;
// expand fills in the index space and the generator.
func newExpanded(model mrm.KiBaMRM, delta float64, opts Options) (*Expanded, error) {
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if delta <= 0 || math.IsNaN(delta) || math.IsInf(delta, 0) {
		return nil, fmt.Errorf("%w: delta %v", ErrBadGrid, delta)
	}
	u1 := model.Battery.C * model.Battery.Capacity
	u2 := (1 - model.Battery.C) * model.Battery.Capacity
	// The compact state map is int32.
	if grid := float64(model.Workload.NumStates()) * (u1/delta + 1) * (u2/delta + 1); grid > math.MaxInt32 {
		return nil, fmt.Errorf("%w: delta %v gives a grid of %.3g states, beyond the 2^31 index space",
			ErrBadGrid, delta, grid)
	}
	m1, ok1 := exactDiv(u1, delta)
	m2, ok2 := exactDiv(u2, delta)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%w: delta %v does not divide the well capacities %v and %v",
			ErrBadGrid, delta, u1, u2)
	}
	if m1+1 < 3 {
		return nil, fmt.Errorf("%w: available well resolves to %d levels; decrease delta", ErrBadGrid, m1+1)
	}
	return &Expanded{
		model: model,
		delta: delta,
		n1:    m1 + 1,
		n2:    m2 + 1,
		opts:  opts,
	}, nil
}

// expand gives the phases one shared index space — the states reachable
// from the first phase's α under the union of all phases' transition
// rules — and assembles each phase's generator over it. All phases must
// share the grid (battery, workload state count and Δ). A single phase
// is the plain Build.
func expand(phases []*Expanded) error {
	first := phases[0]
	var (
		span  *obs.Span
		start time.Time
	)
	reg := first.opts.Obs
	if reg != nil {
		start = time.Now()
		_, span = obs.StartSpan(first.opts.Context, reg, "core.build",
			obs.Float("delta", first.delta),
			obs.Int("n1", int64(first.n1)),
			obs.Int("n2", int64(first.n2)))
	}
	compact, reach := reachable(phases)
	empty, _ := slices.BinarySearch(reach, int32(first.gridIndex(0, 1, 0)))
	nnz := 0
	for _, e := range phases {
		e.compact, e.reach, e.empty = compact, reach, empty
		if err := e.assemble(); err != nil {
			span.End(obs.String("error", err.Error()))
			return err
		}
		nnz += e.NNZ()
	}
	if reg != nil {
		for _, e := range phases {
			reg.Counter("core_expansions_total").Inc()
			reg.Histogram("core_expanded_states").Observe(float64(e.NumStates()))
			reg.Histogram("core_reachable_states").Observe(float64(e.ReachableStates()))
			reg.Histogram("core_expanded_nnz").Observe(float64(e.NNZ()))
		}
		reg.Histogram("core_build_seconds").ObserveDuration(time.Since(start).Seconds())
		span.End(
			obs.Int("states", int64(first.NumStates())),
			obs.Int("reachable_states", int64(len(reach))),
			obs.Int("nnz", int64(nnz)))
	}
	return nil
}

// exactDiv returns x/d as an integer if d divides x (within rounding).
//
//numlint:requires positive(d)
func exactDiv(x, d float64) (int, bool) {
	numlintContract_exactDiv(d)
	q := x / d
	r := math.Round(q)
	if math.Abs(q-r) > 1e-9*(1+math.Abs(q)) {
		return 0, false
	}
	return int(r), true
}

// gridIndex maps (i, j1, j2) to its index in the full grid S × n1 × n2.
func (e *Expanded) gridIndex(i, j1, j2 int) int {
	n := e.model.Workload.NumStates()
	return (j1*e.n2+j2)*n + i
}

// gridCoords inverts gridIndex.
func (e *Expanded) gridCoords(g int) (i, j1, j2 int) {
	n := e.model.Workload.NumStates()
	cell := g / n
	return g % n, cell / e.n2, cell % e.n2
}

// index maps (i, j1, j2) to its row in the generator, or −1 when the
// state is unreachable.
func (e *Expanded) index(i, j1, j2 int) int {
	return int(e.compact[e.gridIndex(i, j1, j2)])
}

// initialCell is the grid cell of a full battery: a1 = c·C falls in the
// interval (j1Δ, (j1+1)Δ] with j1 = u1/Δ − 1, and likewise for the bound
// well (j2 = 0 when there is no bound well).
func (e *Expanded) initialCell() (j1, j2 int) {
	if e.n2 == 1 {
		return e.n1 - 2, 0
	}
	return e.n1 - 2, e.n2 - 2
}

// transitions calls emit for every transition out of grid state
// (i, j1, j2) — workload, consumption or charging, and bound-to-available
// transfer — with the target's grid index and a positive rate. It is the
// single statement of the paper's Section 5.2 transition rule: the
// reachability search and the assembly both call it, so they cannot
// disagree. The diagonal is left to the caller.
func (e *Expanded) transitions(i, j1, j2 int, emit func(to int, rate float64)) {
	if j1 == 0 && !e.opts.AllowEmptyRecovery {
		return // battery empty: absorbing, no outgoing transitions
	}
	delta := e.delta
	y1 := float64(j1) * delta
	y2 := float64(j2) * delta
	// Workload transitions at fixed reward levels.
	e.model.Workload.Generator().Row(i, func(col int, v float64) {
		if col == i || v <= 0 {
			return
		}
		rate := v
		if e.opts.TransitionRate != nil {
			rate = e.opts.TransitionRate(i, col, y1, y2, v)
			if rate < 0 || math.IsNaN(rate) {
				rate = 0
			}
		}
		if rate == 0 {
			return
		}
		emit(e.gridIndex(col, j1, j2), rate)
	})
	// Consumption: one level down in the available well. Charging
	// states (negative current, AllowCharging) instead move one level
	// up; surplus at the top level is discarded.
	if current := e.model.Currents[i]; current > 0 && j1 > 0 {
		emit(e.gridIndex(i, j1-1, j2), current/delta)
	} else if current < 0 && j1 < e.n1-1 {
		emit(e.gridIndex(i, j1+1, j2), -current/delta)
	}
	// Transfer: up in the available well, down in the bound well, at
	// the paper's rate k(j2/(1−c) − j1/c).
	k, c := e.model.Battery.K, e.model.Battery.C
	if k > 0 && c < 1 && j2 > 0 && j1 < e.n1-1 {
		if transfer := k * (y2/(1-c) - y1/c) / delta; transfer > 0 {
			emit(e.gridIndex(i, j1+1, j2-1), transfer)
		}
	}
}

// reachable searches breadth-first from the support of the first
// phase's α over the union of the phases' transition rules. It returns
// the compact map from grid index to ascending reachable rank (−1 for
// unreachable states) and its inverse.
func reachable(phases []*Expanded) (compact, reach []int32) {
	first := phases[0]
	n := first.model.Workload.NumStates()
	compact = make([]int32, n*first.n1*first.n2)
	// During the search compact[g] = 1 marks a visited state.
	visit := func(to int, _ float64) {
		if compact[to] == 0 {
			compact[to] = 1
			reach = append(reach, int32(to))
		}
	}
	j1, j2 := first.initialCell()
	for i, p := range first.model.Initial {
		if p > 0 {
			visit(first.gridIndex(i, j1, j2), 0)
		}
	}
	for head := 0; head < len(reach); head++ {
		i, j1, j2 := first.gridCoords(int(reach[head]))
		for _, e := range phases {
			e.transitions(i, j1, j2, visit)
		}
	}
	// Renumber in ascending grid order, reusing the queue for the
	// inverse map.
	k := int32(0)
	for g, seen := range compact {
		if seen == 0 {
			compact[g] = -1
			continue
		}
		compact[g] = k
		reach[k] = int32(g)
		k++
	}
	return compact, reach
}

// assemble builds the generator Q* and the initial distribution α* over
// the reachable states.
func (e *Expanded) assemble() error {
	total := len(e.reach)
	e.alpha = make([]float64, total)
	j1, j2 := e.initialCell()
	for i, p := range e.model.Initial {
		if p > 0 {
			e.alpha[e.index(i, j1, j2)] = p
		}
	}

	// Estimate nonzeros: per state one consumption, one transfer, its
	// share of the workload rows and a diagonal.
	n := e.model.Workload.NumStates()
	workloadNNZ := e.model.Workload.Generator().NNZ()
	b := sparse.NewBuilder(total, total, total*(workloadNNZ+n-1)/n+3*total)

	var (
		from int
		diag float64
	)
	add := func(to int, rate float64) {
		b.Add(from, int(e.compact[to]), rate)
		diag -= rate
	}
	for s, g := range e.reach {
		i, j1, j2 := e.gridCoords(int(g))
		from, diag = s, 0
		e.transitions(i, j1, j2, add)
		if diag != 0 {
			b.Add(from, from, diag)
		}
	}
	gen, err := b.Freeze()
	if err != nil {
		return fmt.Errorf("core: assemble Q*: %w", err)
	}
	e.gen = gen
	return nil
}

// NumStates reports the size of the paper's expanded state space
// N·n1·n2: the full grid, reachable or not.
func (e *Expanded) NumStates() int {
	return e.model.Workload.NumStates() * e.n1 * e.n2
}

// ReachableStates reports the number of states reachable from a full
// battery — the dimension of the assembled generator.
func (e *Expanded) ReachableStates() int { return len(e.reach) }

// NNZ reports the number of nonzero generator entries.
func (e *Expanded) NNZ() int { return e.gen.NNZ() }

// Levels reports the level counts (n1, n2) of the two reward grids.
func (e *Expanded) Levels() (int, int) { return e.n1, e.n2 }

// Delta reports the discretisation step.
func (e *Expanded) Delta() float64 { return e.delta }

// Generator exposes the expanded generator for inspection and ablation
// experiments. Its rows are the reachable states in ascending grid
// order. Callers must not modify it.
func (e *Expanded) Generator() *sparse.CSR { return e.gen }

// Operator returns the uniformised transposed operator (I + Q*/q)ᵀ of
// the expanded chain, building it on first use and reusing it — together
// with its cached Fox–Glynn weight tables — for every subsequent
// transient solve on this model.
func (e *Expanded) Operator() (*ctmc.Uniformized, error) {
	e.uniOnce.Do(func() {
		e.uni, e.uniErr = ctmc.NewUniformized(e.gen, ctmc.TransientOptions{})
	})
	if e.uniErr != nil {
		return nil, fmt.Errorf("core: uniformised operator: %w", e.uniErr)
	}
	return e.uni, nil
}

// transientOpts merges per-solve options with the build-time defaults.
func (e *Expanded) transientOpts(so SolveOptions) ctmc.TransientOptions {
	eps := so.Epsilon
	if eps <= 0 {
		eps = e.opts.Epsilon
	}
	workers := so.Workers
	if workers == 0 {
		workers = e.opts.Workers
	}
	onIter := so.OnIteration
	if onIter == nil {
		onIter = e.opts.OnIteration
	}
	reg := so.Obs
	if reg == nil {
		reg = e.opts.Obs
	}
	return ctmc.TransientOptions{
		Epsilon:       eps,
		Workers:       workers,
		Pool:          so.Pool,
		MaxIterations: so.MaxIterations,
		Context:       so.Context,
		OnIteration:   onIter,
		Obs:           reg,
	}
}

// emptyIndicator returns the depletion functional: 1 on the j1 = 0
// slice, which is the prefix of the reachable states.
func (e *Expanded) emptyIndicator() []float64 {
	w := make([]float64, len(e.reach))
	for s := range w[:e.empty] {
		w[s] = 1
	}
	//numlint:ignore probconserve w is the 0/1 indicator of the empty slice, a functional rather than a distribution
	return w
}

// Result is a computed battery lifetime distribution.
type Result struct {
	// Times are the evaluation points, in seconds.
	Times []float64
	// EmptyProb[k] approximates Pr{battery empty at Times[k]}.
	EmptyProb []float64
	// Iterations is the number of uniformisation steps performed.
	Iterations int
	// Rate is the uniformisation constant of the expanded chain.
	Rate float64
	// States is the size N·n1·n2 of the paper's expanded grid;
	// ReachableStates and NNZ describe the chain actually built over the
	// states reachable from a full battery.
	States, ReachableStates, NNZ int
	// FoxGlynnLeft and FoxGlynnRight delimit the Poisson truncation
	// window the solve committed to; SpMVs counts matrix-vector
	// products. See ctmc.Result for the exact semantics.
	FoxGlynnLeft, FoxGlynnRight int
	SpMVs                       int
	// SweptNNZ counts the non-zeros the products streamed through and
	// DroppedMass the probability mass trimmed off the live band. The
	// trimming only lowers EmptyProb, by at most DroppedMass; each value
	// lies within Epsilon + DroppedMass of the exact value of the
	// Δ-chain. See ctmc.Result.
	SweptNNZ    int64
	DroppedMass float64
}

// LifetimeCDF computes Pr{battery empty at t} — the approximation of
// equation (4) — at each of the given times (seconds, ascending).
func (e *Expanded) LifetimeCDF(times []float64) (*Result, error) {
	return e.LifetimeCDFOpts(times, SolveOptions{})
}

// LifetimeCDFOpts is LifetimeCDF with per-solve options; zero fields
// fall back to the build Options. The solve reuses the model's cached
// uniformisation operator, so repeated queries pay only the iteration
// loop.
func (e *Expanded) LifetimeCDFOpts(times []float64, so SolveOptions) (*Result, error) {
	w := e.emptyIndicator()
	u, err := e.Operator()
	if err != nil {
		return nil, err
	}
	res, err := u.Transient(e.alpha, w, times, e.transientOpts(so))
	if err != nil {
		return nil, fmt.Errorf("core: lifetime CDF: %w", err)
	}
	probs := res.Values
	for k, p := range probs {
		// Uniformisation guarantees probabilities up to rounding;
		// clamp the usual ±1e-15 noise.
		probs[k] = math.Min(1, math.Max(0, p))
	}
	return &Result{
		Times:           res.Times,
		EmptyProb:       probs,
		Iterations:      res.Iterations,
		Rate:            res.Rate,
		States:          e.NumStates(),
		ReachableStates: e.ReachableStates(),
		NNZ:             e.NNZ(),
		FoxGlynnLeft:    res.FoxGlynnLeft,
		FoxGlynnRight:   res.FoxGlynnRight,
		SpMVs:           res.SpMVs,
		SweptNNZ:        res.SweptNNZ,
		DroppedMass:     res.DroppedMass,
	}, nil
}

// StateDistribution returns the marginal distribution over available-
// charge levels at time t: out[j1] = Pr{Y1(t) ∈ level j1}. Useful for
// inspecting how probability mass drains toward the empty slice.
func (e *Expanded) StateDistribution(t float64) ([]float64, error) {
	u, err := e.Operator()
	if err != nil {
		return nil, err
	}
	res, err := u.Transient(e.alpha, nil, []float64{t}, e.transientOpts(SolveOptions{}))
	if err != nil {
		return nil, fmt.Errorf("core: state distribution: %w", err)
	}
	out := make([]float64, e.n1)
	for s, g := range e.reach {
		_, j1, _ := e.gridCoords(int(g))
		out[j1] += res.Distributions[0][s]
	}
	// The marginal sums to the transient mass (1 minus truncation tail),
	// so assert non-negativity rather than exact conservation.
	check.NonNegative("core.StateDistribution", out)
	return out, nil
}
