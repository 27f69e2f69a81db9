package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"batlife/internal/ctmc"
	"batlife/internal/mrm"
)

// ErrPhaseMismatch reports phased models that cannot be chained.
var ErrPhaseMismatch = errors.New("core: phased models are incompatible")

// ModelPhase is one segment of a time-inhomogeneous battery scenario: a
// KiBaMRM in force for Duration seconds. Successive phases must share
// the workload state space and the battery, so that the expanded chains
// have identical grids and the probability vector can be handed from
// one phase to the next — e.g. a device with a heavy daytime and a
// light nighttime profile.
type ModelPhase struct {
	// Model is the workload/battery coupling during this phase. Only
	// the workload rates and currents may differ between phases.
	Model mrm.KiBaMRM
	// Duration is the phase length in seconds; the final phase may be
	// +Inf.
	Duration float64
}

// PhasedLifetimeCDF computes Pr{battery empty at t} for a scenario that
// switches between workload models at fixed instants (the paper's
// time-inhomogeneous MRMs of Section 4.1, in piecewise-constant form).
// All phases are discretised with the same step delta.
func PhasedLifetimeCDF(phases []ModelPhase, delta float64, times []float64, opts Options) (*Result, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("%w: no phases", ErrPhaseMismatch)
	}
	xs := make([]*Expanded, len(phases))
	durations := make([]float64, len(phases))
	for i, ph := range phases {
		if i > 0 {
			if err := checkPhaseCompat(phases[0].Model, ph.Model); err != nil {
				return nil, fmt.Errorf("phase %d: %w", i, err)
			}
		}
		e, err := newExpanded(ph.Model, delta, opts)
		if err != nil {
			if i > 0 {
				err = fmt.Errorf("phase %d: %w", i, err)
			}
			return nil, err
		}
		xs[i], durations[i] = e, ph.Duration
	}
	if err := expand(xs); err != nil {
		return nil, err
	}
	return PhasedLifetimeCDFExpanded(xs, durations, times, SolveOptions{
		Epsilon:     opts.Epsilon,
		Workers:     opts.Workers,
		OnIteration: opts.OnIteration,
	})
}

// PhasedLifetimeCDFExpanded runs the piecewise transient solve over
// already-expanded phases — e.g. instances served by an engine cache —
// with full SolveOptions threading (shared pool, iteration budget,
// cancellation, telemetry). Phase i's chain is in force for
// durations[i] seconds; the final duration may be +Inf. All phases must
// share the battery, the workload state count and the step Δ, so the
// probability vector can be handed across phase boundaries.
//
// The vector is handed over in one index space: the states reachable
// from the first phase's α under the union of all phases' transition
// rules. Phases built together by PhasedLifetimeCDF already share it;
// phases expanded one by one (as an engine cache serves them) are used
// as they are when their reachable sets coincide and are otherwise
// expanded again over the union.
func PhasedLifetimeCDFExpanded(phases []*Expanded, durations []float64, times []float64, so SolveOptions) (*Result, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("%w: no phases", ErrPhaseMismatch)
	}
	if len(durations) != len(phases) {
		return nil, fmt.Errorf("%w: %d durations for %d phases", ErrPhaseMismatch, len(durations), len(phases))
	}
	first := phases[0]
	shared := true
	for i, e := range phases[1:] {
		if err := checkPhaseCompat(first.model, e.model); err != nil {
			return nil, fmt.Errorf("phase %d: %w", i+1, err)
		}
		//numlint:ignore floatcmp the grid step is a configuration constant shared verbatim across phases, not a computed value
		if e.delta != first.delta {
			return nil, fmt.Errorf("%w: phase %d step %v vs %v", ErrPhaseMismatch, i+1, e.delta, first.delta)
		}
		shared = shared && slices.Equal(e.reach, first.reach)
	}
	if !shared {
		union := make([]*Expanded, len(phases))
		for i, e := range phases {
			opts := e.opts
			opts.Context = so.Context
			union[i] = &Expanded{model: e.model, delta: e.delta, n1: e.n1, n2: e.n2, opts: opts}
		}
		if err := expand(union); err != nil {
			return nil, err
		}
		phases, first = union, union[0]
	}
	chainPhases := make([]ctmc.Phase, len(phases))
	for i, e := range phases {
		chainPhases[i] = ctmc.Phase{Generator: e.gen, Duration: durations[i]}
	}

	res, err := ctmc.PiecewiseTransientFunctional(chainPhases, first.alpha, first.emptyIndicator(), times, first.transientOpts(so))
	if err != nil {
		return nil, fmt.Errorf("core: phased lifetime CDF: %w", err)
	}
	probs := res.Values
	for k, p := range probs {
		probs[k] = math.Min(1, math.Max(0, p))
	}
	return &Result{
		Times:           res.Times,
		EmptyProb:       probs,
		Iterations:      res.Iterations,
		Rate:            res.Rate,
		States:          first.NumStates(),
		ReachableStates: first.ReachableStates(),
		NNZ:             first.NNZ(),
		SpMVs:           res.SpMVs,
		SweptNNZ:        res.SweptNNZ,
		DroppedMass:     res.DroppedMass,
	}, nil
}

// checkPhaseCompat checks that two phase models share the structure the grid
// hand-off requires.
func checkPhaseCompat(a, b mrm.KiBaMRM) error {
	if a.Workload.NumStates() != b.Workload.NumStates() {
		return fmt.Errorf("%w: %d vs %d workload states",
			ErrPhaseMismatch, a.Workload.NumStates(), b.Workload.NumStates())
	}
	if a.Battery != b.Battery {
		return fmt.Errorf("%w: batteries differ (%+v vs %+v)", ErrPhaseMismatch, a.Battery, b.Battery)
	}
	return nil
}
