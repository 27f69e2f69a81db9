package ctmc

import (
	"fmt"
	"math"

	"batlife/internal/sparse"
)

// Phase is one segment of a piecewise-constant time-inhomogeneous CTMC:
// the generator that is in force for Duration seconds. The paper's
// Section 4.1 allows fully time-inhomogeneous models Q(t); piecewise-
// constant phases are the computationally tractable subclass — each
// phase is solved by ordinary uniformisation and the phase-end
// distribution seeds the next phase.
type Phase struct {
	// Generator is the infinitesimal generator during this phase.
	Generator *sparse.CSR
	// Duration is the phase length in seconds; the final phase may be
	// +Inf.
	Duration float64
}

// PiecewiseTransient computes the state distribution of the
// time-inhomogeneous chain at each requested time (ascending). Times
// beyond the total phase span are rejected unless the last phase is
// infinite.
func PiecewiseTransient(phases []Phase, alpha, times []float64, opts TransientOptions) (*Result, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("%w: no phases", ErrBadInput)
	}
	n := len(alpha)
	for i, ph := range phases {
		if ph.Generator == nil || ph.Generator.Rows() != n || ph.Generator.Cols() != n {
			return nil, fmt.Errorf("%w: phase %d generator does not match %d states", ErrBadInput, i, n)
		}
		if ph.Duration <= 0 || math.IsNaN(ph.Duration) {
			return nil, fmt.Errorf("%w: phase %d duration %v", ErrBadInput, i, ph.Duration)
		}
		if math.IsInf(ph.Duration, 1) && i != len(phases)-1 {
			return nil, fmt.Errorf("%w: only the final phase may be infinite (phase %d)", ErrBadInput, i)
		}
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("%w: no time points", ErrBadInput)
	}

	out := &Result{
		Times:         append([]float64(nil), times...),
		Distributions: make([][]float64, len(times)),
	}
	current := append([]float64(nil), alpha...)
	phaseStart := 0.0
	ti := 0
	for pi, ph := range phases {
		phaseEnd := phaseStart + ph.Duration
		// Collect the requested times that land inside this phase,
		// expressed relative to the phase start.
		var rel []float64
		for k := ti; k < len(times); k++ {
			if times[k] <= phaseEnd+1e-12 || math.IsInf(ph.Duration, 1) {
				r := math.Max(0, times[k]-phaseStart)
				if !math.IsInf(ph.Duration, 1) {
					r = math.Min(r, ph.Duration)
				}
				rel = append(rel, r)
			} else {
				break
			}
		}
		// Always solve to the phase end too (to seed the next phase),
		// unless this is the last phase.
		solveTimes := append([]float64(nil), rel...)
		needEnd := pi != len(phases)-1
		if needEnd {
			solveTimes = append(solveTimes, ph.Duration)
		}
		if len(solveTimes) == 0 {
			phaseStart = phaseEnd
			continue
		}
		res, err := TransientDistributions(ph.Generator, current, solveTimes, opts)
		if err != nil {
			return nil, fmt.Errorf("ctmc: phase %d: %w", pi, err)
		}
		out.Iterations += res.Iterations
		out.SpMVs += res.SpMVs
		out.SweptNNZ += res.SweptNNZ
		out.DroppedMass += res.DroppedMass
		if res.Rate > out.Rate {
			out.Rate = res.Rate
		}
		for k := range rel {
			out.Distributions[ti] = res.Distributions[k]
			ti++
		}
		if needEnd {
			current = res.Distributions[len(solveTimes)-1]
		}
		phaseStart = phaseEnd
		if ti == len(times) {
			break
		}
	}
	if ti != len(times) {
		return nil, fmt.Errorf("%w: time %v beyond the total phase span", ErrBadInput, times[ti])
	}
	return out, nil
}

// PiecewiseTransientFunctional computes w·π(t) for the piecewise chain.
func PiecewiseTransientFunctional(phases []Phase, alpha, w, times []float64, opts TransientOptions) (*Result, error) {
	if w == nil {
		return nil, fmt.Errorf("%w: nil functional", ErrBadInput)
	}
	if len(alpha) != len(w) {
		return nil, fmt.Errorf("%w: |w|=%d for %d states", ErrBadInput, len(w), len(alpha))
	}
	res, err := PiecewiseTransient(phases, alpha, times, opts)
	if err != nil {
		return nil, err
	}
	res.Values = make([]float64, len(times))
	for k, d := range res.Distributions {
		s := 0.0
		for i, wi := range w {
			s += wi * d[i]
		}
		res.Values[k] = s
	}
	res.Distributions = nil
	return res, nil
}
