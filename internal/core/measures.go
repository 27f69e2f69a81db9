package core

import (
	"errors"
	"fmt"
	"math"

	"batlife/internal/sparse"
)

// ErrNoAbsorption reports a chain whose battery can never empty, so
// absorption-based measures diverge.
var ErrNoAbsorption = errors.New("core: battery never empties under this model")

// MeanLifetime returns the expected battery lifetime E[L] in seconds:
// the expected absorption time of the expanded chain into the empty
// (j1 = 0) slice, obtained by solving the linear system
//
//	q_s·m_s − Σ_{s′ live} rate(s→s′)·m_{s′} = 1
//
// over the live states with Gauss–Seidel sweeps. The sweep order follows
// the state indexing (ascending j1), which propagates values upward from
// the empty boundary and converges in a number of sweeps far below the
// state count. Models built with AllowEmptyRecovery (no absorbing
// states) have no finite mean lifetime and return ErrNoAbsorption.
func (e *Expanded) MeanLifetime() (float64, error) {
	if e.opts.AllowEmptyRecovery {
		return 0, fmt.Errorf("%w: empty states are not absorbing", ErrNoAbsorption)
	}
	if e.model.MaxCurrent() == 0 {
		return 0, fmt.Errorf("%w: no state draws current", ErrNoAbsorption)
	}
	total := e.ReachableStates()

	// Live states are those with j1 > 0; they occupy the contiguous
	// index range [empty, total).
	offset := e.empty
	live := total - offset

	b := sparse.NewBuilder(live, live, e.gen.NNZ())
	for s := offset; s < total; s++ {
		e.gen.Row(s, func(col int, v float64) {
			if col == s {
				b.Add(s-offset, s-offset, -v) // diagonal: q_s
				return
			}
			if col >= offset {
				b.Add(s-offset, col-offset, -v)
			}
			// Transitions into the empty slice leave the system (their
			// target has mean 0).
		})
	}
	a, err := b.Freeze()
	if err != nil {
		return 0, fmt.Errorf("core: mean lifetime system: %w", err)
	}
	m := make([]float64, live)
	ones := make([]float64, live)
	for i := range ones {
		ones[i] = 1
	}
	if _, err := sparse.GaussSeidel(a, m, ones, sparse.GaussSeidelOptions{
		MaxIterations: 200000,
		Tolerance:     1e-12,
	}); err != nil {
		if errors.Is(err, sparse.ErrZeroDiagonal) || errors.Is(err, sparse.ErrNoConvergence) {
			return 0, fmt.Errorf("%w: %v", ErrNoAbsorption, err)
		}
		return 0, fmt.Errorf("core: mean lifetime: %w", err)
	}
	mean := 0.0
	for s, p := range e.alpha {
		if p > 0 {
			if s < offset {
				continue // initial mass already in the empty slice
			}
			mean += p * m[s-offset]
		}
	}
	return mean, nil
}

// ChargeMoments holds summary statistics of the remaining charge at one
// time instant.
type ChargeMoments struct {
	// MeanAvailable and MeanBound are the expected well contents in
	// ampere-seconds (grid midpoints; the empty level counts as zero).
	MeanAvailable, MeanBound float64
	// StdAvailable is the standard deviation of the available charge.
	StdAvailable float64
	// EmptyProb is Pr{battery empty at t}.
	EmptyProb float64
}

// ChargeAt returns the charge moments at time t, derived from the full
// transient distribution of the expanded chain. It quantifies how the
// probability mass drains down the grid over time — the distributional
// view behind the lifetime CDF.
func (e *Expanded) ChargeAt(t float64) (*ChargeMoments, error) {
	u, err := e.Operator()
	if err != nil {
		return nil, err
	}
	res, err := u.Transient(e.alpha, nil, []float64{t}, e.transientOpts(SolveOptions{}))
	if err != nil {
		return nil, fmt.Errorf("core: charge moments: %w", err)
	}
	m := &ChargeMoments{}
	var second float64
	for s, p := range res.Distributions[0] {
		if p == 0 {
			continue
		}
		_, j1, j2 := e.gridCoords(int(e.reach[s]))
		y1, y2 := 0.0, 0.0
		if j1 > 0 {
			y1 = (float64(j1) + 0.5) * e.delta
		}
		if j2 > 0 {
			y2 = (float64(j2) + 0.5) * e.delta
		}
		m.MeanAvailable += p * y1
		m.MeanBound += p * y2
		second += p * y1 * y1
		if j1 == 0 {
			m.EmptyProb += p
		}
	}
	if v := second - m.MeanAvailable*m.MeanAvailable; v > 0 {
		m.StdAvailable = math.Sqrt(v)
	}
	return m, nil
}

// WastedCharge is the distribution of the bound charge remaining when
// the battery empties — capacity that was paid for but never delivered.
// The paper's Figure 10 discussion observes that a two-well battery can
// in general not use its full capacity; this measure quantifies how
// much is stranded.
type WastedCharge struct {
	// Levels[j2] is Pr{bound charge in (j2Δ, (j2+1)Δ] at depletion},
	// conditioned on the battery being empty at the evaluation time.
	Levels []float64
	// Delta is the grid step in ampere-seconds.
	Delta float64
	// AbsorbedMass is the unconditional probability that the battery is
	// empty at the evaluation time.
	AbsorbedMass float64
}

// Mean returns the expected stranded bound charge in ampere-seconds
// (midpoint rule over the grid intervals).
func (wc *WastedCharge) Mean() float64 {
	mean := 0.0
	for j2, p := range wc.Levels {
		mean += p * (float64(j2) + 0.5) * wc.Delta
	}
	return mean
}

// WastedChargeDistribution computes the stranded-charge distribution at
// time t (choose t well past the lifetime's upper tail so that
// AbsorbedMass ≈ 1 and the conditional distribution is the depletion
// distribution proper).
func (e *Expanded) WastedChargeDistribution(t float64) (*WastedCharge, error) {
	return e.WastedChargeDistributionOpts(t, SolveOptions{})
}

// WastedChargeDistributionOpts is WastedChargeDistribution with
// per-solve options; zero fields fall back to the build Options.
func (e *Expanded) WastedChargeDistributionOpts(t float64, so SolveOptions) (*WastedCharge, error) {
	u, err := e.Operator()
	if err != nil {
		return nil, err
	}
	res, err := u.Transient(e.alpha, nil, []float64{t}, e.transientOpts(so))
	if err != nil {
		return nil, fmt.Errorf("core: wasted charge: %w", err)
	}
	wc := &WastedCharge{
		Levels: make([]float64, e.n2),
		Delta:  e.delta,
	}
	for s, p := range res.Distributions[0][:e.empty] {
		_, _, j2 := e.gridCoords(int(e.reach[s]))
		wc.Levels[j2] += p
	}
	for _, p := range wc.Levels {
		wc.AbsorbedMass += p
	}
	if wc.AbsorbedMass > 0 {
		inv := 1 / wc.AbsorbedMass
		for j2 := range wc.Levels {
			wc.Levels[j2] *= inv
		}
	}
	return wc, nil
}
