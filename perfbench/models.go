package main

import (
	"fmt"
	"math"

	"batlife"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/units"
	"batlife/internal/workload"
)

// epsilon is the Fox–Glynn truncation bound every solve uses.
const epsilon = 1e-12

// problem is one (battery, workload, Δ, times) solve, carried both in
// the public facade's types and as the internal KiBaMRM the layered
// (traced) path hands to core.Build. Both describe the same model.
type problem struct {
	name     string
	battery  batlife.Battery
	workload *batlife.Workload
	model    mrm.KiBaMRM
	delta    float64 // ampere-seconds
	times    []float64
}

func mah(x float64) float64 { return units.MilliampHours(x).AmpereSeconds() }

// grid returns lo, lo+step, ..., up to hi inclusive.
func grid(lo, hi, step float64) []float64 {
	var out []float64
	for k := 0; ; k++ {
		t := lo + float64(k)*step
		if t > hi+1e-9 {
			return out
		}
		out = append(out, t)
	}
}

// workloads holds the paper's three workload models in both forms.
type workloads struct {
	onOff, simple, burst    *workload.Model
	onOffW, simpleW, burstW *batlife.Workload
}

func newWorkloads() (*workloads, error) {
	var w workloads
	var err error
	if w.onOff, err = workload.OnOff(1, 1, units.Amperes(0.96)); err != nil {
		return nil, err
	}
	if w.simple, err = workload.Simple(workload.SimpleConfig{}); err != nil {
		return nil, err
	}
	if w.burst, err = workload.Burst(workload.BurstConfig{}); err != nil {
		return nil, err
	}
	if w.onOffW, err = batlife.OnOffWorkload(1, 1, 0.96); err != nil {
		return nil, err
	}
	if w.simpleW, err = batlife.SimpleWireless(); err != nil {
		return nil, err
	}
	if w.burstW, err = batlife.BurstWireless(); err != nil {
		return nil, err
	}
	return &w, nil
}

func newProblem(name string, m *workload.Model, w *batlife.Workload, b batlife.Battery, delta float64, times []float64) problem {
	return problem{
		name:     name,
		battery:  b,
		workload: w,
		model: mrm.KiBaMRM{
			Workload: m.Chain,
			Currents: m.Currents,
			Initial:  m.Initial,
			Battery:  kibam.Params{Capacity: b.CapacityAs, C: b.AvailableFraction, K: b.FlowRate},
		},
		delta: delta,
		times: times,
	}
}

var (
	paperBattery = batlife.PaperBattery()
	idealBattery = batlife.Battery{CapacityAs: 7200, AvailableFraction: 1, FlowRate: 0}
	battery800   = batlife.Battery{CapacityAs: mah(800), AvailableFraction: 0.625, FlowRate: 4.5e-5}
	onOffTimes   = grid(6000, 20000, 250)
	wirelessTime = grid(0, 30*3600, 1800)
)

// ladder returns the cold-ladder rungs: the paper's own configurations,
// in a fixed order that the seed later permutes.
func ladder(w *workloads) []problem {
	return []problem{
		newProblem("fig8-d100", w.onOff, w.onOffW, paperBattery, 100, onOffTimes),
		newProblem("fig8-d50", w.onOff, w.onOffW, paperBattery, 50, onOffTimes),
		newProblem("fig7-c1-d5", w.onOff, w.onOffW, idealBattery, 5, onOffTimes),
		newProblem("fig10-d2mah", w.simple, w.simpleW, battery800, mah(2), wirelessTime),
		newProblem("fig11-burst-d5mah", w.burst, w.burstW, battery800, mah(5), wirelessTime),
	}
}

// sweepGrid returns the sweep-grid scenarios: three groups of four time
// grids sharing one model each, then singleton Δ refinements.
func sweepGrid(w *workloads) []problem {
	onOffGrids := [][]float64{
		onOffTimes,
		grid(6000, 20000, 500),
		grid(8000, 16000, 100),
		grid(10000, 20000, 1000),
	}
	wirelessGrids := [][]float64{
		wirelessTime,
		grid(0, 30*3600, 3600),
		grid(5*3600, 25*3600, 900),
		grid(10*3600, 30*3600, 600),
	}
	var out []problem
	for k, g := range onOffGrids {
		out = append(out, newProblem(fmt.Sprintf("fig8-d100-g%d", k), w.onOff, w.onOffW, paperBattery, 100, g))
	}
	for k, g := range wirelessGrids {
		out = append(out, newProblem(fmt.Sprintf("simple800-d10mah-g%d", k), w.simple, w.simpleW, battery800, mah(10), g))
	}
	for k, g := range wirelessGrids {
		out = append(out, newProblem(fmt.Sprintf("burst800-d10mah-g%d", k), w.burst, w.burstW, battery800, mah(10), g))
	}
	for _, d := range []float64{150, 300} {
		out = append(out, newProblem(fmt.Sprintf("fig8-d%g", d), w.onOff, w.onOffW, paperBattery, d, onOffTimes))
	}
	for _, d := range []float64{20, 25} {
		out = append(out,
			newProblem(fmt.Sprintf("simple800-d%gmah", d), w.simple, w.simpleW, battery800, mah(d), wirelessTime),
			newProblem(fmt.Sprintf("burst800-d%gmah", d), w.burst, w.burstW, battery800, mah(d), wirelessTime))
	}
	return out
}

// permute returns a seeded permutation of xs; the seed is the only
// thing that varies a library workload between runs.
func permute[T any](xs []T, seed int64) []T {
	out := append([]T(nil), xs...)
	r := newRand(seed)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// checkCDF reports why a computed CDF is wrong, or "" when it lies in
// [0,1], is non-decreasing up to the truncation bound ε (the solve is
// exact only to ε, and near 1 rounding moves values by ~1e-15) and
// matches the recorded reference within refTolerance.
func checkCDF(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d values, reference has %d", len(got), len(want))
	}
	for k, p := range got {
		switch {
		case !(p >= 0 && p <= 1):
			return fmt.Sprintf("value %d = %v outside [0,1]", k, p)
		case k > 0 && p < got[k-1]-epsilon:
			return fmt.Sprintf("value %d = %v below value %d = %v", k, p, k-1, got[k-1])
		case math.Abs(p-want[k]) > refTolerance:
			return fmt.Sprintf("value %d = %.15g, reference %.15g", k, p, want[k])
		}
	}
	return ""
}
