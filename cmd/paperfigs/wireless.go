package main

import (
	"fmt"
	"io"

	"batlife/internal/core"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/performability"
	"batlife/internal/sim"
	"batlife/internal/units"
	"batlife/internal/workload"
)

// runFig10 regenerates Figure 10: the simple wireless model under three
// battery settings — (C=500 mAh, c=1), (C=800 mAh, c=0.625) and the
// exact (C=800 mAh, c=1) curve — each approximated at Δ = 25 mAh and
// Δ = 2 mAh and simulated.
func runFig10(w io.Writer, cfg config) error {
	simple, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		return err
	}
	times := timesRange(0, 30*3600, 1800) // 0..30 h, half-hour grid
	mah := func(x float64) float64 { return units.MilliampHours(x).AmpereSeconds() }

	var names []string
	var curves [][]float64
	add := func(name string, c []float64) {
		names = append(names, name)
		curves = append(curves, c)
	}

	type setting struct {
		label   string
		battery kibam.Params
	}
	settings := []setting{
		{"C=500,c=1", kibam.Params{Capacity: mah(500), C: 1, K: 0}},
		{"C=800,c=0.625", kibam.Params{Capacity: mah(800), C: 0.625, K: 4.5e-5}},
	}
	for _, s := range settings {
		model := wirelessKiBaMRM(simple, s.battery)
		for _, deltaMAh := range []float64{25, 2} {
			c, err := approxCurve(model, mah(deltaMAh), times)
			if err != nil {
				return err
			}
			add(fmt.Sprintf("%s,delta=%gmAh", s.label, deltaMAh), c)
		}
		simCurve, err := sim.CurveAt(model, 1, sim.Options{Runs: cfg.runs}, times)
		if err != nil {
			return err
		}
		add(s.label+",simulation", simCurve)
	}

	// Exact curve for C = 800 mAh, c = 1 via the performability
	// transform (the paper uses Sericola's algorithm [25]; see
	// DESIGN.md substitution 3).
	exactModel := mrm.ConstantReward{
		Chain:   simple.Chain,
		Rates:   simple.Currents,
		Initial: simple.Initial,
	}
	exact, err := performability.EnergyDepletionCDF(exactModel, mah(800), times)
	if err != nil {
		return err
	}
	add("C=800,c=1,exact", exact)

	fmt.Fprintln(w, "# paper: Figure 10 (simple model; time axis in hours)")
	return writeCurves(w, "t_h", times, 1.0/3600, names, curves)
}

// runFig11 regenerates Figure 11: the simple model against the burst
// model, C = 800 mAh, c = 0.625, at the paper's Δ = 5 mAh.
func runFig11(w io.Writer, _ config) error {
	battery := kibam.Params{
		Capacity: units.MilliampHours(800).AmpereSeconds(),
		C:        0.625,
		K:        4.5e-5,
	}
	delta := units.MilliampHours(5).AmpereSeconds()
	times := timesRange(0, 30*3600, 1800)

	simple, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		return err
	}
	burst, err := workload.Burst(workload.BurstConfig{})
	if err != nil {
		return err
	}
	simpleCurve, err := approxCurve(wirelessKiBaMRM(simple, battery), delta, times)
	if err != nil {
		return err
	}
	burstCurve, err := approxCurve(wirelessKiBaMRM(burst, battery), delta, times)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: Figure 11 (C=800mAh, c=0.625, delta=5mAh; time axis in hours)")
	fmt.Fprintln(w, "# paper reference points: Pr[empty at 20h] ≈ 0.95 (simple), ≈ 0.89 (burst)")
	return writeCurves(w, "t_h", times, 1.0/3600, []string{"simple", "burst"},
		[][]float64{simpleCurve, burstCurve})
}

// runComplexity reproduces the size and iteration-count observations of
// Sections 5.3 and 6.1: states, nonzeros, uniformisation rate and
// iterations for the on/off model across step sizes.
func runComplexity(w io.Writer, cfg config) error {
	fmt.Fprintln(w, "# paper: Section 6.1 size/iteration observations")
	fmt.Fprintln(w, "# paper reference: delta=5, c=1 has 2882 states; t=17000 needs >36000 iterations;")
	fmt.Fprintln(w, "# delta=5, c=0.625 has ~3.2e6 nonzeros; t=20000 needs >4.6e4 iterations")
	fmt.Fprintln(w, "# states is the full grid N·n1·n2; nonzeros counts Q* over the reachable states")
	fmt.Fprintln(w, "config\tdelta\tstates\treachable\tnonzeros\tunif_rate\titers_t17000")

	type case_ struct {
		label   string
		battery kibam.Params
		deltas  []float64
	}
	cases := []case_{
		{"c=1", kibam.Params{Capacity: 7200, C: 1, K: 0}, []float64{100, 50, 25, 10, 5}},
		{"c=0.625", paperBattery, []float64{100, 50, 25}},
	}
	if cfg.full {
		cases[1].deltas = append(cases[1].deltas, 10, 5)
	}
	for _, cs := range cases {
		model, err := onOffKiBaMRM(cs.battery)
		if err != nil {
			return err
		}
		for _, d := range cs.deltas {
			e, err := core.Build(model, d, core.Options{})
			if err != nil {
				return err
			}
			res, err := e.LifetimeCDF([]float64{17000})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%g\t%d\t%d\t%d\t%.4f\t%d\n",
				cs.label, d, res.States, res.ReachableStates, res.NNZ, res.Rate, res.Iterations)
		}
	}
	return nil
}

// runCalibration reproduces the model-fitting steps: the burst-rate
// calibration of Section 4.3 (λ_burst = 182/h) and the flow-constant
// calibration of Section 3 (k fitted to the 90-minute continuous-load
// lifetime).
func runCalibration(w io.Writer, _ config) error {
	lb, err := workload.CalibrateBurst(workload.BurstConfig{}, 0.25)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# paper: Section 4.3 (λ_burst) and Section 3 (k)")
	fmt.Fprintf(w, "lambda_burst_per_hour\t%.2f\t# paper: 182\n", lb)

	burst, err := workload.Burst(workload.BurstConfig{LambdaBurst: lb})
	if err != nil {
		return err
	}
	pSend, err := burst.SendProbability()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "burst_send_probability\t%.4f\t# target: 0.25 (simple model)\n", pSend)

	piB, err := burst.Chain.SteadyState()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "burst_sleep_probability\t%.4f\t# simple model: 0.25\n",
		piB[burst.Chain.Index("sleep")])

	k, err := kibam.CalibrateK(7200, 0.625, 0.96, 90*60)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "kibam_k_per_second\t%.3e\t# paper uses 4.5e-5 (fitted to 90 min at 0.96 A)\n", k)
	life, err := kibam.Params{Capacity: 7200, C: 0.625, K: k}.Lifetime(kibam.ConstantLoad(0.96))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "lifetime_with_fitted_k_min\t%.1f\t# target: 90\n", life/60)
	return nil
}
