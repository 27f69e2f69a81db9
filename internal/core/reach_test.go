package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"batlife/internal/ctmc"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/multireward"
	"batlife/internal/sparse"
	"batlife/internal/units"
	"batlife/internal/workload"
)

// referee restates the transition rule of Section 5.2 as a multireward
// spec over the full grid S × n1 × n2, with no reachability pruning. Its
// flat index (j1·n2 + j2)·N + i is core's grid index.
func referee(t *testing.T, model mrm.KiBaMRM, delta float64, opts Options) *multireward.Grid {
	t.Helper()
	u1 := model.Battery.C * model.Battery.Capacity
	n1 := int(math.Round(u1/delta)) + 1
	n2 := int(math.Round((model.Battery.Capacity-u1)/delta)) + 1
	j2init := n2 - 2
	if n2 == 1 {
		j2init = 0
	}
	k, c := model.Battery.K, model.Battery.C
	spec := multireward.Spec{
		Chain:       model.Workload,
		Levels:      []int{n1, n2},
		Initial:     model.Initial,
		InitialCell: []int{n1 - 2, j2init},
		Moves: func(state int, cell []int) []multireward.Move {
			var moves []multireward.Move
			if cur := model.Currents[state]; cur > 0 && cell[0] > 0 {
				moves = append(moves, multireward.Move{Rate: cur / delta, Shift: []int{-1, 0}})
			} else if cur < 0 && cell[0] < n1-1 {
				moves = append(moves, multireward.Move{Rate: -cur / delta, Shift: []int{1, 0}})
			}
			if k > 0 && c < 1 && cell[1] > 0 && cell[0] < n1-1 {
				y1 := float64(cell[0]) * delta
				y2 := float64(cell[1]) * delta
				if rate := k * (y2/(1-c) - y1/c) / delta; rate > 0 {
					moves = append(moves, multireward.Move{Rate: rate, Shift: []int{1, -1}})
				}
			}
			return moves
		},
	}
	if !opts.AllowEmptyRecovery {
		spec.Absorbing = func(_ int, cell []int) bool { return cell[0] == 0 }
	}
	if tr := opts.TransitionRate; tr != nil {
		spec.RateScale = func(from, to int, cell []int, base float64) float64 {
			return tr(from, to, float64(cell[0])*delta, float64(cell[1])*delta, base)
		}
	}
	g, err := multireward.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bruteReach returns, ascending, the states reachable from the support
// of alpha along the nonzero entries of gen.
func bruteReach(gen *sparse.CSR, alpha []float64) []int32 {
	seen := make([]bool, gen.Rows())
	var queue []int
	for s, p := range alpha {
		if p > 0 && !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		gen.Row(queue[head], func(col int, v float64) {
			if v != 0 && !seen[col] {
				seen[col] = true
				queue = append(queue, col)
			}
		})
	}
	var out []int32
	for s, ok := range seen {
		if ok {
			out = append(out, int32(s))
		}
	}
	return out
}

// randomModel draws a small KiBaMRM: one to four workload states,
// sparse random rates, draining, idle and (sometimes) charging states,
// a one- or two-well battery, and a step Δ that divides both wells.
func randomModel(t *testing.T, rng *rand.Rand) (mrm.KiBaMRM, float64) {
	t.Helper()
	n := 1 + rng.Intn(4)
	var b ctmc.Builder
	for i := 0; i < n; i++ {
		b.State(fmt.Sprint("s", i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Intn(2) == 0 {
				b.Transition(fmt.Sprint("s", i), fmt.Sprint("s", j), 0.1+2*rng.Float64())
			}
		}
	}
	chain, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	charging := rng.Intn(2) == 0
	currents := make([]float64, n)
	for i := range currents {
		switch r := rng.Intn(4); {
		case r == 0:
			currents[i] = 0
		case r == 1 && charging:
			currents[i] = -(0.2 + rng.Float64())
		default:
			currents[i] = 0.2 + 2*rng.Float64()
		}
	}
	initial := make([]float64, n)
	initial[rng.Intn(n)] = 0.5
	initial[rng.Intn(n)] += 0.5
	delta := []float64{1, 2.5}[rng.Intn(2)]
	m1, m2 := 2+rng.Intn(6), rng.Intn(7)
	k := []float64{0, 0.05, 0.5}[rng.Intn(3)]
	return mrm.KiBaMRM{
		Workload:      chain,
		Currents:      currents,
		Initial:       initial,
		Battery:       kibam.Params{Capacity: float64(m1+m2) * delta, C: float64(m1) / float64(m1+m2), K: k},
		AllowCharging: charging,
	}, delta
}

func TestReachableSetIsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		model, delta := randomModel(t, rng)
		var opts Options
		opts.AllowEmptyRecovery = rng.Intn(3) == 0
		if rng.Intn(2) == 0 {
			// Zero some edges depending on the charge level.
			opts.TransitionRate = func(from, to int, y1, y2, base float64) float64 {
				if (from+2*to+int(y1/delta)+int(y2/delta))%3 == 0 {
					return 0
				}
				return base
			}
		}
		name := fmt.Sprintf("trial %d (N=%d, battery %+v, Δ=%v, currents %v, recovery %v, rate hook %v)",
			trial, model.Workload.NumStates(), model.Battery, delta, model.Currents,
			opts.AllowEmptyRecovery, opts.TransitionRate != nil)
		e, err := Build(model, delta, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := referee(t, model, delta, opts)
		full := g.Generator()
		if g.NumStates() != e.NumStates() {
			t.Fatalf("%s: grid %d vs referee %d", name, e.NumStates(), g.NumStates())
		}

		// α's support lies inside the set.
		for s, p := range g.InitialVector() {
			if p > 0 && e.compact[s] < 0 {
				t.Fatalf("%s: initial state %d not reachable", name, s)
			}
		}
		// The set equals a brute-force search over the full grid.
		if want := bruteReach(full, g.InitialVector()); !slices.Equal(e.reach, want) {
			t.Fatalf("%s: reachable set %v, brute force %v", name, e.reach, want)
		}
		// compact and reach are inverse, and empty counts the j1 = 0 prefix.
		live := 0
		for s, k := range e.compact {
			if k >= 0 {
				live++
				if int(e.reach[k]) != s {
					t.Fatalf("%s: compact[%d] = %d but reach[%d] = %d", name, s, k, k, e.reach[k])
				}
			}
		}
		if live != len(e.reach) {
			t.Fatalf("%s: %d mapped states, %d reachable", name, live, len(e.reach))
		}
		for s, gs := range e.reach {
			if _, j1, _ := e.gridCoords(int(gs)); (j1 == 0) != (s < e.empty) {
				t.Fatalf("%s: state %d (j1=%d) on the wrong side of the empty prefix %d", name, s, j1, e.empty)
			}
		}
		// No entry of Q* — pruned or full — leaves the set, and every
		// pruned row is the full row restricted to the set.
		for s, gs := range e.reach {
			want := map[int]float64{}
			full.Row(int(gs), func(col int, v float64) {
				if v == 0 {
					return
				}
				if e.compact[col] < 0 {
					t.Fatalf("%s: full Q* leaves the set: %d → %d", name, gs, col)
				}
				want[col] = v
			})
			got := 0
			e.gen.Row(s, func(col int, v float64) {
				if col < 0 || col >= len(e.reach) {
					t.Fatalf("%s: pruned Q* row %d has column %d outside %d states", name, s, col, len(e.reach))
				}
				got++
				if w, ok := want[int(e.reach[col])]; !ok || math.Abs(v-w) > 1e-12*math.Abs(w) {
					t.Fatalf("%s: Q*[%d][%d] = %v, full grid %v", name, gs, e.reach[col], v, w)
				}
			})
			if got != len(want) {
				t.Fatalf("%s: row %d has %d entries, full grid %d", name, gs, got, len(want))
			}
		}
	}
}

func TestReachableCountsPinned(t *testing.T) {
	onOff, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	simple, err := workload.Simple(workload.SimpleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mah := func(x float64) float64 { return float64(units.MilliampHours(x)) }
	for _, tc := range []struct {
		name                 string
		w                    *workload.Model
		battery              kibam.Params
		delta                float64
		grid, reachable, nnz int
	}{
		{"fig8-d100", onOff, kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5}, 100, 2576, 1303, 4326},
		{"fig10-d2mah", simple, kibam.Params{Capacity: mah(800), C: 0.625, K: 4.5e-5}, mah(2), 113703, 57105, 226026},
	} {
		e, err := Build(mrm.KiBaMRM{
			Workload: tc.w.Chain, Currents: tc.w.Currents, Initial: tc.w.Initial, Battery: tc.battery,
		}, tc.delta, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if e.NumStates() != tc.grid || e.ReachableStates() != tc.reachable || e.NNZ() != tc.nnz {
			t.Errorf("%s: grid/reachable/nnz = %d/%d/%d, want %d/%d/%d", tc.name,
				e.NumStates(), e.ReachableStates(), e.NNZ(), tc.grid, tc.reachable, tc.nnz)
		}
	}
}

// harvestOnOff is a two-well on/off workload whose second state
// harvests (charges the available well) at the given current.
func harvestOnOff(t *testing.T, draw, harvest float64) mrm.KiBaMRM {
	t.Helper()
	m := harvestingModel(t, harvest)
	m.Currents = []float64{draw, harvest}
	m.Battery = kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5}
	return m
}

func TestTwoWellChargingMatchesReferee(t *testing.T) {
	const delta = 300
	model := harvestOnOff(t, 0.96, -0.3)
	e, err := Build(model, delta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.ReachableStates() >= e.NumStates() {
		t.Fatalf("nothing pruned: %d of %d states", e.ReachableStates(), e.NumStates())
	}
	times := []float64{8000, 16000, 32000}
	want, err := referee(t, model, delta, Options{}).Measure(
		func(_ int, cell []int) bool { return cell[0] == 0 }, times, ctmc.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.LifetimeCDF(times)
	if err != nil {
		t.Fatal(err)
	}
	for k := range times {
		if math.Abs(got.EmptyProb[k]-want[k]) > 1e-10 {
			t.Errorf("t=%v: core %v vs full grid %v", times[k], got.EmptyProb[k], want[k])
		}
	}
}

func TestPhasedUnionIndexSpace(t *testing.T) {
	// A draining day and a harvesting night reach different states on
	// their own: the night reaches the top available level, which the day
	// never does. The phases must share the union closure.
	const delta = 300
	day := onOffModel(t, 0.625, 4.5e-5)
	night := harvestOnOff(t, 0.2, -0.5)
	phases := []ModelPhase{
		{Model: day, Duration: 6000},
		{Model: night, Duration: 6000},
		{Model: day, Duration: math.Inf(1)},
	}
	times := []float64{4000, 9000, 14000, 20000}
	got, err := PhasedLifetimeCDF(phases, delta, times, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Full-grid referee: the same schedule over unpruned generators.
	chain := make([]ctmc.Phase, len(phases))
	var alpha, w []float64
	for i, ph := range phases {
		g := referee(t, ph.Model, delta, Options{})
		chain[i] = ctmc.Phase{Generator: g.Generator(), Duration: ph.Duration}
		if i == 0 {
			alpha = g.InitialVector()
			w = make([]float64, g.NumStates())
			for s := range w {
				if g.Indicator(func(_ int, cell []int) bool { return cell[0] == 0 })(s) {
					w[s] = 1
				}
			}
		}
	}
	want, err := ctmc.PiecewiseTransientFunctional(chain, alpha, w, times, ctmc.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range times {
		if math.Abs(got.EmptyProb[k]-want.Values[k]) > 1e-10 {
			t.Errorf("t=%v: phased core %v vs full grid %v", times[k], got.EmptyProb[k], want.Values[k])
		}
	}

	// Phases expanded one by one reach different sets; the piecewise
	// solve must move them onto the union and agree exactly.
	dayX, err := Build(day, delta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nightX, err := Build(night, delta, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(dayX.reach, nightX.reach) {
		t.Fatal("day and night reach the same states; the test needs them to differ")
	}
	sep, err := PhasedLifetimeCDFExpanded([]*Expanded{dayX, nightX, dayX},
		[]float64{6000, 6000, math.Inf(1)}, times, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sep.EmptyProb, got.EmptyProb) {
		t.Errorf("separately built phases %v vs PhasedLifetimeCDF %v", sep.EmptyProb, got.EmptyProb)
	}
	if sep.ReachableStates <= dayX.ReachableStates() {
		t.Errorf("union has %d states, day alone %d", sep.ReachableStates, dayX.ReachableStates())
	}
}
