package multireward

import (
	"errors"
	"math"
	"testing"

	"batlife/internal/core"
	"batlife/internal/ctmc"
	"batlife/internal/kibam"
	"batlife/internal/mrm"
	"batlife/internal/units"
	"batlife/internal/workload"
)

func singleStateChain(t *testing.T) *ctmc.Chain {
	t.Helper()
	var b ctmc.Builder
	b.State("on")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func erlangCDF(k int, rate, t float64) float64 {
	sum, term := 0.0, 1.0
	for i := 0; i < k; i++ {
		if i > 0 {
			term *= rate * t / float64(i)
		}
		sum += term
	}
	return 1 - math.Exp(-rate*t)*sum
}

// oneDimSpec models a single always-on state draining a 1-D grid:
// identical to core's degenerate battery.
func oneDimSpec(t *testing.T, levels int, rate float64) Spec {
	t.Helper()
	chain := singleStateChain(t)
	return Spec{
		Chain:       chain,
		Levels:      []int{levels},
		Initial:     []float64{1},
		InitialCell: []int{levels - 2},
		Moves: func(_ int, cell []int) []Move {
			if cell[0] == 0 {
				return nil
			}
			return []Move{{Rate: rate, Shift: []int{-1}}}
		},
		Absorbing: func(_ int, cell []int) bool { return cell[0] == 0 },
	}
}

func TestOneDimensionErlangClosedForm(t *testing.T) {
	const levels, rate = 21, 0.04
	g, err := Build(oneDimSpec(t, levels, rate))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != levels {
		t.Fatalf("states = %d", g.NumStates())
	}
	empty := func(_ int, cell []int) bool { return cell[0] == 0 }
	times := []float64{100, 475, 500, 525, 900}
	probs, err := g.Measure(empty, times, ctmc.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jumps := levels - 2
	for k, tm := range times {
		want := erlangCDF(jumps, rate, tm)
		if math.Abs(probs[k]-want) > 1e-8 {
			t.Errorf("t=%v: %v, want Erlang %v", tm, probs[k], want)
		}
	}
}

// twoWellSpec reproduces core's two-well battery on the generic grid.
func twoWellSpec(t *testing.T, battery kibam.Params, delta float64) (Spec, mrm.KiBaMRM) {
	t.Helper()
	w, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	model := mrm.KiBaMRM{
		Workload: w.Chain, Currents: w.Currents, Initial: w.Initial, Battery: battery,
	}
	n1 := int(battery.C*battery.Capacity/delta) + 1
	n2 := int((1-battery.C)*battery.Capacity/delta) + 1
	j2init := n2 - 2
	if n2 == 1 {
		j2init = 0
	}
	k, c := battery.K, battery.C
	spec := Spec{
		Chain:       w.Chain,
		Levels:      []int{n1, n2},
		Initial:     w.Initial,
		InitialCell: []int{n1 - 2, j2init},
		Moves: func(state int, cell []int) []Move {
			if cell[0] == 0 {
				return nil
			}
			var moves []Move
			if cur := model.Currents[state]; cur > 0 {
				moves = append(moves, Move{Rate: cur / delta, Shift: []int{-1, 0}})
			}
			if k > 0 && cell[1] > 0 && cell[0] < n1-1 {
				y1 := float64(cell[0]) * delta
				y2 := float64(cell[1]) * delta
				if rate := k * (y2/(1-c) - y1/c) / delta; rate > 0 {
					moves = append(moves, Move{Rate: rate, Shift: []int{1, -1}})
				}
			}
			return moves
		},
		Absorbing: func(_ int, cell []int) bool { return cell[0] == 0 },
	}
	return spec, model
}

func TestTwoWellMatchesCore(t *testing.T) {
	// The generic grid must reproduce internal/core exactly — both
	// build the same expanded CTMC.
	battery := kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5}
	const delta = 300
	spec, model := twoWellSpec(t, battery, delta)
	g, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.Build(model, delta, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != e.NumStates() {
		t.Fatalf("states %d vs core %d", g.NumStates(), e.NumStates())
	}
	// core assembles Q* only over the states reachable from a full
	// battery; the referee keeps the whole grid. Restricted to the rows
	// reachable in the referee's own generator, both must agree exactly.
	reachable := make([]bool, g.NumStates())
	var queue []int
	for s, p := range g.InitialVector() {
		if p > 0 {
			reachable[s] = true
			queue = append(queue, s)
		}
	}
	nnz := 0
	for head := 0; head < len(queue); head++ {
		g.Generator().Row(queue[head], func(col int, v float64) {
			nnz++
			if !reachable[col] {
				reachable[col] = true
				queue = append(queue, col)
			}
		})
	}
	if len(queue) != e.ReachableStates() {
		t.Fatalf("reachable %d vs core %d", len(queue), e.ReachableStates())
	}
	if nnz != e.NNZ() {
		t.Fatalf("nnz over the reachable rows %d vs core %d", nnz, e.NNZ())
	}
	times := []float64{8000, 12000, 16000}
	probs, err := g.Measure(func(_ int, cell []int) bool { return cell[0] == 0 }, times, ctmc.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.LifetimeCDF(times)
	if err != nil {
		t.Fatal(err)
	}
	for k := range times {
		if math.Abs(probs[k]-want.EmptyProb[k]) > 1e-10 {
			t.Errorf("t=%v: generic %v vs core %v", times[k], probs[k], want.EmptyProb[k])
		}
	}
}

func TestThreeRewardJointMeasure(t *testing.T) {
	// Third dimension: a delivered-energy counter that increments with
	// every consumption move. Checks the paper's "three or more reward
	// types" claim end to end.
	battery := kibam.Params{Capacity: 7200, C: 0.625, K: 4.5e-5}
	const delta = 450.0
	n1 := int(battery.C*battery.Capacity/delta) + 1     // 11
	n2 := int((1-battery.C)*battery.Capacity/delta) + 1 // 7
	nd := int(battery.Capacity/delta) + 2               // delivered counter bound
	w, err := workload.OnOff(1, 1, units.Amperes(0.96))
	if err != nil {
		t.Fatal(err)
	}
	k, c := battery.K, battery.C
	currents := w.Currents
	spec := Spec{
		Chain:       w.Chain,
		Levels:      []int{n1, n2, nd},
		Initial:     w.Initial,
		InitialCell: []int{n1 - 2, n2 - 2, 0},
		Moves: func(state int, cell []int) []Move {
			if cell[0] == 0 {
				return nil
			}
			var moves []Move
			if cur := currents[state]; cur > 0 && cell[2] < nd-1 {
				moves = append(moves, Move{Rate: cur / delta, Shift: []int{-1, 0, 1}})
			}
			if k > 0 && cell[1] > 0 && cell[0] < n1-1 {
				y1 := float64(cell[0]) * delta
				y2 := float64(cell[1]) * delta
				if rate := k * (y2/(1-c) - y1/c) / delta; rate > 0 {
					moves = append(moves, Move{Rate: rate, Shift: []int{1, -1, 0}})
				}
			}
			return moves
		},
		Absorbing: func(_ int, cell []int) bool { return cell[0] == 0 },
	}
	g, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Marginal over the first dimension must match the 2-D model's
	// empty probability (adding an observer dimension changes nothing).
	spec2, _ := twoWellSpec(t, battery, delta)
	g2, err := Build(spec2)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{10000, 14000}
	empty3, err := g.Measure(func(_ int, cell []int) bool { return cell[0] == 0 }, times, ctmc.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	empty2, err := g2.Measure(func(_ int, cell []int) bool { return cell[0] == 0 }, times, ctmc.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range times {
		if math.Abs(empty3[i]-empty2[i]) > 1e-9 {
			t.Errorf("t=%v: 3-reward marginal %v vs 2-reward %v", times[i], empty3[i], empty2[i])
		}
	}

	// Joint measure: empty AND delivered at least 12 levels. Must be
	// less than or equal to the plain empty probability, and the
	// difference must be the empty-with-low-delivery mass.
	joint, err := g.Measure(func(_ int, cell []int) bool {
		return cell[0] == 0 && cell[2] >= 12
	}, times, ctmc.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	low, err := g.Measure(func(_ int, cell []int) bool {
		return cell[0] == 0 && cell[2] < 12
	}, times, ctmc.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range times {
		if joint[i] > empty3[i]+1e-12 {
			t.Errorf("joint %v exceeds marginal %v", joint[i], empty3[i])
		}
		if math.Abs(joint[i]+low[i]-empty3[i]) > 1e-9 {
			t.Errorf("t=%v: partition %v + %v != %v", times[i], joint[i], low[i], empty3[i])
		}
	}

	// The delivered marginal at a late time concentrates near the
	// initial available charge plus transferred bound charge: its mean
	// must lie between the available-well content and the capacity.
	marginal, err := g.CellMarginal(2, 30000, ctmc.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for lvl, p := range marginal {
		mean += float64(lvl) * delta * p
	}
	if mean < c*battery.Capacity-2*delta || mean > battery.Capacity {
		t.Errorf("mean delivered energy %v As outside (%v, %v)", mean, c*battery.Capacity, battery.Capacity)
	}
}

func TestRateScaleInhomogeneousGenerator(t *testing.T) {
	// Throttling the workload at low charge must extend the lifetime —
	// the same check core runs, through the generic interface.
	battery := kibam.Params{Capacity: 7200, C: 1, K: 0}
	const delta = 300
	spec, _ := twoWellSpec(t, battery, delta)
	base, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	throttledSpec := spec
	throttledSpec.RateScale = func(_, to int, cell []int, rate float64) float64 {
		if to == 0 && cell[0] < 8 { // entering the on-state at low charge
			return rate / 5
		}
		return rate
	}
	throttled, err := Build(throttledSpec)
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{15000}
	empty := func(_ int, cell []int) bool { return cell[0] == 0 }
	pBase, err := base.Measure(empty, times, ctmc.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pThrottled, err := throttled.Measure(empty, times, ctmc.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pThrottled[0] >= pBase[0] {
		t.Errorf("throttled %v not below base %v", pThrottled[0], pBase[0])
	}
}

func TestSpecValidation(t *testing.T) {
	chain := singleStateChain(t)
	good := oneDimSpec(t, 5, 1)
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"nil chain", func(s *Spec) { s.Chain = nil }},
		{"no dimensions", func(s *Spec) { s.Levels = nil }},
		{"zero levels", func(s *Spec) { s.Levels = []int{0} }},
		{"bad initial len", func(s *Spec) { s.Initial = []float64{0.5, 0.5} }},
		{"unnormalised initial", func(s *Spec) { s.Initial = []float64{0.5} }},
		{"bad cell dims", func(s *Spec) { s.InitialCell = []int{1, 1} }},
		{"cell out of range", func(s *Spec) { s.InitialCell = []int{99} }},
		{"nil moves", func(s *Spec) { s.Moves = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good
			tc.mutate(&s)
			if _, err := Build(s); !errors.Is(err, ErrBadSpec) {
				t.Errorf("err = %v, want ErrBadSpec", err)
			}
		})
	}
	_ = chain
}

func TestMoveValidation(t *testing.T) {
	s := oneDimSpec(t, 5, 1)
	// A move that walks off the grid must be rejected at build time.
	s.Moves = func(_ int, cell []int) []Move {
		return []Move{{Rate: 1, Shift: []int{-1}}} // fires even at cell 0... but 0 is absorbing
	}
	s.Absorbing = nil // expose the bad move
	if _, err := Build(s); !errors.Is(err, ErrBadMove) {
		t.Errorf("off-grid move: err = %v", err)
	}
	s2 := oneDimSpec(t, 5, 1)
	s2.Moves = func(_ int, cell []int) []Move {
		if cell[0] == 0 {
			return nil
		}
		return []Move{{Rate: 1, Shift: []int{-1, 0}}}
	}
	if _, err := Build(s2); !errors.Is(err, ErrBadMove) {
		t.Errorf("wrong shift arity: err = %v", err)
	}
	s3 := oneDimSpec(t, 5, 1)
	s3.Moves = func(_ int, cell []int) []Move {
		if cell[0] == 0 {
			return nil
		}
		return []Move{{Rate: -2, Shift: []int{-1}}}
	}
	if _, err := Build(s3); !errors.Is(err, ErrBadSpec) {
		t.Errorf("negative rate: err = %v", err)
	}
}

func TestMeasureValidation(t *testing.T) {
	g, err := Build(oneDimSpec(t, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Measure(nil, []float64{1}, ctmc.TransientOptions{}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("nil indicator: err = %v", err)
	}
	if _, err := g.CellMarginal(7, 1, ctmc.TransientOptions{}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad dimension: err = %v", err)
	}
}
