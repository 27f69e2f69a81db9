package ctmc

import (
	"fmt"
	"math"
	"testing"
)

// gamblersRuin builds a random walk on 0..n started in the middle, with
// absorbing ends: state 0 is the absorbing prefix, state n an absorbing
// row outside it, and the walk spreads both ways from its start.
func gamblersRuin(t *testing.T, n int, up, down float64) (*Chain, []float64) {
	t.Helper()
	var b Builder
	for i := 0; i <= n; i++ {
		b.State(fmt.Sprint(i))
	}
	for i := 1; i < n; i++ {
		b.Transition(fmt.Sprint(i), fmt.Sprint(i+1), up)
		b.Transition(fmt.Sprint(i), fmt.Sprint(i-1), down)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, c.PointDistribution(n / 2)
}

// TestLiveBandSpreadsBothWays checks the band on a generic chain: mass
// spreading up and down from the start reaches both absorbing ends, the
// exact stop fires once only they carry mass, the distributions match
// the full window within ε + DroppedMass, and the products sweep fewer
// non-zeros than full ones would.
func TestLiveBandSpreadsBothWays(t *testing.T) {
	const eps = 1e-12
	c, alpha := gamblersRuin(t, 60, 1.5, 1)
	u, err := NewUniformized(c.Generator(), TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if u.prefix != 1 || !u.absorbing {
		t.Fatalf("prefix %d, absorbing %v; want 1 and true", u.prefix, u.absorbing)
	}
	times := []float64{5, 50, 5000}
	stopped, err := u.Transient(alpha, nil, times, TransientOptions{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	full, err := u.Transient(alpha, nil, times, TransientOptions{Epsilon: eps, DisableSteadyStateDetection: true})
	if err != nil {
		t.Fatal(err)
	}
	if stopped.Iterations >= full.Iterations {
		t.Errorf("no early stop: %d of %d iterations", stopped.Iterations, full.Iterations)
	}
	for k, tk := range times {
		for i := range alpha {
			if d := math.Abs(stopped.Distributions[k][i] - full.Distributions[k][i]); d > eps+stopped.DroppedMass {
				t.Errorf("t=%v state %d: stopped %v vs full %v", tk, i, stopped.Distributions[k][i], full.Distributions[k][i])
			}
		}
	}
	last := stopped.Distributions[len(times)-1]
	if math.Abs(last[0]+last[len(last)-1]-1) > 1e-9 {
		t.Errorf("absorbed mass %v + %v, want 1", last[0], last[len(last)-1])
	}
	if all := int64(full.SpMVs) * int64(u.pt.NNZ()); full.SweptNNZ <= 0 || full.SweptNNZ >= all {
		t.Errorf("full-window SweptNNZ = %d, want in (0, %d)", full.SweptNNZ, all)
	}
}
