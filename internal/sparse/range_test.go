package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// sentinel marks the dst and acc entries a ranged product must leave
// untouched.
const sentinel = -7.25

// testRanges returns the edge-case row ranges of an n-row matrix —
// empty at both ends and inside, single rows, the full range — plus
// random ones, some long enough for the pool to split.
func testRanges(n int, rng *rand.Rand) [][2]int {
	ranges := [][2]int{{0, 0}, {n, n}, {n / 2, n / 2}, {0, 1}, {n - 1, n}, {n / 3, n/3 + 1}, {0, n}, {1, n - 1}}
	for i := 0; i < 24; i++ {
		lo := rng.Intn(n + 1)
		ranges = append(ranges, [2]int{lo, lo + rng.Intn(n-lo+1)})
	}
	return ranges
}

// TestRangedKernelsMatchSerial checks the ranged products — serial and
// pooled, plain and fused — on random ranges: rows inside the range are
// bit-identical to the full serial product, rows outside are untouched.
func TestRangedKernelsMatchSerial(t *testing.T) {
	const rows = 9000
	m := buildSkewedCSR(t, rows, 40, 200)
	x := make([]float64, rows)
	accInit := make([]float64, rows)
	for i := range x {
		x[i] = math.Cos(float64(i)) + 1.25
		accInit[i] = 1 / float64(i+3)
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	defer pool.Close()

	kernels := []struct {
		name  string
		fused bool
		run   func(dst, acc []float64, w float64, lo, hi int) error
	}{
		{"serial", false, func(dst, _ []float64, _ float64, lo, hi int) error {
			return m.MulVecRange(dst, x, lo, hi)
		}},
		{"pool", false, func(dst, _ []float64, _ float64, lo, hi int) error {
			return pool.MulVecRange(m, dst, x, lo, hi)
		}},
		{"serial-accum", true, func(dst, acc []float64, w float64, lo, hi int) error {
			return m.MulVecAccum(dst, x, acc, w, lo, hi)
		}},
		{"pool-accum", true, func(dst, acc []float64, w float64, lo, hi int) error {
			return pool.MulVecAccum(m, dst, x, acc, w, lo, hi)
		}},
	}
	rng := rand.New(rand.NewSource(3))
	for _, r := range testRanges(rows, rng) {
		lo, hi := r[0], r[1]
		for _, k := range kernels {
			for _, w := range []float64{0, 0.37} {
				dst := make([]float64, rows)
				acc := append([]float64(nil), accInit...)
				for i := range dst {
					dst[i] = sentinel
				}
				if err := k.run(dst, acc, w, lo, hi); err != nil {
					t.Fatalf("%s [%d,%d): %v", k.name, lo, hi, err)
				}
				for i := range dst {
					in := lo <= i && i < hi
					wantDst, wantAcc := sentinel, accInit[i]
					if in {
						wantDst = want[i]
						if k.fused && w != 0 {
							wantAcc += w * want[i]
						}
					}
					if dst[i] != wantDst || acc[i] != wantAcc {
						t.Fatalf("%s w=%v [%d,%d): row %d dst %v acc %v, want %v and %v",
							k.name, w, lo, hi, i, dst[i], acc[i], wantDst, wantAcc)
					}
				}
			}
		}
	}
}

// TestRangedKernelsRejectBadRanges covers the range validation of every
// ranged entry point.
func TestRangedKernelsRejectBadRanges(t *testing.T) {
	m := buildStressCSR(t, 8, 2)
	pool := NewPool(2)
	defer pool.Close()
	v := make([]float64, 8)
	for _, r := range [][2]int{{-1, 3}, {4, 3}, {0, 9}, {9, 9}} {
		lo, hi := r[0], r[1]
		for name, err := range map[string]error{
			"serial":       m.MulVecRange(v, v, lo, hi),
			"serial-accum": m.MulVecAccum(v, v, v, 1, lo, hi),
			"pool":         pool.MulVecRange(m, v, v, lo, hi),
			"pool-accum":   pool.MulVecAccum(m, v, v, v, 1, lo, hi),
		} {
			if !errors.Is(err, ErrShape) {
				t.Errorf("%s [%d,%d): err = %v, want ErrShape", name, lo, hi, err)
			}
		}
	}
}

// TestRangedKernelsZeroAlloc backs the //numlint:hotpath annotations on
// the ranged kernels: a ranged product runs once or twice per
// uniformisation step and must not allocate, serial or through a pool
// that keeps it on the caller.
func TestRangedKernelsZeroAlloc(t *testing.T) {
	m := buildStressCSR(t, 64, 3)
	pool := NewPool(2)
	defer pool.Close()
	x := make([]float64, 64)
	dst := make([]float64, 64)
	acc := make([]float64, 64)
	for i := range x {
		x[i] = float64(i%5) + 0.25
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.MulVecRange(dst, x, 5, 40); err != nil {
			t.Fatal(err)
		}
		if err := m.MulVecAccum(dst, x, acc, 0.5, 17, 18); err != nil {
			t.Fatal(err)
		}
		if err := pool.MulVecRange(m, dst, x, 0, 64); err != nil {
			t.Fatal(err)
		}
		if err := pool.MulVecAccum(m, dst, x, acc, 0.5, 30, 30); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ranged kernels allocate %v per run, want 0", allocs)
	}
}
