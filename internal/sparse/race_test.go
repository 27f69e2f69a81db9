package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// buildStressCSR assembles a deterministic pseudo-random matrix large
// enough (rows > 4096) to take the parallel path in Pool.MulVec.
func buildStressCSR(t testing.TB, rows, nnzPerRow int) *CSR {
	t.Helper()
	b := NewBuilder(rows, rows, rows*nnzPerRow)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for r := 0; r < rows; r++ {
		for k := 0; k < nnzPerRow; k++ {
			col := int(next() % uint64(rows))
			val := 1 + float64(next()%1000)/1000
			b.Add(r, col, val)
		}
	}
	m, err := b.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return m
}

// TestPoolMulVecConcurrentSharing drives one Pool and one CSR from many
// goroutines at once — the sharing pattern the transient solver will
// adopt once solves are served concurrently — and cross-checks every
// result against the serial kernel. Run with -race (the CI default) to
// certify the pool has no hidden shared state.
func TestPoolMulVecConcurrentSharing(t *testing.T) {
	const (
		rows       = 5000
		goroutines = 8
		iterations = 25
	)
	m := buildStressCSR(t, rows, 5)
	pool := NewPool(4)
	defer pool.Close()

	x := make([]float64, rows)
	for i := range x {
		x[i] = math.Sin(float64(i)) // fixed, shared read-only input
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatalf("serial MulVec: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, rows)
			for it := 0; it < iterations; it++ {
				if err := pool.MulVec(m, dst, x); err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", g, it, err)
					return
				}
				for i := range dst {
					if dst[i] != want[i] {
						errs <- fmt.Errorf("goroutine %d iter %d: dst[%d]=%v want %v", g, it, i, dst[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPoolMulVecConcurrentPools exercises many distinct Pools sharing
// one immutable CSR, ensuring the matrix itself is safe for concurrent
// readers.
func TestPoolMulVecConcurrentPools(t *testing.T) {
	const rows = 4200
	m := buildStressCSR(t, rows, 3)
	x := make([]float64, rows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatalf("serial MulVec: %v", err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			pool := NewPool(workers)
			defer pool.Close()
			dst := make([]float64, rows)
			if err := pool.MulVec(m, dst, x); err != nil {
				t.Errorf("pool(%d): %v", workers, err)
				return
			}
			for i := range dst {
				if dst[i] != want[i] {
					t.Errorf("pool(%d): dst[%d]=%v want %v", workers, i, dst[i], want[i])
					return
				}
			}
		}(g%4 + 1)
	}
	wg.Wait()
}

// TestPoolRangedConcurrent drives ranged products over overlapping row
// ranges of one matrix through one pool from many goroutines, each into
// its own dst, and checks every row against the serial product. Run
// under -race.
func TestPoolRangedConcurrent(t *testing.T) {
	const rows = 12000
	m := buildStressCSR(t, rows, 4)
	pool := NewPool(4)
	defer pool.Close()
	x := make([]float64, rows)
	for i := range x {
		x[i] = math.Sin(float64(i)) + 2
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			dst := make([]float64, rows)
			acc := make([]float64, rows)
			for it := 0; it < 15; it++ {
				lo := rng.Intn(rows / 2)
				hi := lo + rng.Intn(rows-lo+1)
				var err error
				if g%2 == 0 {
					err = pool.MulVecRange(m, dst, x, lo, hi)
				} else {
					err = pool.MulVecAccum(m, dst, x, acc, 0.5, lo, hi)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				for i := lo; i < hi; i++ {
					if dst[i] != want[i] {
						errs <- fmt.Errorf("goroutine %d [%d,%d): dst[%d] = %v, want %v", g, lo, hi, i, dst[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
