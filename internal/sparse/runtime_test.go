package sparse

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitForGoroutines polls until the process goroutine count drops to at
// most want. Worker goroutines mark their WaitGroup done before their
// final return, so a just-Closed pool's workers may linger for a
// scheduler beat.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stuck at %d, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolCloseReleasesWorkers is the goroutine-leak regression test for
// the persistent runtime: a pool that has started its workers must shed
// every goroutine on Close. Before the persistent runtime this property
// was vacuous (goroutines were per-call); now it is the contract that
// lets TransientOptions.pool() hand out per-solve pools safely.
func TestPoolCloseReleasesWorkers(t *testing.T) {
	m := buildStressCSR(t, 5000, 4)
	x := make([]float64, 5000)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	dst := make([]float64, 5000)

	before := runtime.NumGoroutine()
	pool := NewPool(4)
	if err := pool.MulVec(m, dst, x); err != nil { // forces lazy start
		t.Fatalf("MulVec: %v", err)
	}
	if n := runtime.NumGoroutine(); n < before+3 {
		t.Fatalf("after first product %d goroutines, want >= %d (3 persistent workers)", n, before+3)
	}
	pool.Close()
	waitForGoroutines(t, before)
}

// TestPoolCloseIdempotent closes a started pool repeatedly, including
// concurrently; every call must return, and the pool must stay usable
// as a serial executor afterwards.
func TestPoolCloseIdempotent(t *testing.T) {
	m := buildStressCSR(t, 4500, 3)
	x := make([]float64, 4500)
	for i := range x {
		x[i] = math.Cos(float64(i))
	}
	want := make([]float64, 4500)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}

	pool := NewPool(3)
	dst := make([]float64, 4500)
	if err := pool.MulVec(m, dst, x); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Close()
		}()
	}
	wg.Wait()
	pool.Close() // and once more, sequentially

	// A closed pool degrades to the serial kernel, bit-identically.
	for i := range dst {
		dst[i] = math.NaN()
	}
	if err := pool.MulVec(m, dst, x); err != nil {
		t.Fatalf("MulVec after Close: %v", err)
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("post-Close dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

// TestPoolCloseNeverStartedNoGoroutines: a pool that only ever saw
// small (serial) products must not spawn anything, and Close on it is a
// cheap no-op.
func TestPoolCloseNeverStartedNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(8)
	b := NewBuilder(16, 16, 0)
	for i := 0; i < 16; i++ {
		b.Add(i, i, 1)
	}
	m, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	dst, x := make([]float64, 16), make([]float64, 16)
	x[3] = 1
	if err := pool.MulVec(m, dst, x); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("small products spawned goroutines: %d, want %d", n, before)
	}
	pool.Close()
	waitForGoroutines(t, before)
}

// TestPoolCloseRacesInflight hammers one pool with products from many
// goroutines while Close fires in the middle: nothing may deadlock, and
// every product — dispatched before or after the close — must still be
// bit-identical to the serial kernel (in-flight chunks are finished by
// their callers; later calls fall back to serial).
func TestPoolCloseRacesInflight(t *testing.T) {
	const rows = 5000
	m := buildStressCSR(t, rows, 4)
	x := make([]float64, rows)
	for i := range x {
		x[i] = math.Sin(float64(i) / 3)
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}

	pool := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, rows)
			for it := 0; it < 30; it++ {
				if err := pool.MulVec(m, dst, x); err != nil {
					t.Errorf("MulVec: %v", err)
					return
				}
				for i := range dst {
					if dst[i] != want[i] {
						t.Errorf("iter %d: dst[%d] = %v, want %v", it, i, dst[i], want[i])
						return
					}
				}
			}
		}()
	}
	time.Sleep(time.Millisecond) // let some products get airborne
	pool.Close()
	wg.Wait()
}

// TestDefaultPoolShared pins the bugfix for the per-solve pool leak:
// TransientOptions with neither Pool nor Workers must resolve to one
// process-wide pool rather than constructing (and leaking) worker sets
// per solve.
func TestDefaultPoolShared(t *testing.T) {
	p1, p2 := DefaultPool(), DefaultPool()
	if p1 != p2 {
		t.Fatalf("DefaultPool returned distinct pools %p, %p", p1, p2)
	}
	if p1.Workers() < 1 {
		t.Fatalf("DefaultPool workers = %d", p1.Workers())
	}
}

// TestMulVecAccumMatchesUnfused checks the fused kernel against its
// definition — MulVec then acc[i] += w·dst[i] — for the serial and the
// parallel paths, bit for bit, including the w = 0 accumulate skip.
func TestMulVecAccumMatchesUnfused(t *testing.T) {
	const rows = 5200
	m := buildStressCSR(t, rows, 5)
	x := make([]float64, rows)
	accInit := make([]float64, rows)
	for i := range x {
		x[i] = math.Sin(float64(i)) + 1.5
		accInit[i] = 1 / float64(i+1)
	}

	for _, w := range []float64{0, 1, 0.37, -2.25} {
		wantDst := make([]float64, rows)
		wantAcc := append([]float64(nil), accInit...)
		if err := m.MulVec(wantDst, x); err != nil {
			t.Fatal(err)
		}
		if w != 0 {
			for i := range wantAcc {
				wantAcc[i] += w * wantDst[i]
			}
		}

		check := func(label string, run func(dst, acc []float64) error) {
			t.Helper()
			dst := make([]float64, rows)
			acc := append([]float64(nil), accInit...)
			if err := run(dst, acc); err != nil {
				t.Fatalf("%s (w=%v): %v", label, w, err)
			}
			for i := range dst {
				if dst[i] != wantDst[i] {
					t.Fatalf("%s (w=%v): dst[%d] = %v, want %v", label, w, i, dst[i], wantDst[i])
				}
				if acc[i] != wantAcc[i] {
					t.Fatalf("%s (w=%v): acc[%d] = %v, want %v", label, w, i, acc[i], wantAcc[i])
				}
			}
		}
		check("serial", func(dst, acc []float64) error {
			return m.MulVecAccum(dst, x, acc, w, 0, rows)
		})
		pool := NewPool(4)
		defer pool.Close()
		check("parallel", func(dst, acc []float64) error {
			return pool.MulVecAccum(m, dst, x, acc, w, 0, rows)
		})
	}
}

// TestPoolMixedKernelsConcurrent drives plain and fused products
// through one pool from many goroutines at once — the mixed traffic a
// daemon produces when functional solves and single-time distribution
// solves overlap. Run under -race.
func TestPoolMixedKernelsConcurrent(t *testing.T) {
	const rows = 4600
	m := buildStressCSR(t, rows, 4)
	x := make([]float64, rows)
	for i := range x {
		x[i] = float64(i%13) + 0.25
	}
	want := make([]float64, rows)
	if err := m.MulVec(want, x); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(4)
	defer pool.Close()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, rows)
			acc := make([]float64, rows)
			for it := 0; it < 20; it++ {
				var err error
				if g%2 == 0 {
					err = pool.MulVec(m, dst, x)
				} else {
					err = pool.MulVecAccum(m, dst, x, acc, 0, 0, rows)
				}
				if err != nil {
					t.Errorf("product %d: %v", g, err)
					return
				}
				for i := range dst {
					if dst[i] != want[i] {
						t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestKernelShapeErrors covers the argument validation of the fused
// kernel on both the serial and pooled entry points.
func TestKernelShapeErrors(t *testing.T) {
	b := NewBuilder(4, 4, 0)
	b.Add(0, 0, 1)
	m, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2)
	defer pool.Close()
	good := make([]float64, 4)
	bad := make([]float64, 3)
	cases := []struct {
		name string
		err  error
	}{
		{"serial accum dst", m.MulVecAccum(bad, good, good, 1, 0, 4)},
		{"serial accum acc", m.MulVecAccum(good, good, bad, 1, 0, 4)},
		{"pool accum x", pool.MulVecAccum(m, good, bad, good, 1, 0, 4)},
	}
	for _, c := range cases {
		if !errors.Is(c.err, ErrShape) {
			t.Errorf("%s: err = %v, want ErrShape", c.name, c.err)
		}
	}
}

// buildSkewedCSR returns a matrix whose nnz mass is concentrated in a
// small prefix of rows — the adversarial shape for row-count
// partitioning and the motivating case for nnz balancing.
func buildSkewedCSR(t testing.TB, rows, heavy, heavyNNZ int) *CSR {
	t.Helper()
	b := NewBuilder(rows, rows, heavy*heavyNNZ+rows)
	state := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for r := 0; r < rows; r++ {
		n := 1
		if r < heavy {
			n = heavyNNZ
		}
		for k := 0; k < n; k++ {
			b.Add(r, int(next()%uint64(rows)), 1+float64(next()%100)/100)
		}
	}
	m, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRowPartitionProperties is the property test for the nnz-balanced
// partition: for a range of chunk counts over a heavily skewed matrix,
// the bounds must cover every row exactly once in order, and every
// chunk's weight (nnz + rows, the kernel's actual work) must stay below
// ideal + the heaviest single row — the greedy cut's guarantee.
func TestRowPartitionProperties(t *testing.T) {
	const rows = 6000
	m := buildSkewedCSR(t, rows, 64, 300)

	maxRowW := 0
	for r := 0; r < rows; r++ {
		if w := int(m.rowPtr[r+1]-m.rowPtr[r]) + 1; w > maxRowW {
			maxRowW = w
		}
	}
	total := m.NNZ() + rows

	for _, chunks := range []int{1, 2, 3, 4, 7, 8, 16, 61} {
		part := m.rowPartition(chunks)
		bounds := part.bounds
		if len(bounds) < 2 || bounds[0] != 0 || int(bounds[len(bounds)-1]) != rows {
			t.Fatalf("chunks=%d: bounds %v do not span [0,%d]", chunks, bounds, rows)
		}
		if len(bounds)-1 > chunks {
			t.Fatalf("chunks=%d: %d chunks produced", chunks, len(bounds)-1)
		}
		ideal := float64(total) / float64(chunks)
		maxW := 0
		for c := 0; c+1 < len(bounds); c++ {
			lo, hi := int(bounds[c]), int(bounds[c+1])
			if hi <= lo {
				t.Fatalf("chunks=%d: empty or inverted chunk [%d,%d)", chunks, lo, hi)
			}
			w := int(m.rowPtr[hi]-m.rowPtr[lo]) + (hi - lo)
			if w > maxW {
				maxW = w
			}
			if float64(w) >= ideal+float64(maxRowW)+1 {
				t.Errorf("chunks=%d: chunk [%d,%d) weight %d exceeds ideal %.1f + max row %d",
					chunks, lo, hi, w, ideal, maxRowW)
			}
		}
		if got := part.imbalance; math.Abs(got-float64(maxW)/ideal) > 1e-9 {
			t.Errorf("chunks=%d: imbalance %v, want %v", chunks, got, float64(maxW)/ideal)
		}
	}
}

// TestRowPartitionCacheAndInvalidation pins the caching contract: the
// partition for a given chunk count is computed once and shared, a
// different chunk count recomputes, and Validate drops the cache (it is
// the designated mutation barrier).
func TestRowPartitionCacheAndInvalidation(t *testing.T) {
	m := buildStressCSR(t, 5000, 3)
	p4 := m.rowPartition(4)
	if again := m.rowPartition(4); again != p4 {
		t.Error("same chunk count did not reuse the cached partition")
	}
	p2 := m.rowPartition(2)
	if p2 == p4 || p2.chunks != 2 {
		t.Errorf("chunk-count change returned %+v", p2)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m.part.Load() != nil {
		t.Error("Validate did not invalidate the cached partition")
	}
	if p := m.rowPartition(2); p == p2 {
		t.Error("post-Validate partition was not recomputed")
	}
}

// TestFusedKernelsZeroAlloc backs the //numlint:hotpath annotations on
// the fused serial kernel: MulVecAccum must not allocate per call — it
// runs once per uniformisation step.
func TestFusedKernelsZeroAlloc(t *testing.T) {
	b := NewBuilder(64, 64, 0)
	for i := 0; i < 64; i++ {
		b.Add(i, i, 2)
		b.Add(i, (i+3)%64, -0.5)
	}
	m, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	dst := make([]float64, 64)
	acc := make([]float64, 64)
	for i := range x {
		x[i] = float64(i%5) + 0.25
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.MulVecAccum(dst, x, acc, 0.5, 0, 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("fused kernel allocates %v per run, want 0", allocs)
	}
}
