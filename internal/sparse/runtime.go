package sparse

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"batlife/internal/check"
	"batlife/internal/obs"
)

// PoolMetrics bundles the observability handles a Pool records into.
// The counters are resolved once at pool construction (metric lookup is
// a lock + map read, too slow for the SpMV path) and are nil-safe, so a
// metrics-free pool costs exactly a handful of nil checks per product.
type PoolMetrics struct {
	// SpMV counts every matrix-vector product; SpMVParallel the subset
	// dispatched across worker goroutines (large matrices only);
	// SpMVFused the fused multiply-accumulate products.
	SpMV, SpMVParallel, SpMVFused *obs.Counter
	// VecGets, VecPuts and VecAllocs describe the scratch-vector pool:
	// gets and puts are deterministic per solve; allocs additionally
	// counts gets that found no reusable buffer (sync.Pool eviction makes
	// this one nondeterministic).
	VecGets, VecPuts, VecAllocs *obs.Counter
	// WorkersBusy gauges how many persistent workers are currently
	// executing row chunks — the pool's instantaneous utilization.
	WorkersBusy *obs.Gauge
	// TaskWait observes, per dispatched product, the seconds between
	// enqueueing the task and the first worker picking it up.
	TaskWait *obs.Histogram
	// PartitionImbalance gauges the nnz-balance quality of the most
	// recently used row partition: max chunk weight over ideal chunk
	// weight (1.0 is perfectly balanced).
	PartitionImbalance *obs.Gauge
}

// PoolMetricsFrom resolves the pool metric handles from a registry; a
// nil registry yields all-nil handles (every record is a no-op).
func PoolMetricsFrom(reg *obs.Registry) PoolMetrics {
	if reg == nil {
		return PoolMetrics{}
	}
	return PoolMetrics{
		SpMV:               reg.Counter("sparse_pool_spmv_total"),
		SpMVParallel:       reg.Counter("sparse_pool_spmv_parallel_total"),
		SpMVFused:          reg.Counter("sparse_pool_spmv_fused_total"),
		VecGets:            reg.Counter("sparse_pool_vec_gets_total"),
		VecPuts:            reg.Counter("sparse_pool_vec_puts_total"),
		VecAllocs:          reg.Counter("sparse_pool_vec_allocs_total"),
		WorkersBusy:        reg.Gauge("sparse_pool_workers_busy"),
		TaskWait:           reg.Histogram("sparse_pool_task_wait_seconds"),
		PartitionImbalance: reg.Gauge("sparse_pool_partition_imbalance"),
	}
}

// parallelThreshold is the row count below which a product stays on the
// calling goroutine: the fork cost of a parallel dispatch only pays for
// itself once a product is a few hundred microseconds of work.
const parallelThreshold = 4096

// Pool executes parallel matrix-vector products over a set of
// long-lived worker goroutines and recycles iteration-scratch vectors.
// A zero-value Pool is not valid; use NewPool.
//
// Workers are started lazily on the first product large enough to
// parallelise and then persist — a product costs channel sends, not
// goroutine spawns. Close shuts the workers down; a closed pool remains
// usable but runs every product serially, so Close is always safe to
// call even with products still in flight (they complete on the calling
// goroutine). Pools that never see a large product never start a
// goroutine.
type Pool struct {
	workers int
	m       PoolMetrics
	vecs    sync.Pool // of *[]float64

	startOnce sync.Once
	tasks     chan *spmvJob
	quit      chan struct{}
	workerWG  sync.WaitGroup
	closed    atomic.Bool
}

// NewPool returns a Pool with the given parallelism; workers <= 0 selects
// runtime.NumCPU().
func NewPool(workers int) *Pool {
	return NewPoolObs(workers, nil)
}

// NewPoolObs is NewPool with an observability registry; the pool's SpMV
// and scratch-vector traffic is recorded there. A nil registry disables
// recording at no cost.
func NewPoolObs(workers int, reg *obs.Registry) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{workers: workers, m: PoolMetricsFrom(reg)}
}

var defaultPool = sync.OnceValue(func() *Pool { return NewPool(0) })

// DefaultPool returns the process-wide shared pool (NumCPU workers).
// Callers that need SpMV parallelism but own no pool — one-shot
// transient solves, tests, the deprecated free functions — share this
// instance instead of spawning worker sets per solve. It is never
// closed; close only pools you created.
func DefaultPool() *Pool { return defaultPool() }

// Workers reports the pool's parallelism.
func (p *Pool) Workers() int { return p.workers }

// Close shuts down the pool's persistent workers and waits for them to
// exit. Products already dispatched complete (their calling goroutines
// finish any chunks the workers abandoned), and later products run
// serially on the caller. Close is idempotent and safe to race with
// in-flight products.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		p.workerWG.Wait() // a concurrent first Close wins; wait with it
		return
	}
	// Consume the start slot so a racing product cannot spawn workers
	// after the quit broadcast; if start already ran this is a no-op and
	// quit is non-nil.
	p.startOnce.Do(func() {})
	if p.quit != nil {
		close(p.quit)
	}
	p.workerWG.Wait()
}

// start lazily spawns the worker goroutines. It reports whether the
// runtime is usable (false once the pool is closed).
func (p *Pool) start() bool {
	if p.closed.Load() {
		return false
	}
	p.startOnce.Do(func() {
		// The dispatching goroutine always participates in its own
		// product, so workers-1 persistent goroutines give `workers`
		// concurrent strands per product.
		n := p.workers - 1
		p.tasks = make(chan *spmvJob, 2*p.workers)
		p.quit = make(chan struct{})
		p.workerWG.Add(n)
		for i := 0; i < n; i++ {
			go p.worker()
		}
	})
	// Close may have raced the start; its quit broadcast is ordered
	// after the Do above, so the workers (if any) are already stopping
	// and the caller must run the product itself.
	return !p.closed.Load()
}

// worker is the body of one persistent pool goroutine: pick up a
// dispatched product, drain row chunks from its cursor, repeat.
func (p *Pool) worker() {
	defer p.workerWG.Done()
	for {
		select {
		case <-p.quit:
			return
		case j := <-p.tasks:
			j.observeWait(&p.m)
			p.m.WorkersBusy.Add(1)
			j.run()
			p.m.WorkersBusy.Add(-1)
		}
	}
}

// Kernel opcodes of a dispatched job.
const (
	opMul = iota
	opAccum
)

// spmvJob is one parallel product: an immutable task description plus a
// work-stealing cursor over the matrix's nnz-balanced row chunks.
// Workers and the dispatching caller all drain the cursor, so a
// straggling chunk never serialises the product and a closed pool
// degrades to the caller doing every chunk itself.
type spmvJob struct {
	op     uint8
	m      *CSR
	x, dst []float64
	acc    []float64 // opAccum
	w      float64   // opAccum
	bounds []int32   // row chunk boundaries, len = chunks+1
	lo, hi int       // the product's row range; chunks are clipped to it

	next    atomic.Int32
	pending sync.WaitGroup // one count per chunk

	enqueuedNanos int64 // 0 when task-wait recording is off
	waitObserved  atomic.Bool
}

// observeWait records the enqueue-to-pickup latency once per job.
func (j *spmvJob) observeWait(m *PoolMetrics) {
	if j.enqueuedNanos == 0 || j.waitObserved.Swap(true) {
		return
	}
	m.TaskWait.Observe(float64(time.Now().UnixNano()-j.enqueuedNanos) / 1e9)
}

// run drains row chunks from the job's cursor until none remain.
func (j *spmvJob) run() {
	nChunks := int32(len(j.bounds) - 1)
	for {
		i := j.next.Add(1) - 1
		if i >= nChunks {
			return
		}
		j.chunk(int(i))
		j.pending.Done()
	}
}

// chunk executes the job's kernel over one chunk, clipped to the
// product's row range.
func (j *spmvJob) chunk(i int) {
	m := j.m
	lo, hi := max(int(j.bounds[i]), j.lo), min(int(j.bounds[i+1]), j.hi)
	switch j.op {
	case opMul:
		m.mulRows(j.dst, j.x, lo, hi)
	case opAccum:
		m.mulAccumRows(j.dst, j.x, j.acc, j.w, lo, hi)
	}
}

// dispatch fans a job out over the persistent workers and participates
// until every chunk is done. It never blocks on the task channel: if
// the channel is full (or the workers are gone), the caller simply
// drains the cursor itself, so dispatch is deadlock-free even when it
// races Close.
func (p *Pool) dispatch(j *spmvJob) {
	chunks := len(j.bounds) - 1
	j.pending.Add(chunks)
	if p.start() {
		if p.m.TaskWait != nil {
			j.enqueuedNanos = time.Now().UnixNano()
		}
		// The caller takes chunks too, so at most chunks-1 workers can
		// contribute.
		announce := chunks - 1
		if announce > p.workers-1 {
			announce = p.workers - 1
		}
	announcing:
		for i := 0; i < announce; i++ {
			select {
			case p.tasks <- j:
			default:
				break announcing // workers saturated; keep the rest local
			}
		}
	}
	j.run()
	j.pending.Wait()
}

// parallel reports whether a product over rows [lo, hi) of m should be
// fanned out, and returns the row chunk boundaries to use if so: the
// chunks of the matrix's nnz-balanced partition that meet the range
// (the job clips the outer two to it). A range that meets one chunk
// only runs serially.
func (p *Pool) parallel(m *CSR, lo, hi int) ([]int32, bool) {
	if hi-lo < parallelThreshold || p.workers == 1 || p.closed.Load() {
		return nil, false
	}
	part := m.rowPartition(p.workers)
	p.m.PartitionImbalance.Set(part.imbalance)
	b := part.bounds
	chunks := len(b) - 1
	first := sort.Search(chunks, func(i int) bool { return int(b[i+1]) > lo })
	last := sort.Search(chunks, func(i int) bool { return int(b[i]) >= hi })
	if last-first < 2 {
		return nil, false
	}
	return b[first : last+1], true
}

// GetVec returns a length-n scratch vector, zeroed, reusing a previously
// Put buffer when one of sufficient capacity is available. Callers
// return it with PutVec when done; vectors that escape (results) must be
// allocated normally instead.
func (p *Pool) GetVec(n int) []float64 {
	p.m.VecGets.Add(1)
	if v, ok := p.vecs.Get().(*[]float64); ok && cap(*v) >= n {
		s := (*v)[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	p.m.VecAllocs.Add(1)
	return make([]float64, n)
}

// PutVec returns a scratch vector obtained from GetVec to the pool.
func (p *Pool) PutVec(v []float64) {
	if v == nil {
		return
	}
	p.m.VecPuts.Add(1)
	p.vecs.Put(&v)
}

// MulVec computes dst = m·x with rows partitioned across the pool's
// workers: MulVecRange over every row. dst and x must not alias.
func (p *Pool) MulVec(m *CSR, dst, x []float64) error {
	return p.MulVecRange(m, dst, x, 0, m.rows)
}

// MulVecRange computes dst[r] = m[r,:]·x for the rows r in [lo, hi),
// split across the pool's workers, and leaves every other entry of dst
// untouched. dst and x must not alias. The result is bit-identical to
// the serial CSR.MulVecRange: a chunk never ends mid-row.
func (p *Pool) MulVecRange(m *CSR, dst, x []float64, lo, hi int) error {
	if len(x) != m.cols || len(dst) != m.rows || !m.validRange(lo, hi) {
		return fmt.Errorf("sparse: parallel MulVec %dx%d rows [%d,%d) with |x|=%d |dst|=%d: %w",
			m.rows, m.cols, lo, hi, len(x), len(dst), ErrShape)
	}
	p.m.SpMV.Add(1)
	bounds, ok := p.parallel(m, lo, hi)
	if !ok {
		return m.MulVecRange(dst, x, lo, hi)
	}
	p.m.SpMVParallel.Add(1)
	p.dispatch(&spmvJob{op: opMul, m: m, x: x, dst: dst, bounds: bounds, lo: lo, hi: hi})
	check.FiniteVec("sparse.Pool.MulVec", dst[lo:hi])
	return nil
}

// MulVecAccum computes, for the rows r in [lo, hi), dst[r] = m[r,:]·x
// and, when w != 0, acc[r] += w·dst[r] in the same pass over the matrix
// — the fused kernel of the uniformisation inner loop, which otherwise
// pays a second sweep to fold each iterate into its accumulator. Rows
// outside the range are left untouched; pass [0, m.Rows()) for the full
// product. dst, x and acc must not alias. The result is bit-identical to
// MulVecRange followed by an element-wise acc[r] += w*dst[r] loop.
func (p *Pool) MulVecAccum(m *CSR, dst, x, acc []float64, w float64, lo, hi int) error {
	if len(x) != m.cols || len(dst) != m.rows || len(acc) != m.rows || !m.validRange(lo, hi) {
		return fmt.Errorf("sparse: MulVecAccum %dx%d rows [%d,%d) with |x|=%d |dst|=%d |acc|=%d: %w",
			m.rows, m.cols, lo, hi, len(x), len(dst), len(acc), ErrShape)
	}
	p.m.SpMV.Add(1)
	p.m.SpMVFused.Add(1)
	bounds, ok := p.parallel(m, lo, hi)
	if !ok {
		return m.MulVecAccum(dst, x, acc, w, lo, hi)
	}
	p.m.SpMVParallel.Add(1)
	p.dispatch(&spmvJob{op: opAccum, m: m, x: x, dst: dst, acc: acc, w: w, bounds: bounds, lo: lo, hi: hi})
	check.FiniteVec("sparse.Pool.MulVecAccum", dst[lo:hi])
	return nil
}
