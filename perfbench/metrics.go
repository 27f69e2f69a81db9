package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; TestMetricCatalogueMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit, doc string
	higher          bool // a larger value is better
}

func lower(name, unit, doc string) metricDef  { return metricDef{name: name, unit: unit, doc: doc} }
func higher(name, unit, doc string) metricDef { return metricDef{name, unit, doc, true} }

// endToEnd are the untraced metrics. Every workload reports each of
// them for its own unit of work: a pass over the ladder, one Sweep, or
// one POST /v1/solve.
var endToEnd = []metricDef{
	lower("setup_s", "s", "median time from process or daemon start until the first operation can start"),
	lower("op_p50_ms", "ms", "median operation wall time (cold-ladder: one pass; sweep-grid: one Sweep; daemon-mix: one request)"),
	higher("ops_per_s", "1/s", "operations completed per second of measured time"),
	lower("peak_rss_mb", "MB", "peak resident memory of the process doing the work"),
}

// rungNames are the cold-ladder rungs that get per-rung metrics.
var rungNames = []string{"fig8-d100", "fig8-d50", "fig7-c1-d5", "fig10-d2mah", "fig11-burst-d5mah"}

// perLayer are the traced-run metrics. A workload that does not
// exercise a layer reports its metrics as 0 and the text report marks
// them n/a.
var perLayer = func() []metricDef {
	defs := []metricDef{
		lower("trace.overhead_pct", "pct", "traced minus untraced operation time, as a share of untraced"),
		higher("trace.spans", "count", "spans recorded by the traced run"),
		lower("check.failed_frac", "ratio", "answer checks failed / attempted"),
		lower("ctmc.loop_ms", "ms", "Expanded.LifetimeCDFOpts time per operation"),
		lower("ctmc.loop_share_pct", "pct", "ctmc.loop_ms as a share of the traced rung spans that contain it"),
		lower("ctmc.ns_per_nnz_iter", "ns", "loop time per non-zero per uniformisation iteration"),
		lower("ctmc.iterations", "count", "uniformisation iterations per operation"),
		lower("ctmc.iters_per_qt", "ratio", "iterations / (q * largest t), summed over solves"),
		lower("ctmc.spmv", "count", "sparse matrix-vector products per operation"),
		lower("ctmc.operator_ms", "ms", "Expanded.Operator time per operation"),
		lower("core.states", "count", "states of the expanded chains built per operation"),
		lower("core.nnz", "count", "generator non-zeros of the chains built per operation"),
		lower("core.build_ms", "ms", "core.Build time per operation"),
		lower("solve.alloc_mb", "MB", "MemStats.TotalAlloc growth per untraced operation"),
		lower("engine.fingerprint_us", "us", "engine.Fingerprint time per operation"),
		higher("engine.hits", "count", "model-cache hits per operation"),
		lower("engine.misses", "count", "model-cache misses (builds) per operation"),
		lower("engine.evictions", "count", "model-cache evictions per operation"),
		higher("engine.hit_ratio", "ratio", "hits / (hits + misses)"),
		higher("solver.memo_hits", "count", "result-memo hits per operation"),
		higher("solver.memo_ratio", "ratio", "memo hits / solver solves"),
		lower("foxglynn.weights_ms", "ms", "foxglynn.Compute(q*t, eps) over every time point, per operation"),
		lower("foxglynn.window", "count", "Fox-Glynn window width at the largest t, summed over solves"),
		lower("sparse.spmv_ns_per_nnz", "ns", "Pool.MulVec time per non-zero on the expanded generators"),
		lower("sparse.spmv_ns_per_nnz_serial", "ns", "CSR.MulVec time per non-zero on the same matrices"),
		lower("sparse.bytes_per_spmv_computed", "bytes", "bytes one product reads and writes, computed from array sizes, summed over models"),
		lower("sweep.groups", "count", "shared-model groups in the scenario list"),
		lower("sweep.builds", "count", "expanded chains built per Sweep"),
		lower("sweep.queue_wait_ms", "ms", "scenario queue wait inside Sweep, highest supported percentile"),
		lower("api.decode_us", "us", "in-process decode + Validate + Fingerprint of one request body, median"),
		lower("http.replay_us", "us", "median latency of replay requests"),
		lower("http.memo_us", "us", "median latency of memo requests"),
		lower("http.invalid_us", "us", "median latency of invalid requests"),
		lower("http.warm_ms", "ms", "median latency of warm requests"),
		lower("http.cold_ms", "ms", "median latency of cold requests"),
		lower("http.mean_ms", "ms", "median latency of mean requests"),
		lower("http.exact_ms", "ms", "median latency of exact requests"),
		lower("http.tail_ms", "ms", "request latency at the highest percentile with >= 10 samples beyond it"),
		lower("http.tail_pct", "pct", "the percentile http.tail_ms reports"),
		higher("http.requests", "count", "requests completed in the traced run"),
		lower("service.queue_wait_ms", "ms", "daemon queue wait at the highest supported percentile"),
		higher("service.coalesced", "count", "requests coalesced onto an existing job"),
		lower("service.rejected", "count", "requests refused by admission control"),
		lower("daemon.cpu_ms_per_req", "ms", "daemon user+system CPU time per request"),
	}
	for _, r := range rungNames {
		defs = append(defs,
			lower("core.states."+r, "count", "expanded states of rung "+r),
			lower("core.nnz."+r, "count", "generator non-zeros of rung "+r),
			lower("ctmc.loop_ms."+r, "ms", "transient loop time of rung "+r),
			lower("ctmc.ns_per_nnz_iter."+r, "ns", "loop time per non-zero per iteration of rung "+r))
	}
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome collects what a workload measured and checked.
type outcome struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	failures  []string
}

func newOutcome() *outcome {
	return &outcome{values: make(map[string]float64), notes: make(map[string]string)}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(name, format string, args ...any) {
	o.notes[name] = fmt.Sprintf(format, args...)
}

// check counts one answer check; a non-empty why is a failure.
func (o *outcome) check(what, why string) {
	o.attempted++
	if why != "" {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, what+": "+why)
		}
	}
}

// finish writes the text report and returns the result line for the
// given metric set. Metrics the workload did not measure are 0.
func (o *outcome) finish(w io.Writer, defs []metricDef) report {
	rep := report{
		Correct:   o.failed == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	fmt.Fprintf(w, "# checks: %d attempted, %d failed\n", o.attempted, o.failed)
	for _, d := range defs {
		v, ok := o.values[d.name]
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		switch {
		case !ok:
			fmt.Fprintf(w, "%-34s %16s %-6s (not exercised by this workload)\n", d.name, "n/a", d.unit)
		case o.notes[d.name] != "":
			fmt.Fprintf(w, "%-34s %16.6g %-6s %s\n", d.name, v, d.unit, o.notes[d.name])
		default:
			fmt.Fprintf(w, "%-34s %16.6g %-6s\n", d.name, v, d.unit)
		}
	}
	return rep
}

func (r report) write(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the percentiles a tail is reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailPercentiles that has at
// least ten samples beyond it, and its value; ok is false when even the
// median has fewer.
func tail(xs []float64) (pct, value float64, ok bool) {
	for _, p := range tailPercentiles {
		if supports(float64(len(xs)), p) {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

// supports reports whether n samples leave at least ten beyond the p-th
// percentile (with slack for the rounding of 100 − p).
func supports(n, p float64) bool { return n*(100-p) >= 1000-1e-6 }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// selfPeakRSSMB returns this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
