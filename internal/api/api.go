// Package api defines the versioned wire schema of the batlifed solve
// service — the request, response and job types exchanged over
// HTTP/JSON. The same types back the server (internal/service) and any
// CLI or client tooling, so there is exactly one wire schema; the model
// payloads themselves (battery, workload, analysis options) are encoded
// by the public batlife codec (see batlife.CodecVersion), making a
// request body a plain composition of already-versioned documents.
//
// All request validation normalises onto batlife.ErrBadArgument so the
// service can map failures to HTTP statuses with one rule.
package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"batlife"
)

// Version is the URL prefix of the wire schema ("/v1/...").
const Version = "v1"

// Analysis kinds accepted by SolveRequest.
const (
	// AnalysisCDF is the Markovian approximation of the lifetime CDF
	// (the default).
	AnalysisCDF = "cdf"
	// AnalysisExact is the exact transform-domain CDF; it requires
	// AvailableFraction = 1 and ignores Options.Delta.
	AnalysisExact = "exact"
	// AnalysisMean is the expected lifetime E[L] via the absorption-time
	// equations; it needs no time grid.
	AnalysisMean = "mean"
)

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Analysis selects the method: "cdf" (default), "exact" or "mean".
	Analysis string `json:"analysis,omitempty"`
	// Battery and Workload define the model, in the batlife v1 codec.
	Battery  batlife.Battery   `json:"battery"`
	Workload *batlife.Workload `json:"workload"`
	// Times are the evaluation points in seconds, ascending. Required
	// for "cdf" and "exact"; ignored by "mean".
	Times []float64 `json:"times,omitempty"`
	// Options carries the numerical knobs (delta, epsilon, iteration
	// budget) in the batlife v1 codec.
	Options batlife.AnalysisOptions `json:"options,omitempty"`
	// TimeoutSeconds bounds the solve; 0 selects the server default.
	// The server clamps it to its configured maximum.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// Validate checks the request shape; failures match
// batlife.ErrBadArgument. Model-level validation (battery constants,
// workload structure) already happened during decoding.
func (r *SolveRequest) Validate() error {
	switch r.Analysis {
	case "", AnalysisCDF, AnalysisExact, AnalysisMean:
	default:
		return fmt.Errorf("%w: unknown analysis %q (want %s, %s or %s)",
			batlife.ErrBadArgument, r.Analysis, AnalysisCDF, AnalysisExact, AnalysisMean)
	}
	if err := r.Battery.Validate(); err != nil {
		return fmt.Errorf("battery: %w", err)
	}
	if r.Workload == nil {
		return fmt.Errorf("%w: missing workload", batlife.ErrBadArgument)
	}
	if r.Analysis != AnalysisMean && len(r.Times) == 0 {
		return fmt.Errorf("%w: missing times", batlife.ErrBadArgument)
	}
	if err := validTimeout(r.TimeoutSeconds); err != nil {
		return err
	}
	return validTimes(r.Times)
}

// validTimes rejects non-finite, negative or descending time grids.
func validTimes(times []float64) error {
	prev := math.Inf(-1)
	for i, t := range times {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("%w: times[%d] = %v", batlife.ErrBadArgument, i, t)
		}
		if t < prev {
			return fmt.Errorf("%w: times[%d] = %v not ascending", batlife.ErrBadArgument, i, t)
		}
		prev = t
	}
	return nil
}

// SweepScenario is one cell of a sweep grid, mirroring
// batlife.Scenario on the wire.
type SweepScenario struct {
	Name     string            `json:"name,omitempty"`
	Battery  batlife.Battery   `json:"battery"`
	Workload *batlife.Workload `json:"workload"`
	// DeltaAs is the discretisation step in ampere-seconds.
	DeltaAs float64   `json:"delta_as"`
	Times   []float64 `json:"times"`
}

// SweepRequest is the body of POST /v1/sweep.
type SweepRequest struct {
	Scenarios []SweepScenario `json:"scenarios"`
	// Workers bounds scenario-level parallelism; 0 selects the server
	// default (the server additionally clamps to its own limit).
	Workers int `json:"workers,omitempty"`
	// Epsilon and MaxIterations apply to every scenario.
	Epsilon       float64 `json:"epsilon,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`
	// TimeoutSeconds bounds the whole sweep; 0 selects the server
	// default.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// Validate checks the request shape; failures match
// batlife.ErrBadArgument.
func (r *SweepRequest) Validate() error {
	if len(r.Scenarios) == 0 {
		return fmt.Errorf("%w: no scenarios", batlife.ErrBadArgument)
	}
	for i, sc := range r.Scenarios {
		if err := sc.Battery.Validate(); err != nil {
			return fmt.Errorf("scenario %d: battery: %w", i, err)
		}
		if sc.Workload == nil {
			return fmt.Errorf("%w: scenario %d: missing workload", batlife.ErrBadArgument, i)
		}
		if sc.DeltaAs <= 0 || math.IsNaN(sc.DeltaAs) || math.IsInf(sc.DeltaAs, 0) {
			return fmt.Errorf("%w: scenario %d: delta_as %v", batlife.ErrBadArgument, i, sc.DeltaAs)
		}
		if len(sc.Times) == 0 {
			return fmt.Errorf("%w: scenario %d: missing times", batlife.ErrBadArgument, i)
		}
		if err := validTimes(sc.Times); err != nil {
			return fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	if r.Workers < 0 {
		return fmt.Errorf("%w: workers %d", batlife.ErrBadArgument, r.Workers)
	}
	if r.Epsilon < 0 || r.Epsilon >= 1 || math.IsNaN(r.Epsilon) {
		return fmt.Errorf("%w: epsilon %v", batlife.ErrBadArgument, r.Epsilon)
	}
	if r.MaxIterations < 0 {
		return fmt.Errorf("%w: max_iterations %d", batlife.ErrBadArgument, r.MaxIterations)
	}
	return validTimeout(r.TimeoutSeconds)
}

// validTimeout rejects negative or non-finite timeout values; 0 selects
// the server default.
func validTimeout(seconds float64) error {
	if seconds < 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return fmt.Errorf("%w: timeout_seconds %v", batlife.ErrBadArgument, seconds)
	}
	return nil
}

// SolveResult is the outcome of one analysis. For "cdf" and "exact" the
// distribution fields are set; for "mean" only MeanSeconds.
type SolveResult struct {
	Times           []float64 `json:"times,omitempty"`
	EmptyProb       []float64 `json:"empty_prob,omitempty"`
	States          int       `json:"states,omitempty"`
	ReachableStates int       `json:"reachable_states,omitempty"`
	Transitions     int       `json:"transitions,omitempty"`
	Iterations      int       `json:"iterations,omitempty"`
	MeanSeconds     *float64  `json:"mean_seconds,omitempty"`
}

// DistributionResult converts a computed distribution to its wire form.
func DistributionResult(d *batlife.Distribution) *SolveResult {
	return &SolveResult{
		Times:           d.Times,
		EmptyProb:       d.EmptyProb,
		States:          d.States,
		ReachableStates: d.ReachableStates,
		Transitions:     d.Transitions,
		Iterations:      d.Iterations,
	}
}

// SolveResponse is the body of a successful POST /v1/solve.
type SolveResponse struct {
	// JobID is the content-addressed job identity; GET /v1/jobs/{id}
	// replays the outcome while the job is retained.
	JobID string `json:"job_id"`
	// Coalesced reports that this response was served by attaching to
	// an identical in-flight or retained job instead of a new solve.
	Coalesced bool         `json:"coalesced,omitempty"`
	Result    *SolveResult `json:"result"`
}

// SweepItemResult is the outcome of one sweep scenario, in input order.
type SweepItemResult struct {
	Index  int          `json:"index"`
	Name   string       `json:"name,omitempty"`
	Result *SolveResult `json:"result,omitempty"`
	Error  *Error       `json:"error,omitempty"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	JobID     string            `json:"job_id"`
	Coalesced bool              `json:"coalesced,omitempty"`
	Results   []SweepItemResult `json:"results"`
}

// Job states reported by GET /v1/jobs/{id}.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"` // "solve" or "sweep"
	State string `json:"state"`
	// Done and Total report sweep progress (scenarios completed); both
	// are zero for solve jobs until completion.
	Done  int64 `json:"done,omitempty"`
	Total int64 `json:"total,omitempty"`
	// Result holds the marshalled SolveResponse/SweepResponse once the
	// job is done.
	Result json.RawMessage `json:"result,omitempty"`
	Error  *Error          `json:"error,omitempty"`
	// TraceID is the trace identity of the request that started the
	// job (empty without telemetry); the same ID appears in the
	// X-Batlife-Trace-Id response header and /debug/traces.
	TraceID string `json:"trace_id,omitempty"`
	// Trace holds the job's completed span trees (an array of
	// obs.TraceTree) when requested with GET /v1/jobs/{id}?trace=1.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// ProgressEvent is one line of the NDJSON stream served by
// POST /v1/sweep?stream=1: progress ticks followed by a final result or
// error event.
type ProgressEvent struct {
	Type   string          `json:"type"` // "progress", "result" or "error"
	Done   int64           `json:"done,omitempty"`
	Total  int64           `json:"total,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *Error          `json:"error,omitempty"`
}

// Error is the wire form of a failure, nested under "error" in every
// non-2xx response body.
type Error struct {
	// Code is a stable, machine-matchable class: bad_argument,
	// request_too_large, iteration_limit, deadline_exceeded, canceled,
	// overloaded, draining, not_found, internal.
	Code string `json:"code"`
	// Message is the human-readable cause.
	Message string `json:"message"`
}

// ErrorResponse is the top-level body of every non-2xx response.
type ErrorResponse struct {
	Error *Error `json:"error"`
}

// Fingerprint returns the content-addressed job identity of a solve
// request: a digest of its canonical (re-marshalled) form, so
// formatting differences and field order do not split identical
// requests. Identical concurrent requests coalesce onto one job.
func (r *SolveRequest) Fingerprint() (string, error) {
	return fingerprint("solve", "s", r)
}

// Fingerprint returns the content-addressed job identity of a sweep
// request.
func (r *SweepRequest) Fingerprint() (string, error) {
	return fingerprint("sweep", "w", r)
}

func fingerprint(kind, prefix string, v any) (string, error) {
	canon, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("api: fingerprint: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(canon)
	sum := h.Sum(nil)
	return prefix + "-" + hex.EncodeToString(sum[:12]), nil
}
