package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"batlife"
	"batlife/internal/api"
)

// Service-level sentinels, completing the solver's taxonomy
// (batlife.ErrBadArgument, batlife.ErrIterationLimit) with the failure
// classes only a daemon has. Every error leaving a handler matches
// exactly one sentinel class; classify is the single mapping from the
// taxonomy to HTTP statuses and wire codes.
var (
	// ErrOverloaded reports that admission failed: run and queue
	// capacity are both exhausted. Clients should retry with backoff.
	ErrOverloaded = errors.New("service: overloaded, retry later")
	// ErrDraining reports that the service is shutting down and no
	// longer admits work.
	ErrDraining = errors.New("service: draining, not admitting work")
	// ErrNotFound reports an unknown (or retention-evicted) job ID.
	ErrNotFound = errors.New("service: no such job")
)

// errInternal marks failures with no better class; classify maps it —
// and any unrecognised error — to 500.
var errInternal = errors.New("service: internal error")

func errInternalf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errInternal}, args...)...)
}

// statusClientGone is nginx's non-standard 499 "client closed request":
// the caller abandoned the request, so no one reads the response, but
// job-store replays still need an honest terminal class.
const statusClientGone = 499

// classify maps an error onto its HTTP status and stable wire code.
// The order encodes precedence: argument errors are client mistakes
// even when wrapped in context errors, and the service sentinels are
// checked before the context classes because an overloaded rejection
// happens while the caller's context is still live.
func classify(err error) (status int, code string) {
	switch {
	case err == nil:
		return http.StatusOK, ""
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge, "request_too_large"
	case errors.Is(err, batlife.ErrBadArgument):
		return http.StatusBadRequest, "bad_argument"
	case errors.Is(err, batlife.ErrIterationLimit):
		return http.StatusUnprocessableEntity, "iteration_limit"
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return statusClientGone, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// toAPIError renders an error as its wire form.
func toAPIError(err error) *api.Error {
	_, code := classify(err)
	return &api.Error{Code: code, Message: err.Error()}
}
