package core

import (
	"context"
	"errors"
	"fmt"
)

// Typed error taxonomy for query termination. Every way a query can stop
// short of success maps to exactly one sentinel, and every concrete error the
// scheduler returns matches its sentinel through errors.Is, so callers (the
// serving layer above all) branch on identity instead of parsing message
// strings:
//
//	res, err := session.Submit(req)
//	switch {
//	case errors.Is(err, session.ErrAdmissionRejected): // shed before running
//	case errors.Is(err, core.ErrQueryCancelled):       // caller cancelled
//	case errors.Is(err, core.ErrDeadlineExceeded):     // query deadline
//	case errors.Is(err, core.ErrMemoryBudget):         // cannot fit the budget
//	}
//
// The concrete wrappers keep their full cause chains, so the pre-existing
// checks (errors.Is(err, context.Canceled)) continue to hold alongside the
// sentinels.
var (
	// ErrQueryCancelled marks a query terminated by caller cancellation
	// (context cancellation, session shutdown).
	ErrQueryCancelled = errors.New("query cancelled")
	// ErrDeadlineExceeded marks a query terminated by its run context's
	// deadline.
	ErrDeadlineExceeded = errors.New("deadline exceeded")
	// ErrMemoryBudget marks a query that cannot be run within the
	// configured memory budget (admission-time rejection of an estimate
	// that exceeds the global budget).
	ErrMemoryBudget = errors.New("memory budget exceeded")
)

// CancelError is the scheduler's run-termination error for a canceled or
// timed-out run context. It replaces the former ad-hoc
// fmt.Errorf("core: run canceled: %w", ...) string: the cause chain is
// preserved (errors.Is against context.Canceled / context.DeadlineExceeded
// still holds), and the error additionally matches the typed taxonomy —
// ErrDeadlineExceeded when the context died of its deadline,
// ErrQueryCancelled otherwise.
type CancelError struct {
	// Cause is the context error (or an error wrapping it) that killed the
	// run.
	Cause error
}

// Error implements error.
func (e *CancelError) Error() string {
	return fmt.Sprintf("core: run canceled: %v", e.Cause)
}

// Unwrap exposes the context error, keeping errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) intact.
func (e *CancelError) Unwrap() error { return e.Cause }

// Is maps the cancellation onto the typed taxonomy.
func (e *CancelError) Is(target error) bool {
	switch target {
	case ErrDeadlineExceeded:
		return errors.Is(e.Cause, context.DeadlineExceeded)
	case ErrQueryCancelled:
		return !errors.Is(e.Cause, context.DeadlineExceeded)
	}
	return false
}

// wrapCancel converts a fatal run error into its typed form: context errors
// (and errors wrapping them) become CancelError; everything else is returned
// unchanged.
func wrapCancel(err error) error {
	if err == nil {
		return nil
	}
	var ce *CancelError
	if errors.As(err, &ce) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &CancelError{Cause: err}
	}
	return err
}
