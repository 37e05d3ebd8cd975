// Package runner executes sets of experiment drivers concurrently on a
// bounded worker pool. The paper's evaluation (§VI) is a matrix of
// mutually independent policy × workload × scheme runs; every driver is
// deterministic in its Params and shares no mutable state with any
// other, so the only observable difference between a sequential and a
// parallel sweep is wall-clock time. The runner preserves that
// guarantee structurally: results come back in the caller's ID order
// regardless of completion order, and each result carries its own
// wall-clock timing.
package runner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/shard"
)

// Result is one experiment's outcome.
type Result struct {
	// ID is the registry ID the driver was looked up under.
	ID string
	// Table is the rendered-ready result (nil when Err is set or the
	// run was cancelled before this experiment started).
	Table *experiments.Table
	// Elapsed is the driver's wall-clock time (zero if never started).
	Elapsed time.Duration
	// Err is the driver's error, or the context's error for
	// experiments cancelled before they started.
	Err error
}

// Run executes the drivers for ids on at most jobs concurrent workers
// (jobs <= 0 means GOMAXPROCS; jobs == 1 is strictly sequential in ID
// order, the historical cmd/reproduce behaviour). Unknown IDs fail
// before any driver starts. The first driver error cancels the pool:
// running drivers finish (they are not preemptible), queued ones are
// abandoned with the cancellation error. The returned slice always has
// one entry per requested ID, in the requested order; the error is the
// first failure in ID order, or ctx's error, or nil.
func Run(ctx context.Context, ids []string, p experiments.Params, jobs int) ([]Result, error) {
	drivers := make([]experiments.Driver, len(ids))
	for i, id := range ids {
		d, err := experiments.Lookup(id)
		if err != nil {
			return nil, err
		}
		drivers[i] = d
	}
	return RunDrivers(ctx, ids, drivers, p, jobs)
}

// RunDrivers is Run for callers that already hold the drivers (or
// substitute ones — tests inject failing and blocking drivers here):
// drivers[i] runs under the label ids[i], with the same pool, ordering,
// cancellation, and error-reporting contract as Run.
func RunDrivers(ctx context.Context, ids []string, drivers []experiments.Driver, p experiments.Params, jobs int) ([]Result, error) {
	if len(ids) != len(drivers) {
		return nil, fmt.Errorf("runner: %d ids but %d drivers", len(ids), len(drivers))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Failures live in results, not Each's return: every index runs so
	// that each ID gets a result slot, and the report below picks which
	// error to surface.
	results := make([]Result, len(ids))
	_ = shard.Each(len(ids), jobs, func(i int) error {
		if err := ctx.Err(); err != nil {
			results[i] = Result{ID: ids[i], Err: err}
			return nil
		}
		start := time.Now()
		tab, err := drivers[i](p)
		results[i] = Result{ID: ids[i], Table: tab, Elapsed: time.Since(start), Err: err}
		if err != nil {
			cancel()
		}
		return nil
	})

	// Report a real driver failure over the cancellation noise it
	// caused in experiments abandoned behind it.
	var firstErr error
	for i := range results {
		err := results[i].Err
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return results, fmt.Errorf("%s: %w", results[i].ID, err)
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", results[i].ID, err)
		}
	}
	return results, firstErr
}
