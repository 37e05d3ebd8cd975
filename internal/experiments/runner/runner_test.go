package runner

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// testParams keeps the determinism sweep fast: a reduced but
// representative stream and settle window, identical for both runs.
func testParams() experiments.Params {
	return experiments.Params{StreamLen: 100_000, SettleEpochs: 100, Seed: 1}
}

// render flattens a result set to the bytes cmd/reproduce would print
// (tables only — timing lines are wall-clock and excluded on purpose).
func render(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		r.Table.Render(&buf)
	}
	return buf.Bytes()
}

// TestParallelMatchesSequential is the determinism gate of the issue:
// a parallel sweep must produce byte-identical tables, in identical
// order, to a strictly sequential one. The ID set mixes contiguity,
// translation, and ablation drivers, including the two whose knobs
// (offset budget, eager rotor) used to be package globals.
func TestParallelMatchesSequential(t *testing.T) {
	ids := []string{
		"fig9", "fig10", "table5", "ablation-placement",
		"ablation-offsets", "fig14", "extra-5level",
	}
	p := testParams()
	seq, err := Run(context.Background(), ids, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), ids, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	seqOut, parOut := render(t, seq), render(t, par)
	if !bytes.Equal(seqOut, parOut) {
		t.Fatalf("parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqOut, parOut)
	}
	for i, r := range par {
		if r.ID != ids[i] {
			t.Fatalf("result %d is %q, want %q (registry order lost)", i, r.ID, ids[i])
		}
		if r.Elapsed <= 0 {
			t.Fatalf("%s: missing wall-clock timing", r.ID)
		}
	}
}

// TestRepeatedRunsIdentical guards against hidden shared state *within*
// one driver set: running the same sweep twice in one process must not
// drift (the old eager rotor global accumulated across runs). fig1b is
// included because its reclaim path once freed page-cache frames in map
// order, scrambling the buddy lists differently every run.
func TestRepeatedRunsIdentical(t *testing.T) {
	ids := []string{"fig10", "table5", "fig1b"}
	p := testParams()
	first, err := Run(context.Background(), ids, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(context.Background(), ids, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(t, first), render(t, second); !bytes.Equal(a, b) {
		t.Fatalf("same Params drifted between runs:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

func TestUnknownIDFailsFast(t *testing.T) {
	t.Parallel()
	if _, err := Run(context.Background(), []string{"fig9", "nope"}, testParams(), 2); err == nil {
		t.Fatal("unknown id should fail before any driver runs")
	}
}

func TestCancelledContext(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := Run(ctx, []string{"fig9", "fig10"}, testParams(), 2)
	if err == nil {
		t.Fatal("cancelled context should surface an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 2 {
		t.Fatalf("want one result slot per id, got %d", len(results))
	}
}

func TestDefaultJobs(t *testing.T) {
	t.Parallel()
	// jobs <= 0 must resolve to a sane pool, not hang or panic.
	results, err := Run(context.Background(), []string{"ablation-placement"}, testParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Table == nil || results[0].Elapsed <= 0 {
		t.Fatal("driver did not run")
	}
}

// reducedParams shrinks the sweep further for the fig8 jobs gate
// below: the whole fragmentation grid runs twice under -race, so the
// stream and settle window are cut to keep the suite fast while still
// exercising its population and measurement paths.
func reducedParams() experiments.Params {
	return experiments.Params{StreamLen: 30_000, SettleEpochs: 40, Seed: 1}
}

// TestFig8JobsInvariance pins the fan-out of the fragmentation sweep:
// the (pressure, policy, workload) grid runs cell-per-worker now, and
// the geomean rows assembled from the cells must be byte-identical at
// any parallelism level.
func TestFig8JobsInvariance(t *testing.T) {
	ids := []string{"fig8"}
	p := reducedParams()
	p.Jobs = 1
	seq, err := Run(context.Background(), ids, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Jobs = 8
	par, err := Run(context.Background(), ids, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := render(t, seq), render(t, par); !bytes.Equal(a, b) {
		t.Fatalf("fig8 output depends on Jobs:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", a, b)
	}
}

// TestFirstErrorCancelsPool is the error-path counterpart of the
// determinism tests: one driver fails, and the pool must (a) report
// that real error rather than the cancellation noise behind it, (b)
// abandon every queued driver without starting it, and (c) leak no
// goroutines. A second in-flight driver is gated so it provably
// overlaps the failure.
func TestFirstErrorCancelsPool(t *testing.T) {
	baseline := runtime.NumGoroutine()
	errBoom := errors.New("boom")
	failed := make(chan struct{})
	var started atomic.Int32

	fail := func(experiments.Params) (*experiments.Table, error) {
		started.Add(1)
		close(failed)
		return nil, errBoom
	}
	gated := func(experiments.Params) (*experiments.Table, error) {
		started.Add(1)
		<-failed // hold this worker until the failure has happened
		return &experiments.Table{}, nil
	}
	queued := func(experiments.Params) (*experiments.Table, error) {
		started.Add(1)
		return &experiments.Table{}, nil
	}

	ids := []string{"gated", "fail", "q1", "q2", "q3", "q4"}
	drivers := []experiments.Driver{gated, fail, queued, queued, queued, queued}
	results, err := RunDrivers(context.Background(), ids, drivers, experiments.Params{}, 2)
	if !errors.Is(err, errBoom) {
		t.Fatalf("pool error = %v, want the driver's own error", err)
	}
	if err == nil || !strings.Contains(err.Error(), "fail") {
		t.Fatalf("pool error %q does not name the failing experiment", err)
	}
	if n := started.Load(); n != 2 {
		t.Fatalf("%d drivers started, want exactly the 2 in flight at failure time", n)
	}
	if len(results) != len(ids) {
		t.Fatalf("%d results for %d ids", len(results), len(ids))
	}
	if results[0].Err != nil || results[0].Table == nil {
		t.Fatalf("in-flight driver result corrupted: %+v", results[0])
	}
	if !errors.Is(results[1].Err, errBoom) {
		t.Fatalf("failing driver result = %+v, want errBoom", results[1])
	}
	for _, r := range results[2:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("queued %s: err = %v, want context.Canceled", r.ID, r.Err)
		}
		if r.Table != nil || r.Elapsed != 0 {
			t.Fatalf("queued %s ran anyway: %+v", r.ID, r)
		}
	}

	// Worker goroutines must be gone. No third-party leak detector in
	// this module, so poll the counter back to (near) baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunDriversLengthMismatch pins the ids/drivers contract.
func TestRunDriversLengthMismatch(t *testing.T) {
	_, err := RunDrivers(context.Background(), []string{"a", "b"}, []experiments.Driver{nil}, experiments.Params{}, 1)
	if err == nil {
		t.Fatal("mismatched ids/drivers accepted")
	}
}
