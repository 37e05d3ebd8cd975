package shard_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/shard"
	"repro/internal/workloads"
)

// goroutineEach is the fork-join the team replaced: one goroutine per
// worker, spawned per call. It is the reference the team must match.
func goroutineEach(n, jobs int, fn func(i int) error) error {
	jobs = min(shard.Workers(jobs), n)
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// outcome runs one fan-out over n indices, the ones in fail returning
// an error naming them, and reports the error and which indices ran.
func outcome(each func(n int, fn func(i int) error) error, n int, fail map[int]bool) string {
	ran := make([]bool, n)
	err := each(n, func(i int) error {
		ran[i] = true
		if fail[i] {
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	return fmt.Sprintf("err=%v ran=%v", err, ran)
}

// TestTeamMatchesGoroutineEach checks the team against the fork-join
// it replaced, at one worker, two, and GOMAXPROCS: the same error (the
// lowest failing index) and the same indices run (all of them, or with
// one worker exactly those up to the first failure). It covers the
// one-shot Each, a persistent Team reused across calls, and a Set.
func TestTeamMatchesGoroutineEach(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, jobs := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		team := shard.NewTeam(jobs)
		set := newSet(t, 3, jobs)
		fanouts := map[string]func(n int, fn func(i int) error) error{
			"Each": func(n int, fn func(i int) error) error { return shard.Each(n, jobs, fn) },
			"Team": team.Run,
			"Set":  set.Each,
		}
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(9)
			fail := map[int]bool{}
			for i := 0; i < n; i++ {
				fail[i] = rng.Intn(4) == 0
			}
			want := outcome(func(n int, fn func(i int) error) error { return goroutineEach(n, jobs, fn) }, n, fail)
			for name, each := range fanouts {
				if got := outcome(each, n, fail); got != want {
					t.Fatalf("jobs=%d %s n=%d fail=%v: %s, want %s", jobs, name, n, fail, got, want)
				}
			}
		}
		team.Close()
		set.Close()
	}
}

// TestTeamBackToBackRuns hammers one persistent team with 10,000 Runs
// of varying size. Each index writes only its own slot of the call's
// output, and every slot must hold its call's id. Under -race this
// catches a task record reused while a helper still reads it.
func TestTeamBackToBackRuns(t *testing.T) {
	for _, jobs := range []int{2, runtime.GOMAXPROCS(0)} {
		team := shard.NewTeam(jobs)
		out := make([]int, 8)
		for call := 1; call <= 10000; call++ {
			n := call % len(out)
			if err := team.Run(n, func(i int) error {
				out[i] = call
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if out[i] != call {
					t.Fatalf("jobs=%d call %d: index %d holds %d", jobs, call, i, out[i])
				}
			}
		}
		team.Close()
	}
}

// TestTeamRestartsAfterClose pins the lifecycle: a closed team starts
// fresh helpers on its next Run, and Close on an idle team is a no-op.
func TestTeamRestartsAfterClose(t *testing.T) {
	team := shard.NewTeam(3)
	team.Close()
	for round := 0; round < 3; round++ {
		var sum atomic.Int64
		if err := team.Run(10, func(i int) error {
			sum.Add(int64(i))
			return nil
		}); err != nil || sum.Load() != 45 {
			t.Fatalf("round %d: err %v, sum %d, want nil and 45", round, err, sum.Load())
		}
		team.Close()
	}
}

// settleGoroutines waits for the goroutine count to fall to at most
// base, failing with a dump of the survivors if it does not.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// newSet builds a Set over a three-zone machine with one shard per
// zone and a team of jobs workers.
func newSet(t *testing.T, shards, jobs int) *shard.Set {
	t.Helper()
	sys, err := core.NewNativeSystem(core.Config{ZonesMiB: []int{64, 64, 64}, Policy: "thp"})
	if err != nil {
		t.Fatal(err)
	}
	return shard.New(sys.Kernel, shards, jobs, func(view *zone.Machine, _ int) (*osim.Kernel, []workloads.Daemon) {
		k, ds, err := core.NewKernel(view, "thp")
		if err != nil {
			t.Fatal(err)
		}
		return k, ds
	})
}

// TestSetCloseStopsHelpers shows no helper outlives Set.Close, after
// both kinds of work the team runs: shard steps and audit zone sweeps.
func TestSetCloseStopsHelpers(t *testing.T) {
	base := runtime.NumGoroutine()
	set := newSet(t, 3, 3)
	for i := 0; i < 50; i++ {
		if err := set.Each(3, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := set.Audit(nil); err != nil {
			t.Fatal(err)
		}
	}
	if runtime.NumGoroutine() <= base {
		t.Fatal("the team started no helper; the test shows nothing")
	}
	set.Close()
	settleGoroutines(t, base)
}

// TestSetAuditErrorDeterministic leaks one frame in zone 0 and one in
// zone 2 and audits with the zone sweeps on a three-worker team: every
// audit reports zone 0's leak.
func TestSetAuditErrorDeterministic(t *testing.T) {
	set := newSet(t, 3, 3)
	defer set.Close()
	m := set.Parent.Machine
	for _, z := range []int{0, 2} {
		if _, err := m.AllocBlock(z, 0); err != nil {
			t.Fatal(err)
		}
	}
	var first string
	for i := 0; i < 25; i++ {
		err := set.Audit(nil)
		if err == nil || !strings.Contains(err.Error(), "leaked frame") {
			t.Fatalf("audit %d: %v, want a leaked frame", i, err)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("audit %d reported %q, first reported %q", i, err, first)
		}
	}
	var pfn uint64
	if _, err := fmt.Sscanf(first, "frame %d:", &pfn); err != nil || pfn >= uint64(m.Zones[1].Base) {
		t.Fatalf("error %q does not name a zone-0 frame", first)
	}
}

// TestEachRunsEveryIndexOnSeparateWorkers pins what replay relies on:
// at jobs = n every index runs at once, each on its own worker, so n
// calls that each wait for all the others finish.
func TestEachRunsEveryIndexOnSeparateWorkers(t *testing.T) {
	const n = 4
	var wg sync.WaitGroup
	wg.Add(n)
	if err := shard.Each(n, n, func(int) error {
		wg.Done()
		wg.Wait()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

var errBoom = errors.New("boom")

// TestEachSerialOnOneIndex pins that one index never needs a helper:
// it runs on the caller whatever the team size.
func TestEachSerialOnOneIndex(t *testing.T) {
	base := runtime.NumGoroutine()
	if err := shard.Each(1, 8, func(int) error {
		if runtime.NumGoroutine() > base {
			return errors.New("a helper started for one index")
		}
		return errBoom
	}); !errors.Is(err, errBoom) {
		t.Fatal(err)
	}
}
