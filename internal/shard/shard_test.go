package shard_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/shard"
	"repro/internal/workloads"
)

// TestEachLowestIndexErrorWins pins deterministic error selection: the
// higher index fails first (the lower one waits for it), yet Each
// reports the lower index's error.
func TestEachLowestIndexErrorWins(t *testing.T) {
	for _, jobs := range []int{2, 4} {
		highFailed := make(chan struct{})
		err := shard.Each(4, jobs, func(i int) error {
			switch i {
			case 1:
				<-highFailed
				return errors.New("low")
			case 3:
				close(highFailed)
				return errors.New("high")
			}
			return nil
		})
		if err == nil || err.Error() != "low" {
			t.Fatalf("jobs=%d: Each = %v, want the index-1 error", jobs, err)
		}
	}
}

// TestEachRunsEveryIndexOnce covers the worker-count edges: jobs <= 0
// (GOMAXPROCS), jobs > n, serial, and n = 0. Every index runs exactly
// once and no more than jobs calls ever overlap.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, jobs int }{{7, 0}, {7, -1}, {5, 64}, {6, 1}, {9, 3}, {0, 4}} {
		t.Run(fmt.Sprintf("n=%d/jobs=%d", c.n, c.jobs), func(t *testing.T) {
			calls := make([]atomic.Int32, c.n)
			var live, peak atomic.Int32
			err := shard.Each(c.n, c.jobs, func(i int) error {
				cur := live.Add(1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				calls[i].Add(1)
				live.Add(-1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range calls {
				if n := calls[i].Load(); n != 1 {
					t.Fatalf("index %d ran %d times", i, n)
				}
			}
			if bound := shard.Workers(c.jobs); int(peak.Load()) > bound {
				t.Fatalf("%d calls overlapped, bound is %d", peak.Load(), bound)
			}
		})
	}
}

// TestEachSerialStopsAtFirstError pins the single-worker path: index
// order on the calling goroutine, nothing after the first failure.
func TestEachSerialStopsAtFirstError(t *testing.T) {
	var ran []int
	boom := errors.New("boom")
	err := shard.Each(5, 1, func(i int) error {
		ran = append(ran, i)
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || fmt.Sprint(ran) != "[0 1 2]" {
		t.Fatalf("Each = %v after running %v, want boom after [0 1 2]", err, ran)
	}
}

// TestNewDealsZonesRoundRobin pins the ownership layout: shard i owns
// zones i, i+n, …; n clamps to [1, zones]; Audit covers the parent and
// every shard kernel.
func TestNewDealsZonesRoundRobin(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 1}, {1, 1}, {2, 2}, {3, 3}, {9, 3}} {
		sys, err := core.NewNativeSystem(core.Config{ZonesMiB: []int{64, 64, 64}, Policy: "thp"})
		if err != nil {
			t.Fatal(err)
		}
		parent := sys.Kernel
		set := shard.New(parent, c.n, 0, func(view *zone.Machine, idx int) (*osim.Kernel, []workloads.Daemon) {
			k, ds, err := core.NewKernel(view, "thp")
			if err != nil {
				t.Fatal(err)
			}
			return k, ds
		})
		if len(set.Shards) != c.want {
			t.Fatalf("n=%d: %d shards, want %d", c.n, len(set.Shards), c.want)
		}
		owned := 0
		for i, s := range set.Shards {
			owned += len(s.Kernel.Machine.Zones)
			if s.Index != i {
				t.Fatalf("n=%d: shard %d has index %d", c.n, i, s.Index)
			}
			zs := s.Kernel.Machine.Zones
			for j, z := range zs {
				if want := parent.Machine.Zones[i+j*c.want]; z != want {
					t.Fatalf("n=%d: shard %d zone %d is not parent zone %d", c.n, i, j, i+j*c.want)
				}
			}
		}
		if owned != len(parent.Machine.Zones) {
			t.Fatalf("n=%d: shards own %d zones, want %d", c.n, owned, len(parent.Machine.Zones))
		}
		// A clean audit with a populated process on the last shard shows
		// the shard kernels are in the audited set: without them the
		// process's mapped frames would have no gathered reference.
		env := workloads.NewNativeEnv(set.Shards[len(set.Shards)-1].Kernel, 0)
		v, err := env.MMap(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Populate(v); err != nil {
			t.Fatal(err)
		}
		if err := set.Audit(nil); err != nil {
			t.Fatalf("n=%d: audit failed: %v", c.n, err)
		}
		set.Close()
		parent.Machine.Recycle()
	}
}
