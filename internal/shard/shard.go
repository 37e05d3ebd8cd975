// Package shard is the zone-shard runtime the aging campaigns and the
// trace replay engine share (DESIGN.md §11). A Set deals a parent
// kernel's zones round-robin to zone views, builds one kernel and
// private daemon set per view, and audits the parent plus every shard
// kernel as one machine. Each is the repo's one bounded fork-join:
// aging shard steps, replay appliers, experiment grid cells, and whole
// experiment drivers all run on it.
//
// A shard owns its view's zones outright: its kernel's allocations,
// frees, fault path, daemons, and logical clock reach only those
// zones, so the shards of one Set can step concurrently without
// sharing mutable state. The parent kernel keeps the machine-wide view
// (boot reservations, plus whatever its caller keeps there, such as
// the aging campaign's page cache); every shard must be quiesced
// before the parent or Audit touches the machine.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/workloads"
)

// Shard is one zone-owning slice of a machine.
type Shard struct {
	Index   int
	Kernel  *osim.Kernel
	Daemons []workloads.Daemon
}

// Build constructs shard idx's kernel and private daemon set over its
// zone view. The kernel places no boot reservations: the parent kernel
// placed those before the views were cut.
type Build func(view *zone.Machine, idx int) (*osim.Kernel, []workloads.Daemon)

// Set is a parent kernel and the shards its zones were dealt to.
type Set struct {
	Parent *osim.Kernel
	Shards []*Shard

	// kernels is the audited set: the parent, then every shard.
	kernels []*osim.Kernel
	// auditor is held for the Set's lifetime, so repeated audits reuse
	// its PFN-indexed arena instead of rebuilding it.
	auditor *check.Auditor
}

// New deals parent's zones round-robin to n shards (shard i owns zones
// i, i+n, …) and builds each shard's kernel through build, in index
// order. n is clamped to [1, zone count].
func New(parent *osim.Kernel, n int, build Build) *Set {
	zones := len(parent.Machine.Zones)
	n = max(1, min(n, zones))
	s := &Set{
		Parent:  parent,
		kernels: []*osim.Kernel{parent},
		auditor: check.NewAuditor(parent.Machine),
	}
	for i := 0; i < n; i++ {
		var owned []int
		for z := i; z < zones; z += n {
			owned = append(owned, z)
		}
		k, ds := build(parent.Machine.View(owned...), i)
		s.Shards = append(s.Shards, &Shard{Index: i, Kernel: k, Daemons: ds})
		s.kernels = append(s.kernels, k)
	}
	return s
}

// Audit runs the whole-machine cross-kernel audit over the parent and
// every shard kernel; pinned lists extents held outside any process
// beyond the kernels' own boot reservations. Call only when quiesced.
func (s *Set) Audit(pinned []check.Extent) error {
	return s.auditor.AuditKernels(s.Parent.Machine, s.kernels, pinned)
}

// Workers resolves a worker-count knob: jobs <= 0 means GOMAXPROCS.
func Workers(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// Each runs fn(i) for every i in [0, n) on at most jobs goroutines
// (jobs <= 0 means GOMAXPROCS) and returns the lowest-index error, so
// failures are reported deterministically. A single worker runs on the
// calling goroutine in index order and stops at the first error;
// otherwise every index runs. Each fn call must write only state owned
// by its index; callers then merge in index order, which keeps results
// independent of jobs.
func Each(n, jobs int, fn func(i int) error) error {
	jobs = min(Workers(jobs), n)
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
