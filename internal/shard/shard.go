// Package shard is the zone-shard runtime the aging campaigns and the
// trace replay engine share (DESIGN.md §11). A Set deals a parent
// kernel's zones round-robin to zone views, builds one kernel and
// private daemon set per view, and audits the parent plus every shard
// kernel as one machine. Team is the repo's one bounded fork-join: a
// Set's own team steps aging shards and sweeps audit zones, and the
// one-shot Each runs replay appliers, experiment grid cells, and whole
// experiment drivers.
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

// Set is a parent kernel and the shards its zones were dealt to. It
// owns a Team that runs Each and Audit's zone sweeps; its helpers
// start on first use and stop in Close.
type Set struct {
	Parent *osim.Kernel
	Shards []*Shard

	// kernels is the audited set: the parent, then every shard.
	kernels []*osim.Kernel
	// auditor is held for the Set's lifetime, so repeated audits reuse
	// its PFN-indexed arena instead of rebuilding it. Its zone sweeps
	// run on team.
	auditor *check.Auditor
	team    *Team
}

// New deals parent's zones round-robin to n shards (shard i owns zones
// i, i+n, …) and builds each shard's kernel through build, in index
// order. n is clamped to [1, zone count]. The Set's team has at most
// jobs workers (jobs <= 0 means GOMAXPROCS), and never more than the
// machine has zones: no Run of it has more indices.
func New(parent *osim.Kernel, n, jobs int, build Build) *Set {
	zones := len(parent.Machine.Zones)
	n = max(1, min(n, zones))
	s := &Set{
		Parent:  parent,
		kernels: []*osim.Kernel{parent},
		auditor: check.NewAuditor(parent.Machine),
		team:    NewTeam(min(Workers(jobs), zones)),
	}
	s.auditor.Fanout = s.team.Run
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

// Each runs fn(i) for every i in [0, n) on the Set's team, under
// Team.Run's contract.
func (s *Set) Each(n int, fn func(i int) error) error { return s.team.Run(n, fn) }

// Close stops the team's helpers. The shards and the parent stay
// usable; a later Each or Audit starts the helpers again.
func (s *Set) Close() { s.team.Close() }

// Audit runs the whole-machine cross-kernel audit over the parent and
// every shard kernel, its zone sweeps on the Set's team; pinned lists
// extents held outside any process beyond the kernels' own boot
// reservations. Call only when quiesced.
func (s *Set) Audit(pinned []check.Extent) error {
	return s.auditor.AuditKernels(s.Parent.Machine, s.kernels, pinned)
}
