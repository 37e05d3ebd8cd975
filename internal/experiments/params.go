package experiments

import (
	"runtime"

	"repro/internal/trace"
)

// Params carries the run-scale knobs every driver receives. Drivers
// take their configuration by value instead of reading package globals,
// so any set of experiments can run concurrently: two drivers with
// different stream lengths never observe each other's settings.
type Params struct {
	// StreamLen is the measured-phase access count for the translation
	// experiments (Figs. 13/14, Table VII, the SpOT ablations).
	StreamLen uint64
	// SettleEpochs is the post-population daemon-settling window for
	// the contiguity experiments (Figs. 7/8/10): epochs of logical time
	// the background daemons get to converge.
	SettleEpochs int
	// Seed is the base seed for workload setup; access streams use
	// Seed+1. Identical Params produce identical tables.
	Seed int64
	// Jobs bounds the intra-driver parallelism of the heavy sweep
	// drivers (Fig. 7/12/13/14, Table V/VII, the translation runs):
	// <=0 means GOMAXPROCS, 1 forces the historical strictly
	// sequential execution. Output is identical either way; only
	// wall-clock changes.
	Jobs int
	// ShardJobs bounds the workers stepping a sharded aging campaign's
	// shards concurrently (the figAging drivers and RunAgingCampaign;
	// see aging.Config.ShardJobs): <=0 means GOMAXPROCS, 1 steps
	// shards serially. Trajectories and tables are byte-identical at
	// any value; only wall-clock changes.
	ShardJobs int
	// Backend restricts the figBackends scenario matrix to one
	// translation backend (a translation.Names() value); empty runs the
	// full cross-product. Every other driver reproduces the paper's
	// baseline stack and ignores it.
	Backend string
	// Tracer, when non-nil, is threaded into every kernel, VM, and sim
	// run the drivers build, collecting events across the whole
	// experiment. Tables are byte-identical with or without it (pinned
	// by TestGoldenTablesWithTracingEnabled) — the tracer observes, it
	// never steers. Shared across drivers when several run concurrently
	// (the tracer is mutex-protected; event interleaving follows the
	// scheduler).
	Tracer *trace.Tracer
}

// DefaultParams returns the paper-scale defaults the cmd/reproduce
// binary uses: the values the historical package globals held.
func DefaultParams() Params {
	return Params{StreamLen: 1_000_000, SettleEpochs: 400, Seed: 1}
}

// setupSeed is the seed workload Setup calls use.
func (p Params) setupSeed() int64 { return p.Seed }

// streamSeed is the seed access-stream generation uses.
func (p Params) streamSeed() int64 { return p.Seed + 1 }

// jobs resolves the intra-driver worker bound.
func (p Params) jobs() int {
	if p.Jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Jobs
}
