package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/osim"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The paper's evaluation (§VI) repeats one recipe: boot a
// configuration, populate the workload, then measure. The two cells
// below are that recipe, once for the translation experiments and once
// for the native kernel-side ones; a driver describes its cells and
// keeps only what it does with each result. Drivers that age one
// machine across runs, drive two processes, or churn the allocator
// directly keep their own loops.

// simCell is one translation measurement: workload populated under
// policy (in both dimensions when virtual) on freshly booted machines,
// then its measured phase driven through sim.Run under cfg.
type simCell struct {
	workload string
	policy   PolicyName
	virtual  bool
	// noTHP turns transparent huge pages off in every kernel.
	noTHP bool
	// levels is the page-table depth of every kernel; 0 keeps 4.
	levels int
	cfg    sim.Config
}

// boot builds the cell's machines, applies noTHP and levels to every
// kernel before the workload's process exists, and starts that
// process. recycle hands the kernels to the depots and pools
// (osim.Kernel.Recycle) once the caller is done.
func (p Params) boot(c simCell) (env *workloads.Env, recycle func(), err error) {
	if c.virtual {
		vm, err := newVM(p, c.policy, c.levels)
		if err != nil {
			return nil, nil, err
		}
		// Only ever off: Ingens turns THP off itself.
		if c.noTHP {
			vm.Guest.THPEnabled = false
			vm.Host.THPEnabled = false
		}
		return workloads.NewVirtEnv(vm, 0), func() {
			vm.Guest.Recycle()
			vm.Host.Recycle()
		}, nil
	}
	k, ds := newNativeKernel(p, c.policy, false)
	if c.noTHP {
		k.THPEnabled = false
	}
	if c.levels != 0 {
		k.PageTableLevels = c.levels
	}
	env = workloads.NewNativeEnv(k, 0)
	env.Daemons = ds
	return env, k.Recycle, nil
}

// simulate runs one simCell: Setup at the setup seed, then one sim.Run
// over the workload's stream at the stream seed, with the tracer
// attached and the two phases marked.
func (p Params) simulate(c simCell) (sim.Result, error) {
	env, recycle, err := p.boot(c)
	if err != nil {
		return sim.Result{}, err
	}
	defer recycle()
	label := c.workload
	if c.cfg.Backend != "" {
		label += "/" + c.cfg.Backend
	}
	w := workloads.ByName(c.workload)
	tr := p.Tracer
	start := tr.Start()
	if err := w.Setup(env, rand.New(rand.NewSource(p.setupSeed()))); err != nil {
		return sim.Result{}, fmt.Errorf("%s/%s setup: %w", c.workload, c.policy, err)
	}
	tr.EmitPhase(label+"/setup", start)
	start = tr.Start()
	cfg := c.cfg
	cfg.Tracer = tr
	res, err := sim.Run(env, w.Stream(rand.New(rand.NewSource(p.streamSeed())), p.StreamLen), cfg)
	tr.EmitPhase(label+"/measure", start)
	return res, err
}

// nativeCell is one native kernel-side measurement: workload populated
// under policy on a freshly booted host after hog pins that fraction
// of memory, then the policy's daemons settle for settle epochs.
type nativeCell struct {
	workload string
	policy   PolicyName
	// numaOff merges the host's two zones into one.
	numaOff bool
	hog     float64
	settle  int
}

// native runs one nativeCell and hands the settled kernel and process
// to measure, then exits the process and recycles the kernel.
func (p Params) native(c nativeCell, measure func(*osim.Kernel, *workloads.Env)) error {
	k, ds := newNativeKernel(p, c.policy, c.numaOff)
	workloads.Hog(k.Machine, c.hog, rand.New(rand.NewSource(42)))
	env := workloads.NewNativeEnv(k, 0)
	env.Daemons = ds
	label := string(c.policy) + "/" + c.workload
	tr := p.Tracer
	start := tr.Start()
	if err := workloads.ByName(c.workload).Setup(env, rand.New(rand.NewSource(p.setupSeed()))); err != nil {
		return fmt.Errorf("%s/%s setup: %w", c.workload, c.policy, err)
	}
	tr.EmitPhase(label+"/setup", start)
	start = tr.Start()
	workloads.SettleDaemons(k, ds, c.settle)
	tr.EmitPhase(label+"/settle", start)
	measure(k, env)
	env.Exit()
	k.Recycle()
	return nil
}
