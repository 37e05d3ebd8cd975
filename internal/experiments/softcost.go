package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/osim"
	"repro/internal/osim/vma"
	"repro/internal/perfmodel"
	"repro/internal/shard"
	"repro/internal/workloads"
)

// Fig11 reproduces the software-overhead study (Fig. 11): modelled
// execution time normalized to THP for each workload under each
// memory-management configuration, isolating the kernel-side costs
// (fault service, zeroing, promotions, migrations, shootdowns) with no
// gain from novel translation hardware.
func Fig11(p Params) (*Table, error) { return Fig11For(p, workloadNames()) }

// Fig11For is the parameterized core of Fig11. The (workload, policy)
// cells each build their own kernel, so the grid fans out on the
// bounded worker pool like Fig7's; normalization against THP happens
// at row assembly, once every cell of a workload is in.
func Fig11For(p Params, names []string) (*Table, error) {
	t := &Table{
		Title:  "Fig 11: software runtime overhead normalized to THP",
		Header: []string{"workload", "thp", "ingens", "ca", "eager", "ranger"},
		Notes: []string{
			"paper shape: CA and eager add ~0; ranger ~3% (migrations); Ingens small",
		},
	}
	policies := []PolicyName{PolicyTHP, PolicyIngens, PolicyCA, PolicyEager, PolicyRanger}
	g := newGrid(len(names), len(policies))
	kernelNs := make([]uint64, g.size())
	err := shard.Each(g.size(), p.Jobs, func(i int) error {
		name := names[g.at(i, 0)]
		pol := policies[g.at(i, 1)]
		return p.native(nativeCell{workload: name, policy: pol}, func(k *osim.Kernel, env *workloads.Env) {
			clockAfterSetup := k.Clock
			// Execution window: daemons (ranger migrations, Ingens
			// promotions) keep running; their added time is the
			// difference the model charges.
			workloads.SettleDaemons(k, env.Daemons, 60)
			daemonWork := k.Clock - clockAfterSetup
			// SettleDaemons advances the clock by the idle epochs
			// themselves; subtract that baseline so only the work time
			// (migrations/promotions/faults) counts.
			idle := uint64(60 * workloads.SettleTickNs)
			if daemonWork >= idle {
				daemonWork -= idle
			} else {
				daemonWork = 0
			}
			kernelNs[i] = clockAfterSetup + daemonWork
		})
	})
	if err != nil {
		return nil, err
	}
	for ni, name := range names {
		w := workloads.ByName(name)
		row := []string{w.Name()}
		thpNs := kernelNs[g.index(ni, 0)] // policies[0] is PolicyTHP
		for pi := range policies {
			row = append(row, f3(perfmodel.NormalizedRuntime(
				w.FootprintBytes(), kernelNs[g.index(ni, pi)], thpNs)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table5 reproduces the fault-latency comparison (Table V): total page
// faults and 99th-percentile fault latency (µs) across the whole suite
// for THP, CA, and eager paging.
func Table5(p Params) (*Table, error) { return Table5For(p, workloadNames()) }

// Table5For is the parameterized core of Table5. Every (policy,
// workload) cell runs on its own kernel, so the whole grid fans out on
// a worker pool; per-policy aggregation (fault sums and the latency
// percentile) is order-insensitive, so the table is identical to a
// sequential run.
func Table5For(p Params, names []string) (*Table, error) {
	t := &Table{
		Title:  "Table V: page faults and 99th percentile latency",
		Header: []string{"policy", "total faults", "p99 latency (us)"},
		Notes: []string{
			"paper shape: CA ~ THP latency (515 vs 526 us) and same fault count;",
			"eager: orders-of-magnitude higher tail latency, far fewer faults",
		},
	}
	policies := []PolicyName{PolicyTHP, PolicyCA, PolicyEager}
	type cellResult struct {
		faults uint64
		lats   map[uint64]uint64
	}
	g := newGrid(len(policies), len(names))
	cells := make([]cellResult, g.size())
	err := shard.Each(len(cells), p.Jobs, func(i int) error {
		pol := policies[g.at(i, 0)]
		name := names[g.at(i, 1)]
		// Stats (and the latency counts) live on the kernel, not the
		// machine; recycling only pools the machine, so the reference in
		// cells stays valid.
		return p.native(nativeCell{workload: name, policy: pol}, func(k *osim.Kernel, _ *workloads.Env) {
			cells[i] = cellResult{faults: k.Stats.TotalFaults(), lats: k.Stats.FaultLatencies}
		})
	})
	if err != nil {
		return nil, err
	}
	for pi, pol := range policies {
		var faults uint64
		lats := make(map[uint64]uint64)
		for ni := range names {
			c := cells[g.index(pi, ni)]
			faults += c.faults
			for ns, n := range c.lats {
				lats[ns] += n
			}
		}
		p99us := float64(metrics.Percentile(lats, 0.99)) / 1000
		t.Rows = append(t.Rows, []string{string(pol), fmt.Sprint(faults), f1(p99us)})
	}
	return t, nil
}

// Table6 reproduces the memory-bloat comparison (Table VI): extra
// memory allocated versus 4 KiB demand paging, per workload and policy.
func Table6(p Params) (*Table, error) { return Table6For(p, workloadNames()) }

// Table6For is the parameterized core of Table6.
func Table6For(p Params, names []string) (*Table, error) {
	t := &Table{
		Title:  "Table VI: bloat vs 4K demand paging [MiB (overhead %)]",
		Header: []string{"policy", "svm", "pagerank", "hashjoin", "xsbench", "bt"},
		Notes: []string{
			"paper shape: THP ~ CA (MBs); Ingens lower; eager GBs (pre-allocates unused memory)",
		},
	}
	for _, pol := range []PolicyName{PolicyTHP, PolicyIngens, PolicyCA, PolicyEager} {
		row := []string{string(pol)}
		for _, name := range names {
			c := nativeCell{workload: name, policy: pol, settle: 30}
			err := p.native(c, func(_ *osim.Kernel, env *workloads.Env) {
				mapped, touched := residency(env)
				bloatBytes := (mapped - touched) * 4096
				overheadPct := float64(bloatBytes) / float64(touched*4096) * 100
				row = append(row, fmt.Sprintf("%.1f (%.1f%%)", float64(bloatBytes)/(1<<20), overheadPct))
			})
			if err != nil {
				return nil, err
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// residency sums mapped and touched pages over the process's anonymous
// VMAs. Bloat is their difference: frames resident beyond what 4 KiB
// demand paging would have allocated.
func residency(env *workloads.Env) (mapped, touched uint64) {
	env.Proc.VMAs.Visit(func(v *vma.VMA) {
		if v.Kind != vma.Anonymous {
			return
		}
		mapped += v.MappedPages
		touched += v.TouchedPages()
	})
	return mapped, touched
}
