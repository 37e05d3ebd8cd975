package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/hw/translation"
	"repro/internal/osim"
	"repro/internal/perfmodel"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/virt"
	"repro/internal/workloads"
)

// backendSet resolves the backends the figBackends matrix runs: the
// full cross-product by default, or the single backend Params.Backend
// selects.
func backendSet(p Params) ([]string, error) {
	if p.Backend == "" {
		return translation.Names(), nil
	}
	for _, n := range translation.Names() {
		if n == p.Backend {
			return []string{n}, nil
		}
	}
	return nil, fmt.Errorf("figBackends: unknown backend %q (have %v)", p.Backend, translation.Names())
}

// FigBackends runs the Virtuoso-style scenario matrix: every workload,
// native and virtualized (CA paging, THP on), across every translation
// backend; cells are translation overhead under the backend's own cost
// model (perfmodel.BackendOverhead). The paged column reproduces the
// baseline stack's numbers; hashed flattens the radix walk to a probe
// chain (its win grows with nesting); rmm and ds hide the walk behind
// ranges/segments and pay only uncovered fallbacks.
func FigBackends(p Params) (*Table, error) {
	backends, err := backendSet(p)
	if err != nil {
		return nil, err
	}
	names := workloadNames()
	modes := []string{"native", "virt"}
	t := &Table{
		Title:  "figBackends: translation backend matrix (CA paging, THP)",
		Header: append([]string{"workload", "mode"}, backends...),
		Notes: []string{
			"overhead = backend translation cycles / ideal cycles (perfmodel.BackendOverhead)",
			"paged = TLB+walker baseline; hashed = flattened table, ~1 ref/translation;",
			"rmm/ds pay only range-/segment-uncovered fallback walks",
		},
	}
	// One independent simulation per (workload, mode, backend) cell,
	// fanned out on the shared worker pool; each writes an index-owned
	// slot, so the rendered table is identical at any Jobs value.
	type cellKey struct{ wi, mi, bi int }
	cells := make([]cellKey, 0, len(names)*len(modes)*len(backends))
	for wi := range names {
		for mi := range modes {
			for bi := range backends {
				cells = append(cells, cellKey{wi, mi, bi})
			}
		}
	}
	results := make([]sim.Result, len(cells))
	if err := shard.Each(len(cells), p.Jobs, func(i int) error {
		c := cells[i]
		name, backend := names[c.wi], backends[c.bi]
		var env *workloads.Env
		var vm *virt.VM
		var k *osim.Kernel
		if modes[c.mi] == "virt" {
			var err error
			vm, _, err = newVM(p, PolicyCA, PolicyCA)
			if err != nil {
				return err
			}
			env = workloads.NewVirtEnv(vm, 0)
		} else {
			k, _ = newNativeKernel(p, PolicyCA, false)
			env = workloads.NewNativeEnv(k, 0)
		}
		wl := workloads.ByName(name)
		tr := p.Tracer
		start := tr.Start()
		if err := wl.Setup(env, rand.New(rand.NewSource(p.setupSeed()))); err != nil {
			return fmt.Errorf("figBackends %s/%s: %w", name, backend, err)
		}
		tr.EmitPhase(name+"/"+backend+"/setup", start)
		start = tr.Start()
		res, err := sim.Run(env, wl.Stream(rand.New(rand.NewSource(p.streamSeed())), p.StreamLen),
			sim.Config{Backend: backend, Tracer: p.Tracer})
		tr.EmitPhase(name+"/"+backend+"/measure", start)
		if err != nil {
			return fmt.Errorf("figBackends %s/%s/%s: %w", name, modes[c.mi], backend, err)
		}
		if vm != nil {
			recycleVM(vm)
		} else {
			k.Machine.Recycle()
		}
		results[c.wi*len(modes)*len(backends)+c.mi*len(backends)+c.bi] = res
		return nil
	}); err != nil {
		return nil, err
	}
	sums := make([][]float64, len(modes)) // per mode, per backend, overhead %
	for mi := range sums {
		sums[mi] = make([]float64, len(backends))
	}
	for wi, name := range names {
		for mi, mode := range modes {
			row := []string{name, mode}
			for bi := range backends {
				res := results[wi*len(modes)*len(backends)+mi*len(backends)+bi]
				o := perfmodel.BackendOverhead(res)
				row = append(row, pct(o))
				sums[mi][bi] += o * 100
			}
			t.Rows = append(t.Rows, row)
		}
	}
	for mi, mode := range modes {
		row := []string{"mean", mode}
		for bi := range backends {
			row = append(row, fmt.Sprintf("%.2f%%", sums[mi][bi]/float64(len(names))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
