package experiments

import (
	"fmt"

	"repro/internal/hw/translation"
	"repro/internal/perfmodel"
	"repro/internal/shard"
	"repro/internal/sim"
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
	g := newGrid(len(names), len(modes), len(backends))
	results := make([]sim.Result, g.size())
	if err := shard.Each(len(results), p.Jobs, func(i int) error {
		name, mode, backend := names[g.at(i, 0)], modes[g.at(i, 1)], backends[g.at(i, 2)]
		res, err := p.simulate(simCell{workload: name, policy: PolicyCA, virtual: mode == "virt",
			cfg: sim.Config{Backend: backend}})
		if err != nil {
			return fmt.Errorf("figBackends %s/%s/%s: %w", name, mode, backend, err)
		}
		results[i] = res
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
				o := perfmodel.BackendOverhead(results[g.index(wi, mi, bi)])
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
