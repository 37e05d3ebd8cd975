package experiments

import (
	"fmt"

	"repro/internal/perfmodel"
)

// ExtraShadow compares nested paging against shadow paging (§VII: the
// paper's techniques are "agnostic to the virtualization technology and
// directly applicable to shadow and hybrid paging"). Shadow walks cost
// native latency, but every composite-entry fill is a hypervisor exit —
// the trade-off agile paging navigates. This is not a paper figure; it
// validates the claim on our substrate.
func ExtraShadow(p Params) (*Table, error) {
	return ExtraShadowFor(p, []string{"pagerank", "xsbench", "hashjoin"})
}

// ExtraShadowFor is the parameterized core of ExtraShadow.
func ExtraShadowFor(p Params, names []string) (*Table, error) {
	t := &Table{
		Title:  "Extra: nested vs shadow paging overhead (CA in both dimensions)",
		Header: []string{"workload", "nested", "shadow", "shadow syncs"},
		Notes: []string{
			"shadow wins in steady state (native-cost walks) but pays a VM exit per",
			"composite fill — the nested/shadow trade-off agile paging exploits",
		},
	}
	for _, name := range names {
		cell := simCell{workload: name, policy: PolicyCA, virtual: true}
		nested, err := p.simulate(cell)
		if err != nil {
			return nil, err
		}
		cell.cfg.ShadowPaging = true
		shadowed, err := p.simulate(cell)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			pct(perfmodel.PagingOverhead(nested)),
			pct(perfmodel.PagingOverhead(shadowed)),
			fmt.Sprint(shadowed.ShadowSyncs),
		})
	}
	return t, nil
}
