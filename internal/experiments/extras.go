package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/mem/addr"
	"repro/internal/metrics"
	"repro/internal/osim"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// ExtraReservation evaluates the §III-D reservation extension the paper
// leaves as future work: two processes faulting strictly alternately
// (one huge page per time slice — the pathological schedule for
// best-effort placement). Reservation shields each placement's extent.
func ExtraReservation(p Params) (*Table, error) {
	t := &Table{
		Title:  "Extra: CA reservation extension (§III-D) under strict alternation",
		Header: []string{"configuration", "maps99 A", "maps99 B"},
		Notes: []string{
			"negative result: the address-granular next-fit rover already defers racing",
			"placements past each other's planned extents, so soft reservation adds",
			"little — consistent with the paper deferring reservation to future work",
		},
	}
	run := func(policy osim.Placement, label string) error {
		k, _ := newNativeKernel(p, PolicyCA, true /* single zone */)
		// Replace the policy but keep the CA machine setup. The machine
		// is fragmented first: under pressure both processes keep
		// re-placing, and without reservation those re-placements race.
		k.Policy = policy
		workloads.Hog(k.Machine, 0.3, rand.New(rand.NewSource(11)))
		pa, pb := k.NewProcess(0), k.NewProcess(0)
		va, err := pa.MMap(160 << 20)
		if err != nil {
			return err
		}
		vb, err := pb.MMap(160 << 20)
		if err != nil {
			return err
		}
		for off := uint64(0); off < va.Size(); off += addr.HugeSize {
			if _, err := pa.Touch(va.Start.Add(off), true); err != nil {
				return err
			}
			if _, err := pb.Touch(vb.Start.Add(off), true); err != nil {
				return err
			}
		}
		t.Rows = append(t.Rows, []string{label,
			fmt.Sprint(metrics.MappingsFor(metrics.FromPageTable(pa.PT), 0.99)),
			fmt.Sprint(metrics.MappingsFor(metrics.FromPageTable(pb.PT), 0.99))})
		pa.Exit()
		pb.Exit()
		k.Recycle()
		return nil
	}
	if err := run(osim.CAPolicy{}, "best-effort (paper)"); err != nil {
		return nil, err
	}
	if err := run(osim.NewCAPolicyWithReservation(), "with reservation"); err != nil {
		return nil, err
	}
	return t, nil
}

// ExtraFiveLevel quantifies the introduction's motivation: 5-level
// (LA57) page tables deepen every walk, and nested paging multiplies
// the depth — (5+1)×(5+1)−1 = 35 references versus 24.
func ExtraFiveLevel(p Params) (*Table, error) {
	t := &Table{
		Title:  "Extra: 4-level vs 5-level paging overhead (pagerank, CA in both dims)",
		Header: []string{"levels", "vTHP overhead", "SpOT overhead"},
		Notes: []string{
			"5-level paging (intro, [2]) deepens nested walks from 24 to 35 refs;",
			"SpOT's prediction hides the deeper walk just the same",
		},
	}
	for _, levels := range []int{4, 5} {
		res, err := p.simulate(simCell{workload: "pagerank", policy: PolicyCA, virtual: true,
			levels: levels, cfg: sim.Config{EnableSchemes: true}})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(levels),
			pct(perfmodel.PagingOverhead(res)),
			pct(perfmodel.SpotOverhead(res)),
		})
	}
	return t, nil
}
