package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/hw/hc"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// Fig12 reproduces the virtualized contiguity study (Fig. 12): the
// workloads run *consecutively in the same VM without reboots* (the
// 2nd-dimension gPA→hPA mappings persist and age), with the same policy
// applied in guest and host independently. Reported: full 2D (gVA→hPA)
// coverage and mapping counts per workload.
func Fig12(p Params) (*Table, error) { return Fig12For(p, workloadNames()) }

// Fig12For is the parameterized core of Fig12. Workloads within one
// policy share a VM and must stay sequential (ageing is the point);
// the three policies are independent and run concurrently.
func Fig12For(p Params, names []string) (*Table, error) {
	t := &Table{
		Title:  "Fig 12: virtualized 2D contiguity (consecutive runs, no VM reboot)",
		Header: []string{"workload", "policy", "cov32", "cov128", "maps99"},
		Notes: []string{
			"paper shape: CA cuts maps99 by ~an order of magnitude vs default;",
			"32-coverage slightly below native (independent best-effort dimensions)",
		},
	}
	policies := []PolicyName{PolicyTHP, PolicyCA, PolicyEager}
	rows := make([][][]string, len(policies))
	err := forEach(len(policies), p.jobs(), func(i int) error {
		pol := policies[i]
		vm, _, err := newVM(p, pol, pol)
		if err != nil {
			return err
		}
		for _, name := range names {
			env := workloads.NewVirtEnv(vm, 0)
			if err := workloads.ByName(name).Setup(env, rand.New(rand.NewSource(p.setupSeed()))); err != nil {
				return fmt.Errorf("fig12 %s/%s: %w", name, pol, err)
			}
			st := contigOf(vm.Mappings2D(env.Proc))
			rows[i] = append(rows[i], []string{
				name, string(pol), f3(st.Cov32), f3(st.Cov128), fmt.Sprint(st.Maps99),
			})
			env.Exit() // gPA→hPA persists; the next workload ages the VM
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, block := range rows {
		t.Rows = append(t.Rows, block...)
	}
	return t, nil
}

// Table1 reproduces Table I: the number of vRMM ranges and vHC anchor
// entries needed to map 99 % of each workload's footprint in
// virtualized execution, under default THP and CA paging.
func Table1(p Params) (*Table, error) { return Table1For(p, workloadNames()) }

// Table1For is the parameterized core of Table1.
func Table1For(p Params, names []string) (*Table, error) {
	t := &Table{
		Title:  "Table I: ranges (vRMM) and anchor entries (vHC) for 99% of footprint",
		Header: []string{"workload", "thp ranges", "thp vHC", "ca ranges", "ca vHC"},
		Notes: []string{
			"paper shape: CA cuts both by orders of magnitude; vHC needs many x more entries",
			"than vRMM under CA (virtual-alignment restrictions on unaligned contiguity)",
		},
	}
	type counts struct{ ranges, anchors int }
	results := map[string]map[PolicyName]counts{}
	for _, pol := range []PolicyName{PolicyTHP, PolicyCA} {
		vm, _, err := newVM(p, pol, pol)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			env := workloads.NewVirtEnv(vm, 0)
			if err := workloads.ByName(name).Setup(env, rand.New(rand.NewSource(p.setupSeed()))); err != nil {
				return nil, fmt.Errorf("table1 %s/%s: %w", name, pol, err)
			}
			ms := vm.Mappings2D(env.Proc)
			c := counts{
				ranges:  metrics.MappingsFor(ms, 0.99),
				anchors: hc.BestAnchorCount(ms, 3, 14).EntriesFor99,
			}
			if results[name] == nil {
				results[name] = map[PolicyName]counts{}
			}
			results[name][pol] = c
			env.Exit()
		}
	}
	var gr [2][]float64 // geomeans: [thp, ca] x {ranges, anchors} flattened below
	var ga [2][]float64
	for _, name := range names {
		r := results[name]
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprint(r[PolicyTHP].ranges), fmt.Sprint(r[PolicyTHP].anchors),
			fmt.Sprint(r[PolicyCA].ranges), fmt.Sprint(r[PolicyCA].anchors),
		})
		gr[0] = append(gr[0], float64(r[PolicyTHP].ranges))
		ga[0] = append(ga[0], float64(r[PolicyTHP].anchors))
		gr[1] = append(gr[1], float64(r[PolicyCA].ranges))
		ga[1] = append(ga[1], float64(r[PolicyCA].anchors))
	}
	t.Rows = append(t.Rows, []string{
		"geomean",
		f1(metrics.GeoMean(gr[0])), f1(metrics.GeoMean(ga[0])),
		f1(metrics.GeoMean(gr[1])), f1(metrics.GeoMean(ga[1])),
	})
	return t, nil
}
