package experiments

import (
	"fmt"

	"repro/internal/hw/walker"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/shard"
	"repro/internal/sim"
)

// translationRun holds every measurement Fig. 13/14 and Table VII need
// for one workload.
type translationRun struct {
	name                string
	native4K, nativeTHP sim.Result
	virt4K, virtTHP     sim.Result // default paging, no schemes
	caTHP               sim.Result // CA/CA with schemes enabled
}

// runTranslation measures one workload under all Fig. 13 configurations.
// The five cells are independent simulations, so they run on the
// shared worker pool, each writing an index-owned field.
func runTranslation(p Params, name string) (translationRun, error) {
	out := translationRun{name: name}
	cells := []struct {
		dst  *sim.Result
		cell simCell
	}{
		{&out.native4K, simCell{workload: name, policy: PolicyTHP, noTHP: true}},
		{&out.nativeTHP, simCell{workload: name, policy: PolicyTHP}},
		{&out.virt4K, simCell{workload: name, policy: PolicyTHP, virtual: true, noTHP: true}},
		{&out.virtTHP, simCell{workload: name, policy: PolicyTHP, virtual: true}},
		{&out.caTHP, simCell{workload: name, policy: PolicyCA, virtual: true,
			cfg: sim.Config{EnableSchemes: true}}},
	}
	err := shard.Each(len(cells), p.Jobs, func(i int) error {
		res, err := p.simulate(cells[i].cell)
		*cells[i].dst = res
		return err
	})
	return out, err
}

// Fig13 reproduces the translation-overhead comparison (Fig. 13):
// execution-time overhead of data-TLB misses for native and virtualized
// base/huge pages, and for SpOT, vRMM, and Direct Segments on top of
// CA paging in both dimensions.
func Fig13(p Params) (*Table, error) { return Fig13For(p, workloadNames()) }

// Fig13For is the parameterized core of Fig13.
func Fig13For(p Params, names []string) (*Table, error) {
	t := &Table{
		Title:  "Fig 13: execution time overhead of TLB misses (virtualized focus)",
		Header: []string{"workload", "4K", "THP", "4K+4K", "THP+THP", "SpOT", "vRMM", "DS"},
		Notes: []string{
			"paper shape: vTHP ~16.5% avg; SpOT ~0.9%; vRMM <0.1%; DS ~0",
		},
	}
	runs := make([]translationRun, len(names))
	if err := shard.Each(len(names), p.Jobs, func(i int) error {
		r, err := runTranslation(p, names[i])
		if err != nil {
			return err
		}
		runs[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	var thpN, vthpN, spotN, rmmN, dsN []float64
	for _, r := range runs {
		name := r.name
		c := walker.DefaultCosts()
		o4k := perfmodel.PagingOverhead(r.native4K)
		othp := perfmodel.PagingOverhead(r.nativeTHP)
		ov4k := perfmodel.PagingOverhead(r.virt4K)
		ovthp := perfmodel.PagingOverhead(r.virtTHP)
		ospot := perfmodel.SpotOverhead(r.caTHP)
		ormm := perfmodel.RMMOverhead(r.caTHP)
		ods := perfmodel.DSOverhead(r.caTHP, c.Nested4K4K)
		t.Rows = append(t.Rows, []string{
			name, pct(o4k), pct(othp), pct(ov4k), pct(ovthp), pct(ospot), pct(ormm), pct(ods),
		})
		thpN = append(thpN, othp*100)
		vthpN = append(vthpN, ovthp*100)
		spotN = append(spotN, ospot*100)
		rmmN = append(rmmN, ormm*100)
		dsN = append(dsN, ods*100)
	}
	t.Rows = append(t.Rows, []string{
		"mean", "-", fmt.Sprintf("%.2f%%", meanF(thpN)), "-",
		fmt.Sprintf("%.2f%%", meanF(vthpN)), fmt.Sprintf("%.2f%%", meanF(spotN)),
		fmt.Sprintf("%.2f%%", meanF(rmmN)), fmt.Sprintf("%.2f%%", meanF(dsN)),
	})
	return t, nil
}

func meanF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig14 reproduces the SpOT outcome breakdown (Fig. 14): the fraction
// of last-level TLB misses predicted correctly, mispredicted, and not
// predicted, in virtualized execution with CA paging.
func Fig14(p Params) (*Table, error) { return Fig14For(p, workloadNames()) }

// Fig14For is the parameterized core of Fig14.
func Fig14For(p Params, names []string) (*Table, error) {
	t := &Table{
		Title:  "Fig 14: SpOT prediction outcome breakdown (virtualized, CA paging)",
		Header: []string{"workload", "correct", "mispredict", "no-prediction"},
		Notes: []string{
			"paper shape: correct >99% for pagerank; mispredictions never above ~5%;",
			"svm carries the largest irregular no-prediction tail",
		},
	}
	results := make([]sim.Result, len(names))
	if err := shard.Each(len(names), p.Jobs, func(i int) error {
		res, err := p.simulate(simCell{workload: names[i], policy: PolicyCA, virtual: true,
			cfg: sim.Config{EnableSchemes: true}})
		results[i] = res
		return err
	}); err != nil {
		return nil, err
	}
	for i, res := range results {
		total := float64(res.Misses)
		if total == 0 {
			total = 1
		}
		t.Rows = append(t.Rows, []string{
			names[i],
			pct(float64(res.SpotCorrect) / total),
			pct(float64(res.SpotMispredict) / total),
			pct(float64(res.SpotNoPred) / total),
		})
	}
	return t, nil
}

// Table7 reproduces the unsafe-load estimation (Table VII): geometric
// means of branch and DTLB-miss densities and the resulting Spectre vs
// SpOT USL percentages.
func Table7(p Params) (*Table, error) { return Table7For(p, workloadNames()) }

// Table7For is the parameterized core of Table7.
func Table7For(p Params, names []string) (*Table, error) {
	t := &Table{
		Title:  "Table VII: estimation of unsafe load instructions (USL)",
		Header: []string{"branches/instr", "dtlb misses/instr", "spectre USL/instr", "spot USL/instr"},
		Notes: []string{
			"paper: 5.87% / 0.25% / 16.5% / 2.9% — SpOT's transient windows are longer",
			"but far rarer than branch speculation, so SpOT USLs stay several x fewer",
		},
	}
	ests := make([]perfmodel.USLEstimate, len(names))
	if err := shard.Each(len(names), p.Jobs, func(i int) error {
		res, err := p.simulate(simCell{workload: names[i], policy: PolicyCA, virtual: true})
		ests[i] = perfmodel.EstimateUSL(res)
		return err
	}); err != nil {
		return nil, err
	}
	var missPct, spotPct []float64
	var est perfmodel.USLEstimate
	for _, e := range ests {
		est = e
		missPct = append(missPct, e.DTLBMissesPerInstrPct)
		spotPct = append(spotPct, e.SpOTUSLPct)
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("%.2f%%", est.BranchesPerInstrPct),
		fmt.Sprintf("%.2f%%", metrics.GeoMeanFrac(missPct)),
		fmt.Sprintf("%.1f%%", est.SpectreUSLPct),
		fmt.Sprintf("%.1f%%", metrics.GeoMeanFrac(spotPct)),
	})
	return t, nil
}
