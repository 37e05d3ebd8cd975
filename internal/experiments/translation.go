package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/hw/walker"
	"repro/internal/metrics"
	"repro/internal/osim"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/virt"
	"repro/internal/workloads"
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
func runTranslation(p Params, name string) (translationRun, error) {
	out := translationRun{name: name}
	run := func(virtual bool, thp bool, policy PolicyName, schemes bool) (sim.Result, error) {
		var env *workloads.Env
		var vm *virt.VM
		var k *osim.Kernel
		if virtual {
			var err error
			vm, _, err = newVM(p, policy, policy)
			if err != nil {
				return sim.Result{}, err
			}
			vm.Guest.THPEnabled = thp
			vm.Host.THPEnabled = thp
			env = workloads.NewVirtEnv(vm, 0)
		} else {
			k, _ = newNativeKernel(p, policy, false)
			k.THPEnabled = thp
			env = workloads.NewNativeEnv(k, 0)
		}
		w := workloads.ByName(name)
		tr := p.Tracer
		start := tr.Start()
		if err := w.Setup(env, rand.New(rand.NewSource(p.setupSeed()))); err != nil {
			return sim.Result{}, fmt.Errorf("%s setup: %w", name, err)
		}
		tr.EmitPhase(name+"/setup", start)
		start = tr.Start()
		res, err := sim.Run(env, w.Stream(rand.New(rand.NewSource(p.streamSeed())), p.StreamLen), sim.Config{EnableSchemes: schemes, Tracer: p.Tracer})
		tr.EmitPhase(name+"/measure", start)
		if err == nil {
			if vm != nil {
				recycleVM(vm)
			} else {
				recycleKernel(k)
			}
		}
		return res, err
	}
	// The five configurations are independent simulations (each builds
	// its own kernel/VM), so they run on the shared worker pool. Each
	// writes an index-owned field; identical output to the sequential
	// original.
	configs := []struct {
		dst          *sim.Result
		virtual, thp bool
		policy       PolicyName
		schemes      bool
	}{
		{&out.native4K, false, false, PolicyTHP, false},
		{&out.nativeTHP, false, true, PolicyTHP, false},
		{&out.virt4K, true, false, PolicyTHP, false},
		{&out.virtTHP, true, true, PolicyTHP, false},
		{&out.caTHP, true, true, PolicyCA, true},
	}
	err := forEach(len(configs), p.jobs(), func(i int) error {
		c := configs[i]
		res, err := run(c.virtual, c.thp, c.policy, c.schemes)
		if err != nil {
			return err
		}
		*c.dst = res
		return nil
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
	if err := forEach(len(names), p.jobs(), func(i int) error {
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
	if err := forEach(len(names), p.jobs(), func(i int) error {
		name := names[i]
		vm, _, err := newVM(p, PolicyCA, PolicyCA)
		if err != nil {
			return err
		}
		env := workloads.NewVirtEnv(vm, 0)
		wl := workloads.ByName(name)
		if err := wl.Setup(env, rand.New(rand.NewSource(p.setupSeed()))); err != nil {
			return fmt.Errorf("fig14 %s: %w", name, err)
		}
		res, err := sim.Run(env, wl.Stream(rand.New(rand.NewSource(p.streamSeed())), p.StreamLen), sim.Config{EnableSchemes: true, Tracer: p.Tracer})
		if err != nil {
			return err
		}
		results[i] = res
		recycleVM(vm)
		return nil
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
	if err := forEach(len(names), p.jobs(), func(i int) error {
		name := names[i]
		vm, _, err := newVM(p, PolicyCA, PolicyCA)
		if err != nil {
			return err
		}
		env := workloads.NewVirtEnv(vm, 0)
		wl := workloads.ByName(name)
		if err := wl.Setup(env, rand.New(rand.NewSource(p.setupSeed()))); err != nil {
			return fmt.Errorf("table7 %s: %w", name, err)
		}
		res, err := sim.Run(env, wl.Stream(rand.New(rand.NewSource(p.streamSeed())), p.StreamLen), sim.Config{Tracer: p.Tracer})
		if err != nil {
			return err
		}
		ests[i] = perfmodel.EstimateUSL(res)
		recycleVM(vm)
		return nil
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
