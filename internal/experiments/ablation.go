package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mem/addr"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The ablation drivers isolate the design choices DESIGN.md §4 calls
// out. They are not paper figures; they justify mechanisms the paper
// adopts (next-fit, the sorted MAX_ORDER list, the 64-offset budget,
// SpOT's confidence and contiguity-bit filtering).

// AblationPlacement compares next-fit against first-fit placement for
// two processes populating concurrently: first-fit keeps both
// placements at the lowest free region, so they collide and interleave;
// next-fit defers them past each other.
func AblationPlacement(p Params) (*Table, error) {
	t := &Table{
		Title:  "Ablation: next-fit vs first-fit placement (two concurrent SVMs)",
		Header: []string{"placement", "maps99 A", "maps99 B"},
		Notes:  []string{"next-fit (the paper's choice) must produce far fewer mappings"},
	}
	for _, firstFit := range []bool{false, true} {
		k, _ := newNativeKernel(p, PolicyCA, false)
		for _, z := range k.Machine.Zones {
			z.Contig.SetFirstFit(firstFit)
		}
		envA := workloads.NewNativeEnv(k, 0)
		envB := workloads.NewNativeEnv(k, 0)
		if err := interleavedSVMPair(envA, envB, workloads.NewSVM().FootprintBytes()); err != nil {
			return nil, err
		}
		stA, stB := core.Contiguity(envA), core.Contiguity(envB)
		name := "next-fit"
		if firstFit {
			name = "first-fit"
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(stA.Maps99), fmt.Sprint(stB.Maps99)})
		envA.Exit()
		envB.Exit()
		k.Recycle()
	}
	return t, nil
}

// AblationSortedMaxOrder measures how the physically sorted MAX_ORDER
// list concentrates fallback 4 KiB allocations: after interleaving CA
// heap traffic with un-steered single-page churn, the machine keeps
// larger free blocks when the list is sorted.
func AblationSortedMaxOrder(p Params) (*Table, error) {
	t := &Table{
		Title:  "Ablation: sorted MAX_ORDER list (free contiguity after churn)",
		Header: []string{"sorted", "largest free cluster (MiB)", ">64MiB free fraction"},
		Notes:  []string{"sorting keeps scattered 4K allocations from splitting distant large blocks"},
	}
	for _, sorted := range []bool{true, false} {
		k, _ := newNativeKernel(p, PolicyCA, true /* single zone */)
		for _, z := range k.Machine.Zones {
			z.Buddy.SetSorted(sorted)
		}
		rng := rand.New(rand.NewSource(3))
		// Scramble the MAX_ORDER free list the way a running machine
		// does: allocate every block, then free them in random order
		// (blocks at the top order never coalesce further, so the list
		// keeps the random order).
		var blocks []addr.PFN
		for {
			pfn, err := k.Machine.AllocBlock(0, addr.MaxOrder)
			if err != nil {
				break
			}
			blocks = append(blocks, pfn)
		}
		rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		for _, pfn := range blocks {
			k.Machine.FreeBlock(pfn, addr.MaxOrder)
		}
		// 120 rounds of: one persistent kernel page (slab/IO) plus a
		// transient burst draining the split block's remnants. The
		// bursts are all released at the end (short-lived buffers);
		// each round ruined whichever MAX_ORDER block the list offered
		// — the lowest when sorted, a random one when not.
		type tempBlock struct {
			pfn   addr.PFN
			order int
		}
		var temps []tempBlock
		for i := 0; i < 120; i++ {
			if _, err := k.Machine.AllocBlock(0, 0); err != nil {
				break
			}
			for o := addr.MaxOrder - 1; o >= 0; o-- {
				if pfn, err := k.Machine.AllocBlock(0, o); err == nil {
					temps = append(temps, tempBlock{pfn, o})
				}
			}
		}
		for _, tmp := range temps {
			k.Machine.FreeBlock(tmp.pfn, tmp.order)
		}
		var largest uint64
		for _, z := range k.Machine.Zones {
			if l := z.Contig.Largest(); l > largest {
				largest = l
			}
		}
		frac := freeBuckets(k, [3]uint64{
			addr.HugeSize / addr.PageSize,
			16 << 20 / addr.PageSize,
			64 << 20 / addr.PageSize,
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(sorted), f1(float64(largest) * 4096 / (1 << 20)), f3(frac[3]),
		})
		k.Recycle()
	}
	return t, nil
}

// AblationOffsetBudget varies the per-VMA offset budget on a fragmented
// machine: with a single offset, every sub-VMA re-placement forgets the
// previous regions and faults near them fall back to arbitrary
// allocation; with the paper's 64, sub-VMA regions are all tracked.
func AblationOffsetBudget(p Params) (*Table, error) {
	t := &Table{
		Title:  "Ablation: per-VMA offset budget under fragmentation",
		Header: []string{"budget", "maps99", "ca fallbacks"},
		Notes:  []string{"the 64-offset FIFO keeps sub-VMA placements usable; 1 offset thrashes"},
	}
	for _, budget := range []int{1, 4, 64} {
		k, _ := newNativeKernel(p, PolicyCA, true)
		k.OffsetBudget = budget
		workloads.Hog(k.Machine, 0.35, rand.New(rand.NewSource(7)))
		env := workloads.NewNativeEnv(k, 0)
		// A 192 MiB VMA populated in *random* 2 MiB-region order: under
		// fragmentation the VMA needs many sub-placements, and faults
		// jumping between regions need the offsets of all of them — a
		// single tracked offset is forgotten on every re-placement.
		v, err := env.MMap(192 << 20)
		if err != nil {
			return nil, err
		}
		order := rand.New(rand.NewSource(2)).Perm(int(v.Size() / (2 << 20)))
		for _, region := range order {
			base := uint64(region) * (2 << 20)
			if err := env.PopulateRange(v, v.Start.Add(base), 2<<20); err != nil {
				return nil, err
			}
		}
		st := core.Contiguity(env)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(budget), fmt.Sprint(st.Maps99), fmt.Sprint(k.Stats.CAFallbacks),
		})
		env.Exit()
		k.Recycle()
	}
	return t, nil
}

// AblationSpotConfidence turns SpOT's two §IV-C protection mechanisms
// off individually on the workload with the most irregular misses.
func AblationSpotConfidence(p Params) (*Table, error) {
	t := &Table{
		Title:  "Ablation: SpOT confidence and contiguity-bit filter (svm)",
		Header: []string{"variant", "correct", "mispredict", "no-prediction"},
		Notes:  []string{"no-confidence converts no-predictions into mispredictions (flushes);"},
	}
	variants := []struct {
		name string
		cfg  sim.Config
	}{
		{"full mechanism", sim.Config{EnableSchemes: true}},
		{"no confidence", sim.Config{EnableSchemes: true, SpotNoConfidence: true}},
		{"no fill filter", sim.Config{EnableSchemes: true, SpotNoFilter: true}},
	}
	for _, v := range variants {
		res, err := p.simulate(simCell{workload: "svm", policy: PolicyCA, virtual: true, cfg: v.cfg})
		if err != nil {
			return nil, err
		}
		total := float64(res.Misses)
		t.Rows = append(t.Rows, []string{
			v.name,
			pct(float64(res.SpotCorrect) / total),
			pct(float64(res.SpotMispredict) / total),
			pct(float64(res.SpotNoPred) / total),
		})
	}
	return t, nil
}

// AblationSpotGeometry sweeps the prediction-table size on the
// workload with the most missing instructions (hashjoin: ten probe and
// ten chain PCs).
func AblationSpotGeometry(p Params) (*Table, error) {
	t := &Table{
		Title:  "Ablation: SpOT prediction table geometry (hashjoin)",
		Header: []string{"entries x ways", "correct", "no-prediction"},
		Notes:  []string{"PC indexing keeps even small tables effective (few instructions miss)"},
	}
	for _, geo := range []struct{ entries, ways int }{
		{8, 2}, {16, 4}, {32, 4}, {64, 4}, {128, 8},
	} {
		res, err := p.simulate(simCell{workload: "hashjoin", policy: PolicyCA, virtual: true,
			cfg: sim.Config{EnableSchemes: true, SpotEntries: geo.entries, SpotWays: geo.ways}})
		if err != nil {
			return nil, err
		}
		total := float64(res.Misses)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", geo.entries, geo.ways),
			pct(float64(res.SpotCorrect) / total),
			pct(float64(res.SpotNoPred) / total),
		})
	}
	return t, nil
}
