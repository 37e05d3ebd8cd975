package sim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hw/translation"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/metrics"
	"repro/internal/osim"
	"repro/internal/virt"
	"repro/internal/workloads"
)

func hostMachine(t testing.TB) *zone.Machine {
	t.Helper()
	return zone.NewMachine(zone.Config{ZonePages: []uint64{
		112 * addr.MaxOrderPages, 112 * addr.MaxOrderPages, // 2 x 448 MiB
	}})
}

func nativeEnv(t testing.TB, policy osim.Placement) *workloads.Env {
	t.Helper()
	k := osim.NewKernel(hostMachine(t), policy)
	return workloads.NewNativeEnv(k, 0)
}

func virtEnv(t testing.TB, guestPolicy, hostPolicy osim.Placement) *workloads.Env {
	t.Helper()
	host := osim.NewKernel(hostMachine(t), hostPolicy)
	vm, err := virt.New(host, virt.Config{
		MemBytes:    768 << 20,
		GuestZones:  []uint64{96 * addr.MaxOrderPages, 96 * addr.MaxOrderPages},
		GuestPolicy: guestPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return workloads.NewVirtEnv(vm, 0)
}

func setupAndRun(t testing.TB, env *workloads.Env, w workloads.Workload, n uint64, cfg Config) Result {
	t.Helper()
	if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, w.Stream(rand.New(rand.NewSource(2)), n), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNativeRunBasics(t *testing.T) {
	env := nativeEnv(t, osim.CAPolicy{})
	res := setupAndRun(t, env, workloads.NewPageRank(), 100_000, Config{})
	if res.Accesses != 100_000 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	if res.Misses == 0 {
		t.Fatal("no TLB misses — workload footprint must exceed TLB reach")
	}
	if res.MissRatio() > 0.2 {
		t.Fatalf("miss ratio %.3f implausibly high for THP", res.MissRatio())
	}
	if res.Faults != 0 {
		t.Fatalf("stream faulted %d times; setup should fully populate", res.Faults)
	}
	if res.AvgWalkCycles <= 0 {
		t.Fatal("no walk cost accumulated")
	}
}

func TestVirtWalksCostMoreThanNative(t *testing.T) {
	w := workloads.NewPageRank()
	nat := setupAndRun(t, nativeEnv(t, osim.CAPolicy{}), w, 50_000, Config{})
	vrt := setupAndRun(t, virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{}), workloads.NewPageRank(), 50_000, Config{})
	if vrt.AvgWalkCycles <= nat.AvgWalkCycles {
		t.Fatalf("nested walks (%f) should cost more than native (%f)",
			vrt.AvgWalkCycles, nat.AvgWalkCycles)
	}
}

func Test4KModeMissesMore(t *testing.T) {
	thpEnv := nativeEnv(t, osim.CAPolicy{})
	thp := setupAndRun(t, thpEnv, workloads.NewPageRank(), 50_000, Config{})
	e4k := nativeEnv(t, osim.CAPolicy{})
	e4k.Kernel.THPEnabled = false
	p4k := setupAndRun(t, e4k, workloads.NewPageRank(), 50_000, Config{})
	if p4k.MissRatio() <= thp.MissRatio()*2 {
		t.Fatalf("4K miss ratio %.4f should far exceed THP %.4f", p4k.MissRatio(), thp.MissRatio())
	}
}

func TestSpotWithCAPredictsWell(t *testing.T) {
	env := virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{})
	res := setupAndRun(t, env, workloads.NewPageRank(), 300_000, Config{EnableSchemes: true})
	total := res.SpotCorrect + res.SpotMispredict + res.SpotNoPred
	if total != res.Misses {
		t.Fatalf("SpOT outcomes %d != misses %d", total, res.Misses)
	}
	correct := float64(res.SpotCorrect) / float64(total)
	if correct < 0.9 {
		t.Fatalf("PageRank+CA correct rate = %.3f, want > 0.9 (paper: >99%%)", correct)
	}
	mispred := float64(res.SpotMispredict) / float64(total)
	if mispred > 0.05 {
		t.Fatalf("mispredict rate = %.3f, want < 5%%", mispred)
	}
}

func TestSpotWithoutCARarelyPredicts(t *testing.T) {
	// Default policy sets no contiguity bits, so SpOT's fill filter
	// keeps the table empty: essentially everything is no-prediction.
	env := virtEnv(t, osim.DefaultPolicy{}, osim.DefaultPolicy{})
	res := setupAndRun(t, env, workloads.NewPageRank(), 100_000, Config{EnableSchemes: true})
	if res.SpotCorrect+res.SpotMispredict > res.Misses/100 {
		t.Fatalf("SpOT predicted %d+%d of %d misses without contiguity bits",
			res.SpotCorrect, res.SpotMispredict, res.Misses)
	}
}

func TestHashjoinMispredictsMoreThanPagerank(t *testing.T) {
	// hashjoin's random probes across a multi-mapping footprint are
	// SpOT's worst case (Fig. 14).
	pr := setupAndRun(t, virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{}),
		workloads.NewPageRank(), 200_000, Config{EnableSchemes: true})
	hj := setupAndRun(t, virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{}),
		workloads.NewHashJoin(), 200_000, Config{EnableSchemes: true})
	prRate := float64(pr.SpotMispredict) / float64(pr.Misses)
	hjRate := float64(hj.SpotMispredict) / float64(hj.Misses)
	if hjRate < prRate {
		t.Fatalf("hashjoin mispredict %.4f < pagerank %.4f", hjRate, prRate)
	}
}

func TestRMMCoversWithCA(t *testing.T) {
	env := virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{})
	res := setupAndRun(t, env, workloads.NewPageRank(), 200_000, Config{EnableSchemes: true})
	// With CA the footprint is a handful of ranges: a 32-entry range
	// TLB covers essentially every miss.
	uncovRate := float64(res.RMMUncovered) / float64(res.Misses)
	if uncovRate > 0.01 {
		t.Fatalf("vRMM uncovered rate = %.4f, want ~0", uncovRate)
	}
}

func TestDSCoversPopulatedSpan(t *testing.T) {
	env := virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{})
	res := setupAndRun(t, env, workloads.NewPageRank(), 100_000, Config{EnableSchemes: true})
	if res.DSMisses != 0 {
		t.Fatalf("DS misses = %d, dual direct mode should cover the VMAs", res.DSMisses)
	}
}

func TestDeterministicResults(t *testing.T) {
	run := func() Result {
		env := virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{})
		return setupAndRun(t, env, workloads.NewXSBench(), 50_000, Config{EnableSchemes: true})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SpotEntries != 32 || c.SpotWays != 4 {
		t.Fatalf("defaults = %+v", c)
	}
	// Explicit values survive.
	c2 := Config{SpotEntries: 128, SpotWays: 8}.withDefaults()
	if c2.SpotEntries != 128 || c2.SpotWays != 8 {
		t.Fatal("explicit config overridden")
	}
}

// TestRunRejectsBadConfig: a configuration the hardware models cannot
// build is an error from Run, never a panic.
func TestRunRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"tlb-ways", Config{TLBWays: 3}, "TLB geometry"},
		{"tlb-entries", Config{TLBEntries: -4}, "TLB geometry"},
		{"spot-ways", Config{EnableSchemes: true, SpotWays: 3}, "SpOT geometry"},
		{"schemes-rmm", Config{EnableSchemes: true, Backend: translation.BackendRMM}, "EnableSchemes"},
		{"shadow-hashed", Config{ShadowPaging: true, Backend: translation.BackendHashed}, "ShadowPaging"},
	}
	env := nativeEnv(t, osim.CAPolicy{})
	for _, tc := range cases {
		_, err := Run(env, &listStream{}, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestShadowPagingScheme(t *testing.T) {
	env := virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{})
	w := workloads.NewPageRank()
	if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	nested, err := Run(env, w.Stream(rand.New(rand.NewSource(2)), 600_000), Config{})
	if err != nil {
		t.Fatal(err)
	}
	shadowed, err := Run(env, w.Stream(rand.New(rand.NewSource(2)), 600_000), Config{ShadowPaging: true})
	if err != nil {
		t.Fatal(err)
	}
	if shadowed.ShadowSyncs == 0 {
		t.Fatal("no shadow syncs recorded")
	}
	if nested.ShadowSyncs != 0 {
		t.Fatal("nested run recorded shadow syncs")
	}
	// The identical miss stream resolves identically.
	if shadowed.Misses != nested.Misses {
		t.Fatalf("miss streams diverged: %d vs %d", shadowed.Misses, nested.Misses)
	}
	// Steady-state shadow walks cost native latency, so the average
	// walk cost sits between native THP and nested THP once syncs
	// amortise (pagerank: few composite fills, many hits).
	if shadowed.AvgWalkCycles >= nested.AvgWalkCycles {
		t.Fatalf("shadow avg walk %f should beat nested %f for a huge-backed footprint",
			shadowed.AvgWalkCycles, nested.AvgWalkCycles)
	}
}

// TestSchemesDoNotSteerMissStream pins the claim the package doc
// rests on: SpOT, vRMM, and DS only observe the miss stream. Two
// identically set-up environments, one run with the schemes and one
// without, must see the same accesses, misses, walk cost, and demand
// faults, natively and nested.
func TestSchemesDoNotSteerMissStream(t *testing.T) {
	modes := []struct {
		name string
		env  func() *workloads.Env
	}{
		{"native", func() *workloads.Env { return nativeEnv(t, osim.CAPolicy{}) }},
		{"nested", func() *workloads.Env { return virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{}) }},
	}
	for _, mode := range modes {
		for _, name := range []string{"pagerank", "hashjoin", "xsbench"} {
			var res [2]Result
			for i, schemes := range []bool{false, true} {
				res[i] = setupAndRun(t, mode.env(), workloads.ByName(name), 50_000,
					Config{EnableSchemes: schemes})
			}
			off, on := res[0], res[1]
			if off.Accesses != on.Accesses || off.Misses != on.Misses ||
				off.WalkCycles != on.WalkCycles || off.Faults != on.Faults {
				t.Errorf("%s/%s: schemes steered the run: off %d/%d/%.0f/%d, on %d/%d/%.0f/%d (accesses/misses/walk/faults)",
					mode.name, name, off.Accesses, off.Misses, off.WalkCycles, off.Faults,
					on.Accesses, on.Misses, on.WalkCycles, on.Faults)
			}
			if on.SpotCorrect+on.SpotMispredict+on.SpotNoPred == 0 {
				t.Errorf("%s/%s: schemes on, yet SpOT saw no misses", mode.name, name)
			}
		}
	}
}

// TestSegmentForOutOfOrderMappings pins the segment-offset fix: the
// segment offset must come from the lowest-VA mapping, not from
// whichever mapping is listed first, so the segment translates its own
// base correctly.
func TestSegmentForOutOfOrderMappings(t *testing.T) {
	hi := metrics.Mapping{VA: addr.VirtAddr(0x40_0000), PA: addr.PhysAddr(0x9000_0000), Pages: 16}
	lo := metrics.Mapping{VA: addr.VirtAddr(0x10_0000), PA: addr.PhysAddr(0x1000_0000), Pages: 16}
	seg := segmentFor([]metrics.Mapping{hi, lo}) // out of VA order
	if !seg.Covers(lo.VA) {
		t.Fatal("segment must cover its own base")
	}
	if pa := seg.Offset.Target(lo.VA); pa != lo.PA {
		t.Fatalf("segment base translates to %#x, want %#x (offset taken from the wrong mapping)", uint64(pa), uint64(lo.PA))
	}
	if !seg.Covers(hi.VA.Add(15 * addr.PageSize)) {
		t.Fatal("segment must span through the highest mapping")
	}
	if empty := segmentFor(nil); empty == nil {
		t.Fatal("empty mapping set must still build a (zero) segment")
	}
}
