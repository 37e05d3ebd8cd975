// Package repro's benchmark harness: one testing.B benchmark per table
// and figure of the paper's evaluation, plus one per ablation from
// DESIGN.md §4. Each benchmark regenerates its result through the
// corresponding internal/experiments driver and logs the table; run
//
//	go test -bench=. -benchmem
//
// to reproduce the whole evaluation. Heavy sweeps run reduced but
// representative parameter subsets (the full sweeps are available via
// cmd/reproduce); custom metrics surface each benchmark's headline
// numbers so regressions are visible in benchstat output.
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/shard"
	"repro/internal/workloads"
)

// runDriver executes an experiment driver b.N times under default
// parameters, logging the table once.
func runDriver(b *testing.B, fn experiments.Driver) *experiments.Table {
	return runDriverWith(b, experiments.DefaultParams(), fn)
}

// runDriverWith is runDriver under explicit parameters (reduced streams
// for the heavy translation benchmarks).
func runDriverWith(b *testing.B, p experiments.Params, fn experiments.Driver) *experiments.Table {
	b.Helper()
	var tab *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = fn(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	tab.Render(&sb)
	b.Log("\n" + sb.String())
	return tab
}

// metric parses a numeric cell ("12.34%", "0.987", "42") for
// b.ReportMetric.
func metric(s string) float64 {
	s = strings.TrimSuffix(s, "%")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// findRow locates a row by its leading key cells.
func findRow(tab *experiments.Table, keys ...string) []string {
	for _, row := range tab.Rows {
		ok := true
		for i, k := range keys {
			if i >= len(row) || row[i] != k {
				ok = false
				break
			}
		}
		if ok {
			return row
		}
	}
	return nil
}

// reducedStream returns default parameters with a shrunken measured
// phase for the heavy translation benchmarks.
func reducedStream(n uint64) experiments.Params {
	p := experiments.DefaultParams()
	p.StreamLen = n
	return p
}

// --- paper figures and tables ---

func BenchmarkFig1bRepeatedRuns(b *testing.B) {
	tab := runDriver(b, experiments.Fig1b)
	if row := findRow(tab, "10"); row != nil {
		b.ReportMetric(metric(row[1]), "eager-cov32-run10")
		b.ReportMetric(metric(row[2]), "ca-cov32-run10")
	}
}

func BenchmarkFig1cRangerTimeline(b *testing.B) {
	tab := runDriver(b, experiments.Fig1c)
	if len(tab.Rows) > 0 {
		mid := tab.Rows[len(tab.Rows)/2]
		b.ReportMetric(metric(mid[1]), "ca-cov32-mid")
		b.ReportMetric(metric(mid[2]), "ranger-cov32-mid")
	}
}

func BenchmarkTable1RangesAnchors(b *testing.B) {
	tab := runDriver(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Table1For(p, []string{"svm", "pagerank", "hashjoin"})
	})
	if row := findRow(tab, "pagerank"); row != nil {
		b.ReportMetric(metric(row[3]), "ca-ranges")
		b.ReportMetric(metric(row[4]), "ca-anchors")
	}
}

func BenchmarkFig7NativeContiguity(b *testing.B) {
	tab := runDriver(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig7For(p, []string{"svm", "pagerank", "bt"}, experiments.AllPolicies())
	})
	if row := findRow(tab, "pagerank", "ca"); row != nil {
		b.ReportMetric(metric(row[4]), "ca-maps99")
	}
	if row := findRow(tab, "pagerank", "thp"); row != nil {
		b.ReportMetric(metric(row[4]), "thp-maps99")
	}
}

func BenchmarkFig8Fragmentation(b *testing.B) {
	tab := runDriver(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig8Sweep(p,
			[]float64{0, 0.3, 0.5},
			[]string{"svm", "pagerank"},
			[]experiments.PolicyName{experiments.PolicyCA, experiments.PolicyEager, experiments.PolicyIdeal})
	})
	if row := findRow(tab, "hog-50%", "ca"); row != nil {
		b.ReportMetric(metric(row[3]), "ca-cov128-hog50")
	}
	if row := findRow(tab, "hog-50%", "eager"); row != nil {
		b.ReportMetric(metric(row[3]), "eager-cov128-hog50")
	}
}

func BenchmarkFig9FreeBlocks(b *testing.B) {
	tab := runDriver(b, experiments.Fig9)
	if row := findRow(tab, "ca"); row != nil {
		b.ReportMetric(metric(row[4]), "ca-largest-class-frac")
	}
}

func BenchmarkFig10MultiProgram(b *testing.B) {
	tab := runDriver(b, experiments.Fig10)
	if row := findRow(tab, "ca"); row != nil {
		b.ReportMetric(metric(row[1]), "ca-instanceA-cov32")
	}
}

func BenchmarkFig11SoftwareOverhead(b *testing.B) {
	tab := runDriver(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig11For(p, []string{"pagerank", "xsbench"})
	})
	if row := findRow(tab, "pagerank"); row != nil {
		b.ReportMetric(metric(row[3]), "ca-normalized")
		b.ReportMetric(metric(row[5]), "ranger-normalized")
	}
}

func BenchmarkTable5FaultLatency(b *testing.B) {
	tab := runDriver(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Table5For(p, []string{"pagerank", "xsbench"})
	})
	if row := findRow(tab, "ca"); row != nil {
		b.ReportMetric(metric(row[2]), "ca-p99-us")
	}
	if row := findRow(tab, "eager"); row != nil {
		b.ReportMetric(metric(row[2]), "eager-p99-us")
	}
}

func BenchmarkTable6Bloat(b *testing.B) {
	tab := runDriver(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Table6For(p, []string{"svm", "hashjoin"})
	})
	_ = tab
}

func BenchmarkFig12VirtContiguity(b *testing.B) {
	tab := runDriver(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig12For(p, []string{"svm", "pagerank", "hashjoin"})
	})
	if row := findRow(tab, "pagerank", "ca"); row != nil {
		b.ReportMetric(metric(row[4]), "ca-2d-maps99")
	}
}

func BenchmarkFig13TranslationOverhead(b *testing.B) {
	tab := runDriverWith(b, reducedStream(800_000), func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig13For(p, []string{"pagerank", "xsbench"})
	})
	if row := findRow(tab, "pagerank"); row != nil {
		b.ReportMetric(metric(row[4]), "vthp-overhead-pct")
		b.ReportMetric(metric(row[5]), "spot-overhead-pct")
	}
}

func BenchmarkFig14SpotBreakdown(b *testing.B) {
	tab := runDriverWith(b, reducedStream(800_000), func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig14For(p, []string{"pagerank", "hashjoin", "svm"})
	})
	if row := findRow(tab, "pagerank"); row != nil {
		b.ReportMetric(metric(row[1]), "pagerank-correct-pct")
	}
	if row := findRow(tab, "hashjoin"); row != nil {
		b.ReportMetric(metric(row[2]), "hashjoin-mispred-pct")
	}
}

func BenchmarkTable7USL(b *testing.B) {
	tab := runDriverWith(b, reducedStream(600_000), func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Table7For(p, []string{"pagerank", "hashjoin"})
	})
	if len(tab.Rows) > 0 {
		b.ReportMetric(metric(tab.Rows[0][2]), "spectre-usl-pct")
		b.ReportMetric(metric(tab.Rows[0][3]), "spot-usl-pct")
	}
}

// --- ablations (DESIGN.md §4) ---

func BenchmarkAblationPlacementPolicy(b *testing.B) {
	tab := runDriver(b, experiments.AblationPlacement)
	if row := findRow(tab, "next-fit"); row != nil {
		b.ReportMetric(metric(row[1]), "nextfit-maps99")
	}
	if row := findRow(tab, "first-fit"); row != nil {
		b.ReportMetric(metric(row[1]), "firstfit-maps99")
	}
}

func BenchmarkAblationSortedMaxOrder(b *testing.B) {
	tab := runDriver(b, experiments.AblationSortedMaxOrder)
	if row := findRow(tab, "true"); row != nil {
		b.ReportMetric(metric(row[1]), "sorted-largest-MiB")
	}
}

func BenchmarkAblationOffsetBudget(b *testing.B) {
	tab := runDriver(b, experiments.AblationOffsetBudget)
	if row := findRow(tab, "64"); row != nil {
		b.ReportMetric(metric(row[1]), "budget64-maps99")
	}
}

func BenchmarkAblationSpotConfidence(b *testing.B) {
	tab := runDriverWith(b, reducedStream(600_000), experiments.AblationSpotConfidence)
	if row := findRow(tab, "no confidence"); row != nil {
		b.ReportMetric(metric(row[2]), "noconf-mispred-pct")
	}
}

func BenchmarkAblationSpotGeometry(b *testing.B) {
	tab := runDriverWith(b, reducedStream(400_000), experiments.AblationSpotGeometry)
	if row := findRow(tab, "32x4"); row != nil {
		b.ReportMetric(metric(row[1]), "32x4-correct-pct")
	}
}

// --- extensions beyond the paper's figures ---

func BenchmarkExtraShadowPaging(b *testing.B) {
	tab := runDriverWith(b, reducedStream(600_000), func(p experiments.Params) (*experiments.Table, error) {
		return experiments.ExtraShadowFor(p, []string{"pagerank"})
	})
	if row := findRow(tab, "pagerank"); row != nil {
		b.ReportMetric(metric(row[1]), "nested-overhead-pct")
		b.ReportMetric(metric(row[2]), "shadow-overhead-pct")
	}
}

func BenchmarkExtraReservation(b *testing.B) {
	runDriver(b, experiments.ExtraReservation)
}

func BenchmarkExtraFiveLevel(b *testing.B) {
	tab := runDriverWith(b, reducedStream(600_000), experiments.ExtraFiveLevel)
	if row := findRow(tab, "5"); row != nil {
		b.ReportMetric(metric(row[1]), "5level-vthp-pct")
	}
}

// --- audit engine (DESIGN.md §12) ---

// auditFixture builds a machine with populated anonymous mappings and
// page-cache residency in every zone — the state the flat-array audit
// engine gathers and sweeps. zoneBlocks gives each zone's size in
// MAX_ORDER blocks. forked forks every zone's tenant, so its frames
// carry two references each (copy-on-write sharing) and the audit
// takes its duplicate-reference path.
func auditFixture(tb testing.TB, zoneBlocks []uint64, forked bool) (*zone.Machine, *osim.Kernel) {
	tb.Helper()
	zp := make([]uint64, len(zoneBlocks))
	for i, n := range zoneBlocks {
		zp[i] = n * addr.MaxOrderPages
	}
	m := zone.NewMachine(zone.Config{ZonePages: zp})
	k := osim.NewKernel(m, osim.DefaultPolicy{})
	for i := range zp {
		env := workloads.NewNativeEnv(k, i)
		v, err := env.MMap(4 << 20)
		if err != nil {
			tb.Fatal(err)
		}
		if err := env.Populate(v); err != nil {
			tb.Fatal(err)
		}
		if forked {
			env.Proc.Fork()
		}
	}
	f := k.Cache.CreateFile(2 << 20)
	if err := k.Cache.Read(f, 0, 2<<20); err != nil {
		tb.Fatal(err)
	}
	return m, k
}

// TestAuditorZeroAllocs pins the audit arena's steady-state contract: a
// warm Auditor re-auditing a settled machine performs zero heap
// allocations, duplicate references included (the arena reuses their
// list and sorts it in place).
func TestAuditorZeroAllocs(t *testing.T) {
	m, k := auditFixture(t, []uint64{8}, true)
	a := check.NewAuditor(m)
	if err := a.Audit(k, nil); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if err := a.Audit(k, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm Auditor.Audit allocates %v per run, want 0", avg)
	}
}

// TestAuditorMultiZoneAllocs bounds the multi-zone audit's garbage: on
// a two-zone machine with mappings, page-cache residency and forked
// tenants in every zone, a warm Auditor that sweeps the zones on the
// caller allocates nothing, and one that sweeps them on a two-worker
// shard.Team allocates at most two objects per audit: the Run's task
// record and the sweep's closure. The frame sweep itself must add none.
func TestAuditorMultiZoneAllocs(t *testing.T) {
	m, k := auditFixture(t, []uint64{8, 8}, true)
	team := shard.NewTeam(2)
	defer team.Close()
	for _, c := range []struct {
		fanout func(n int, fn func(i int) error) error
		max    float64
	}{{nil, 0}, {team.Run, 2}} {
		a := check.NewAuditor(m)
		a.Fanout = c.fanout
		if err := a.Audit(k, nil); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if err := a.Audit(k, nil); err != nil {
				t.Fatal(err)
			}
		})
		if avg > c.max {
			t.Fatalf("warm two-zone Auditor.Audit (team: %v) allocates %v per run, want at most %v", c.fanout != nil, avg, c.max)
		}
	}
}

// BenchmarkAuditKernels measures the audit engine itself on a small
// machine and on one the size of the figAging campaign host (2 NUMA
// zones x 160 MAX_ORDER blocks), where the flat-array sweep replaced
// the map-based accounting that dominated campaign runtime; the forked
// campaign machine adds words holding duplicate references.
func BenchmarkAuditKernels(b *testing.B) {
	for _, tc := range []struct {
		name   string
		blocks []uint64
		forked bool
	}{
		{"small-1x8", []uint64{8}, false},
		{"campaign-2x160", []uint64{160, 160}, false},
		{"campaign-2x160-forked", []uint64{160, 160}, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, k := auditFixture(b, tc.blocks, tc.forked)
			a := check.NewAuditor(m)
			if err := a.Audit(k, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Audit(k, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
