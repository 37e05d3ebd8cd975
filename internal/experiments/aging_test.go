package experiments

import (
	"bytes"
	"runtime"
	"testing"
)

// TestFigAgingJobsInvariance pins that the aging grid is byte-identical
// at any parallelism: each campaign owns its kernel, rng, and result
// slot, so -jobs only changes wall-clock.
func TestFigAgingJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-campaign sweep")
	}
	render := func(jobs int) string {
		p := Params{StreamLen: 20_000, SettleEpochs: 30, Seed: 1, Jobs: jobs}
		tab, err := FigAging(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tab.Render(&buf)
		return buf.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("figAging differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", seq, par)
	}
}

// TestFigAgingShardJobsInvariance pins the sharded-campaign contract
// at the driver level: the figAging grid (which runs every campaign
// with one shard per host zone) is byte-identical whether the shards
// of each campaign step serially or concurrently — -shardjobs only
// changes wall-clock.
func TestFigAgingShardJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-campaign sweep")
	}
	render := func(shardJobs int) string {
		p := Params{StreamLen: 20_000, SettleEpochs: 30, Seed: 1, Jobs: 1, ShardJobs: shardJobs}
		tab, err := FigAging(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tab.Render(&buf)
		return buf.String()
	}
	var want string
	for _, jobs := range []int{1, 2, 0} { // 0 resolves to GOMAXPROCS
		got := render(jobs)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("figAging differs at -shardjobs %d:\n--- shardjobs=1\n%s\n--- shardjobs=%d\n%s", jobs, want, jobs, got)
		}
	}
}

// TestWarmCampaignHeapBytesPerStep bounds the heap a sharded Ranger
// aging campaign of the figAging shape allocates per step once an
// earlier campaign has warmed the depots: the first campaign's
// osim.Kernel.Recycle leaves its page-table nodes and page-cache slot
// arrays there, and the second campaign's tables and files take them.
// The warm campaign measures about 0.93 KB per step (0.98 KB under
// -race), most of it the per-campaign audit arena; building the
// kernels is inside the window. These regressions fail it:
//   - nothing but the machine recycled, so every file takes a fresh
//     32 KB slot array and every node pool refills from empty: about
//     6.2 KB per step;
//   - the recycled kernels' resident files keep their slot arrays:
//     about 4.7 KB per step;
//   - the node pools refill from empty each campaign: about 2.4 KB per
//     step.
func TestWarmCampaignHeapBytesPerStep(t *testing.T) {
	const (
		steps = 360
		bound = 1500 // bytes per step
	)
	p := Params{Seed: 1, ShardJobs: 2}
	cfg := agingConfig(p, steps)
	cfg.AuditEvery = 1
	campaign := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunAgingCampaign(p, PolicyRanger, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / steps
	}
	first := campaign()
	perStep := campaign()
	t.Logf("%.0f heap bytes per step warm (%.0f in the first campaign)", perStep, first)
	if perStep > bound {
		t.Fatalf("warm campaign allocates %.0f B per step, bound %d", perStep, bound)
	}
}
