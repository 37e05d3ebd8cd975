package experiments

import (
	"fmt"

	"repro/internal/aging"
	"repro/internal/check"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/workloads"
)

// bootPinned describes the BootReserve extents of the standard host
// machine, so whole-machine audits can account for the frames no
// process owns.
func bootPinned(numaOff bool) []check.Extent {
	zones := 2
	if numaOff {
		zones = 1
	}
	var out []check.Extent
	for z := 0; z < zones; z++ {
		base := uint64(z) * hostZoneBlocks * addr.MaxOrderPages
		for b := 0; b < bootReserveBlocks; b++ {
			out = append(out, check.Extent{
				PFN:   base + uint64(b)*addr.MaxOrderPages,
				Pages: addr.MaxOrderPages,
			})
		}
	}
	return out
}

// RunAgingCampaign builds the standard host kernel under the named
// policy and runs one aging campaign on it. cfg.Pinned is filled from
// the kernel's boot reservations, and for sharded campaigns
// (cfg.Shards > 1) the shard-kernel factory is supplied here so the
// aging package stays decoupled from policy construction. cmd/agingsim
// calls this directly; the figAging drivers fan it out over a policy x
// horizon grid.
func RunAgingCampaign(pr Params, pol PolicyName, cfg aging.Config) (*aging.Trajectory, error) {
	k, ds := newNativeKernel(pr, pol, false)
	cfg.Pinned = bootPinned(false)
	if cfg.Shards > 1 {
		if cfg.ShardJobs == 0 {
			cfg.ShardJobs = pr.ShardJobs
		}
		cfg.NewShardKernel = shardKernelFactory(pr, pol)
	}
	tr, err := aging.New(k, ds, cfg).Run()
	if tr != nil {
		tr.Policy = string(pol)
	}
	if err == nil {
		recycleKernel(k)
	}
	return tr, err
}

// shardKernelFactory builds a sharded campaign's per-shard kernels:
// the campaign policy over the shard's zone view, with private daemon
// instances (so rotors, memos, and scan state never cross shards) and
// no boot reservations — the parent kernel placed those before the
// views were cut.
func shardKernelFactory(pr Params, pol PolicyName) func(view *zone.Machine, shard int) (*osim.Kernel, []workloads.Daemon) {
	return func(view *zone.Machine, shard int) (*osim.Kernel, []workloads.Daemon) {
		k := osim.NewKernel(view, placementFor(pol))
		var ds []workloads.Daemon
		switch pol {
		case PolicyIngens:
			ds = append(ds, daemon.NewIngens(k))
		case PolicyRanger:
			ds = append(ds, daemon.NewRanger(k))
		}
		k.SetTracer(pr.Tracer)
		return k, ds
	}
}

// agingConfig is the shared campaign shape of the figAging drivers:
// up to ten tenants of as much as 96 MiB against the 1.25 GiB host,
// 16 MiB dataset files every five steps, audits at every fourth
// snapshot, seeded from Params. The campaigns run sharded — one shard
// per host zone, each owning its zone outright — so the drivers also
// exercise the parallel shard stepping and the epoch barrier; the
// resulting tables are byte-identical at every Params.ShardJobs.
func agingConfig(pr Params, steps int) aging.Config {
	return aging.Config{
		Seed:              pr.Seed,
		Steps:             steps,
		SnapshotEvery:     10,
		MaxTenants:        10,
		MaxFootprintPages: 24576,
		ZipfS:             1.1, // heavy tail: big tenants arrive regularly
		FilePages:         4096,
		CacheChurnEvery:   5,
		Shards:            2, // one per host zone
		ShardJobs:         pr.ShardJobs,
	}
}

// FigAging ages every policy across two churn horizons and reports
// where each ends up: final fragmentation, the Gorman unusable free
// index for huge allocations, and the RSS the surviving tenants hold.
// This extends the paper's Fig. 9 fragmentation snapshot into a
// lifecycle measurement: not how fragmented a loaded machine is, but
// how fragmentation accretes as tenants come and go.
func FigAging(p Params) (*Table, error) {
	policies := []PolicyName{PolicyTHP, PolicyIngens, PolicyCA, PolicyEager, PolicyRanger}
	horizons := []int{120, 360}

	type cell struct {
		policy PolicyName
		steps  int
		traj   *aging.Trajectory
	}
	cells := make([]cell, 0, len(policies)*len(horizons))
	for _, pol := range policies {
		for _, steps := range horizons {
			cells = append(cells, cell{policy: pol, steps: steps})
		}
	}
	err := forEach(len(cells), p.jobs(), func(i int) error {
		c := &cells[i]
		tr, err := RunAgingCampaign(p, c.policy, agingConfig(p, c.steps))
		if err != nil {
			return fmt.Errorf("figAging %s/%d: %w", c.policy, c.steps, err)
		}
		c.traj = tr
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "figAging: fragmentation aging under tenant churn (policy x horizon)",
		Header: []string{"policy", "steps", "frag_permille", "ufi_2m", "ufi_max", "peak_rss_pages", "final_rss_pages", "faults"},
		Notes: []string{
			"campaigns churn Zipf-footprint tenants with page-cache pressure; audited whole-machine",
			"ufi is Gorman's unusable free space index at 2MiB / MAX_ORDER granularity (0 best, 1 worst)",
		},
	}
	for _, c := range cells {
		f := c.traj.Final()
		t.Rows = append(t.Rows, []string{
			string(c.policy),
			fmt.Sprintf("%d", c.steps),
			fmt.Sprintf("%d", f.FragPermille),
			f3(f.UFI2M),
			f3(f.UFIMax),
			fmt.Sprintf("%d", c.traj.PeakRSS()),
			fmt.Sprintf("%d", f.RSSPages),
			fmt.Sprintf("%d", f.Faults),
		})
	}
	return t, nil
}

// FigAgingTraj records the full fragmentation trajectory of three
// representative policies over one long horizon — the per-snapshot
// time series behind FigAging's endpoint summary, one row per
// snapshot step with per-policy columns.
func FigAgingTraj(p Params) (*Table, error) {
	policies := []PolicyName{PolicyTHP, PolicyCA, PolicyRanger}
	const steps = 240

	trajs := make([]*aging.Trajectory, len(policies))
	err := forEach(len(policies), p.jobs(), func(i int) error {
		tr, err := RunAgingCampaign(p, policies[i], agingConfig(p, steps))
		if err != nil {
			return fmt.Errorf("figAgingTraj %s: %w", policies[i], err)
		}
		trajs[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "figAgingTraj: fragmentation trajectories under churn (snapshot series)",
		Header: []string{"step"},
		Notes: []string{
			"frag in permille of free memory below huge blocks; rss in pages",
		},
	}
	for _, pol := range policies {
		t.Header = append(t.Header,
			string(pol)+".frag", string(pol)+".ufi2m", string(pol)+".rss")
	}
	for si := range trajs[0].Snapshots {
		row := []string{fmt.Sprintf("%d", trajs[0].Snapshots[si].Step)}
		for _, tr := range trajs {
			s := tr.Snapshots[si]
			row = append(row,
				fmt.Sprintf("%d", s.FragPermille),
				f3(s.UFI2M),
				fmt.Sprintf("%d", s.RSSPages))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
