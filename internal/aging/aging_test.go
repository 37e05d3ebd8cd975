package aging_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/aging"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// shardCounts are the shard counts every campaign contract is checked
// at: one shard owning both test zones, and one shard per zone.
var shardCounts = []int{1, 2}

// policies are the placement policies every campaign gate covers.
var policies = []string{"thp", "ingens", "ca", "eager", "ranger"}

// newKernel boots a small two-zone machine (48 MAX_ORDER blocks per
// zone) under the named policy. Its boot reservations are not listed
// in Config.Pinned: the audits account for them from the kernel.
func newKernel(t *testing.T, policy string) (*osim.Kernel, []workloads.Daemon) {
	t.Helper()
	sys, err := core.NewNativeSystem(core.Config{ZonesMiB: []int{192, 192}, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return sys.Kernel, sys.Daemons
}

// shardFactory builds shard kernels as the experiment drivers do: the
// parent's policy over the shard's zone view, with private daemon
// instances.
func shardFactory(policy string) func(view *zone.Machine, shard int) (*osim.Kernel, []workloads.Daemon) {
	return func(view *zone.Machine, shard int) (*osim.Kernel, []workloads.Daemon) {
		k, ds, err := core.NewKernel(view, policy)
		if err != nil {
			panic(err)
		}
		return k, ds
	}
}

// smallConfig keeps campaigns quick while auditing at every snapshot.
func smallConfig(policy string, shards, shardJobs int) aging.Config {
	return aging.Config{
		Seed:              1,
		Steps:             60,
		SnapshotEvery:     5,
		AuditEvery:        1,
		MaxTenants:        6,
		MaxFootprintPages: 4096,
		FilePages:         1024,
		Shards:            shards,
		ShardJobs:         shardJobs,
		NewShardKernel:    shardFactory(policy),
	}
}

// render runs one campaign and returns its trajectory CSV.
func render(t *testing.T, policy string, cfg aging.Config) string {
	t.Helper()
	k, ds := newKernel(t, policy)
	tr, err := aging.New(k, ds, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// auditCleanCampaign churns one policy through a full campaign at the
// given shard count with a multi-kernel whole-machine audit at every
// snapshot: the lifecycle leaks this harness was built to flush out
// all surface here as audit or invariant failures. The shards step
// concurrently, so under -race this also proves the parallel phase
// shares no mutable state.
func auditCleanCampaign(t *testing.T, policy string, shards int) {
	t.Helper()
	k, ds := newKernel(t, policy)
	tr, err := aging.New(k, ds, smallConfig(policy, shards, runtime.GOMAXPROCS(0))).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Snapshots) != 60/5 {
		t.Fatalf("campaign recorded %d snapshots, want %d", len(tr.Snapshots), 60/5)
	}
	final := tr.Final()
	if final.Step != 60 {
		t.Fatalf("final snapshot at step %d, want 60", final.Step)
	}
	if final.Faults == 0 {
		t.Fatal("campaign took no faults — nothing was exercised")
	}
	if tr.PeakRSS() == 0 {
		t.Fatal("no tenant RSS ever recorded")
	}
}

// TestCampaignAuditCleanPerPolicy is the audit gate for the one-shard
// campaign, whose single shard owns both test zones.
func TestCampaignAuditCleanPerPolicy(t *testing.T) {
	for _, policy := range policies {
		t.Run(policy, func(t *testing.T) { auditCleanCampaign(t, policy, 1) })
	}
}

// TestShardedCampaignAuditCleanPerPolicy is the audit gate for two
// concurrently stepped shards, one per test zone.
func TestShardedCampaignAuditCleanPerPolicy(t *testing.T) {
	for _, policy := range policies {
		t.Run(policy, func(t *testing.T) { auditCleanCampaign(t, policy, 2) })
	}
}

// TestShardedCampaignDrainsProcesses pins the teardown contract at
// every shard count: the campaign builds one kernel per shard, and
// after the final audit no process survives on any of them. (Tenants
// live on the shard kernels; the parent kernel never runs one.)
func TestShardedCampaignDrainsProcesses(t *testing.T) {
	for _, shards := range shardCounts {
		k, ds := newKernel(t, "ca")
		var shardKernels []*osim.Kernel
		cfg := smallConfig("ca", shards, 2)
		cfg.NewShardKernel = func(view *zone.Machine, shard int) (*osim.Kernel, []workloads.Daemon) {
			sk, sds := shardFactory("ca")(view, shard)
			shardKernels = append(shardKernels, sk)
			return sk, sds
		}
		if _, err := aging.New(k, ds, cfg).Run(); err != nil {
			t.Fatal(err)
		}
		if len(shardKernels) != shards {
			t.Fatalf("shards=%d: built %d shard kernels", shards, len(shardKernels))
		}
		for i, sk := range shardKernels {
			if n := len(sk.Processes()); n != 0 {
				t.Fatalf("shards=%d: shard %d: %d processes survived the drain", shards, i, n)
			}
		}
	}
}

// TestCampaignDeterministic pins that a campaign is a pure function of
// its configuration: repeated runs produce byte-identical trajectory
// CSVs at every shard count — the property the figAging drivers and
// golden tables rely on.
func TestCampaignDeterministic(t *testing.T) {
	for _, shards := range shardCounts {
		want := render(t, "ranger", smallConfig("ranger", shards, 1))
		if strings.Count(want, "\n") != 60/5+1 {
			t.Fatalf("shards=%d: unexpected CSV shape:\n%s", shards, want)
		}
		if got := render(t, "ranger", smallConfig("ranger", shards, 1)); got != want {
			t.Fatalf("shards=%d: repeated runs differ:\n--- first\n%s\n--- second\n%s", shards, want, got)
		}
	}
}

// TestShardedCampaignShardJobsInvariance pins the stepping contract: a
// trajectory is a pure function of (Seed, Shards) — byte-identical
// whether shards step serially, two at a time, or on every core.
func TestShardedCampaignShardJobsInvariance(t *testing.T) {
	for _, shards := range shardCounts {
		want := render(t, "ranger", smallConfig("ranger", shards, 1))
		for _, jobs := range []int{2, runtime.GOMAXPROCS(0)} {
			if got := render(t, "ranger", smallConfig("ranger", shards, jobs)); got != want {
				t.Fatalf("shards=%d: trajectory depends on ShardJobs=%d:\n--- jobs=1\n%s\n--- jobs=%d\n%s",
					shards, jobs, want, jobs, got)
			}
		}
	}
}

// seedsDiffer guards the per-shard rng derivation: seeds 1 and 2 must
// not produce the same trajectory at the given shard count.
func seedsDiffer(t *testing.T, shards int) {
	t.Helper()
	cfg := smallConfig("thp", shards, 1)
	a := render(t, "thp", cfg)
	cfg.Seed = 2
	if a == render(t, "thp", cfg) {
		t.Fatalf("shards=%d: seeds 1 and 2 produced identical trajectories", shards)
	}
}

// TestCampaignSeedsDiffer checks the seed reaches the one-shard stream.
func TestCampaignSeedsDiffer(t *testing.T) { seedsDiffer(t, 1) }

// TestShardedCampaignSeedsDiffer checks the seed reaches every stream
// of a two-shard campaign.
func TestShardedCampaignSeedsDiffer(t *testing.T) { seedsDiffer(t, 2) }

// TestShardCountChangesTrajectory documents that the shard count is
// part of the campaign, not a re-ordering of it: Shards 1 and 2 give
// different (each deterministic) trajectories, because the streams,
// daemon schedules, and OOM handling are per shard.
func TestShardCountChangesTrajectory(t *testing.T) {
	if render(t, "thp", smallConfig("thp", 1, 1)) == render(t, "thp", smallConfig("thp", 2, 1)) {
		t.Fatal("Shards 1 and 2 coincided — sharding is not being exercised")
	}
}

// TestShardedCampaignClampsShards pins the shard-count normalisation:
// asking for more shards than zones degrades to one shard per zone
// rather than leaving zoneless shards spinning, and a zero count means
// one shard. (A negative count is an error: TestInvalidConfigErrors.)
func TestShardedCampaignClampsShards(t *testing.T) {
	for _, c := range []struct{ shards, want int }{{16, 2}, {0, 1}} {
		got := render(t, "thp", smallConfig("thp", c.shards, 1))
		if want := render(t, "thp", smallConfig("thp", c.want, 1)); got != want {
			t.Fatalf("Shards=%d on a two-zone machine differs from Shards=%d:\n--- %d\n%s\n--- %d\n%s",
				c.shards, c.want, c.shards, got, c.want, want)
		}
	}
}

// TestShardedCampaignWithoutFactoryErrors pins the configuration
// contract: a missing NewShardKernel is reported by Run as an error,
// never a panic, at every shard count.
func TestShardedCampaignWithoutFactoryErrors(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("bad config panicked: %v", r)
		}
	}()
	for _, shards := range shardCounts {
		k, ds := newKernel(t, "thp")
		cfg := smallConfig("thp", shards, 1)
		cfg.NewShardKernel = nil
		tr, err := aging.New(k, ds, cfg).Run()
		if !errors.Is(err, aging.ErrConfig) || !strings.Contains(err.Error(), "NewShardKernel") {
			t.Fatalf("shards=%d: Run error = %v, want a missing-NewShardKernel error", shards, err)
		}
		if tr != nil {
			t.Fatalf("shards=%d: Run returned a trajectory for an invalid config", shards)
		}
	}
}

// TestInvalidConfigErrors pins that each config the campaign cannot
// run is reported by Run as an ErrConfig naming the field, with no
// trajectory and no panic: a ZipfS <= 1 (rand.NewZipf returns nil and
// the first arrival would panic) and a negative Steps, SnapshotEvery
// or Shards (which would give an empty or every-step trajectory).
func TestInvalidConfigErrors(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*aging.Config)
	}{
		{"ZipfS", func(c *aging.Config) { c.ZipfS = 1 }},
		{"ZipfS", func(c *aging.Config) { c.ZipfS = 0.5 }},
		{"ZipfS", func(c *aging.Config) { c.ZipfS = -2 }},
		{"ZipfS", func(c *aging.Config) { c.ZipfS = math.NaN() }},
		{"Steps", func(c *aging.Config) { c.Steps = -1 }},
		{"SnapshotEvery", func(c *aging.Config) { c.SnapshotEvery = -3 }},
		{"Shards", func(c *aging.Config) { c.Shards = -1 }},
	} {
		cfg := smallConfig("thp", 2, 2)
		c.set(&cfg)
		k, ds := newKernel(t, "thp")
		var tr *aging.Trajectory
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: bad config panicked: %v", c.field, r)
				}
			}()
			tr, err = aging.New(k, ds, cfg).Run()
		}()
		if !errors.Is(err, aging.ErrConfig) || !strings.Contains(err.Error(), c.field) {
			t.Fatalf("%s: Run error = %v, want an ErrConfig naming %s", c.field, err, c.field)
		}
		if tr != nil {
			t.Fatalf("%s: Run returned a trajectory for an invalid config", c.field)
		}
	}
}

// TestRunStopsTeamHelpers shows no shard-team helper outlives Run, on
// a clean campaign and on each error return: a config error before
// any step, and an audit failure after the helpers have stepped shards
// and swept zones. The failing audit pins all of zone 1, free frames
// included.
func TestRunStopsTeamHelpers(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*aging.Config, *osim.Kernel)
		want string // a substring of Run's error; "" for none
	}{
		{"clean", func(*aging.Config, *osim.Kernel) {}, ""},
		{"no-factory", func(c *aging.Config, _ *osim.Kernel) { c.NewShardKernel = nil }, "NewShardKernel"},
		{"failing-audit", func(c *aging.Config, k *osim.Kernel) {
			z := k.Machine.Zones[1]
			c.Pinned = []check.Extent{{PFN: uint64(z.Base), Pages: z.Pages}}
		}, "audit after step"},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k, ds := newKernel(t, "thp")
			cfg := smallConfig("thp", 2, 2)
			c.set(&cfg, k)
			_, err := aging.New(k, ds, cfg).Run()
			if got := fmt.Sprint(err); (err == nil) != (c.want == "") || !strings.Contains(got, c.want) {
				t.Fatalf("Run error = %v, want one containing %q", err, c.want)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after Run, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestShardedCampaignTracesShardEvents checks the shard observability
// contract at every shard count, Shards=1 included: epoch spans per
// shard per step, barrier spans per step, and epoch spans naming
// exactly the campaign's shards.
func TestShardedCampaignTracesShardEvents(t *testing.T) {
	const steps = 60
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tr := trace.New()
			k, ds := newKernel(t, "thp")
			k.SetTracer(tr)
			cfg := smallConfig("thp", shards, 2)
			cfg.NewShardKernel = func(view *zone.Machine, shard int) (*osim.Kernel, []workloads.Daemon) {
				sk, sds := shardFactory("thp")(view, shard)
				sk.SetTracer(tr)
				return sk, sds
			}
			if _, err := aging.New(k, ds, cfg).Run(); err != nil {
				t.Fatal(err)
			}
			if n := tr.Count(trace.EvShardEpoch); n != uint64(shards*steps) {
				t.Fatalf("EvShardEpoch count = %d, want %d (%d shards x %d steps)", n, shards*steps, shards, steps)
			}
			if n := tr.Count(trace.EvShardBarrier); n != steps {
				t.Fatalf("EvShardBarrier count = %d, want %d (one per step)", n, steps)
			}
			named := map[uint64]bool{}
			for _, e := range tr.Events() {
				if e.Kind == trace.EvShardEpoch {
					named[e.A] = true
				}
			}
			for s := 0; s < shards; s++ {
				if !named[uint64(s)] {
					t.Fatalf("epoch spans name shards %v, want 0..%d", named, shards-1)
				}
			}
			if len(named) != shards {
				t.Fatalf("epoch spans name shards %v, want 0..%d", named, shards-1)
			}
		})
	}
}
