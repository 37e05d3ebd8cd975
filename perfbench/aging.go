package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/aging"
	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// aging-churn is the figAging campaign shape under Ranger: up to ten
// tenants of as much as 96 MiB on the 1.25 GiB host, 16 MiB dataset
// files every five steps, two zone-owning shards stepped by two
// workers, and a whole-machine audit at every snapshot.
const (
	agingShards    = 2
	agingShardJobs = 2
	auditReps      = 5
)

type agingBench struct {
	seed      int64
	steps     int
	warmSteps int
}

func (b *agingBench) config(steps, jobs int) aging.Config {
	return aging.Config{
		Seed:              b.seed,
		Steps:             steps,
		SnapshotEvery:     10,
		AuditEvery:        1,
		MaxTenants:        10,
		MaxFootprintPages: 24576,
		ZipfS:             1.1,
		FilePages:         4096,
		CacheChurnEvery:   5,
		Shards:            agingShards,
		ShardJobs:         jobs,
	}
}

// campaign runs one whole campaign the way cmd/agingsim does and
// returns its digest (the trajectory CSV's sha256) and wall time.
func (b *agingBench) campaign(steps, jobs int, tr *trace.Tracer) (*aging.Trajectory, sample, error) {
	start := time.Now()
	traj, err := experiments.RunAgingCampaign(experiments.Params{Seed: b.seed, ShardJobs: jobs, Tracer: tr},
		experiments.PolicyRanger, b.config(steps, jobs))
	elapsed := time.Since(start)
	if err != nil {
		return nil, sample{}, fmt.Errorf("%w: campaign: %v", errGate, err)
	}
	digest, err := trajectoryDigest(traj)
	return traj, sample{ops: uint64(steps), elapsed: elapsed, digest: digest}, err
}

func trajectoryDigest(traj *aging.Trajectory) (string, error) {
	var buf bytes.Buffer
	if err := traj.WriteCSV(&buf); err != nil {
		return "", err
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:]), nil
}

// setup runs a short warm-up campaign: the campaign's inputs are drawn
// from its seeded rng as it runs, so set-up has nothing to generate,
// but the zone-machine pool and audit arenas fill here instead of in
// the first timed request.
func (b *agingBench) setup() error {
	_, _, err := b.campaign(b.warmSteps, agingShardJobs, nil)
	return err
}

func (b *agingBench) close() {}

func (b *agingBench) iterate() (sample, error) {
	_, s, err := b.campaign(b.steps, agingShardJobs, nil)
	return s, err
}

func (b *agingBench) reference() (string, error) {
	_, s, err := b.campaign(b.steps, 1, nil)
	return s.digest, err
}

// timedDaemon wraps a daemon and accumulates the wall time of its
// polls. It keeps the BatchDaemon interface, so the range-fault path
// still batches polls exactly as it would for the bare daemon.
type timedDaemon struct {
	d     workloads.Daemon
	busy  time.Duration
	polls uint64
}

func (t *timedDaemon) Maybe() { t.MaybeN(1) }

func (t *timedDaemon) MaybeN(n uint64) {
	start := time.Now()
	if b, ok := t.d.(workloads.BatchDaemon); ok {
		b.MaybeN(n)
	} else {
		for i := uint64(0); i < n; i++ {
			t.d.Maybe()
		}
	}
	t.busy += time.Since(start)
	t.polls += n
}

// tracedCampaign rebuilds RunAgingCampaign's construction through
// aging.New with every daemon wrapped in a timedDaemon, runs it with
// serial shard stepping, and leaves the aged machine for audit timing.
type tracedCampaign struct {
	k       *osim.Kernel
	kernels []*osim.Kernel
	daemons []*timedDaemon
	pinned  []check.Extent
}

func (b *agingBench) runTraced() (*tracedCampaign, *aging.Trajectory, time.Duration, error) {
	tc := &tracedCampaign{}
	m := hostMachine(false)
	tc.k = osim.NewKernel(m, osim.DefaultPolicy{})
	tc.k.BootReserve(1)
	tc.kernels = []*osim.Kernel{tc.k}
	for z := range m.Zones {
		tc.pinned = append(tc.pinned, check.Extent{PFN: uint64(z) * hostZoneBlocks * addr.MaxOrderPages, Pages: addr.MaxOrderPages})
	}
	wrap := func(k *osim.Kernel) *timedDaemon {
		t := &timedDaemon{d: daemon.NewRanger(k)}
		tc.daemons = append(tc.daemons, t)
		return t
	}
	cfg := b.config(b.steps, 1)
	cfg.Pinned = tc.pinned
	cfg.NewShardKernel = func(view *zone.Machine, _ int) (*osim.Kernel, []workloads.Daemon) {
		k := osim.NewKernel(view, osim.DefaultPolicy{})
		tc.kernels = append(tc.kernels, k)
		return k, []workloads.Daemon{wrap(k)}
	}
	start := time.Now()
	traj, err := aging.New(tc.k, []workloads.Daemon{wrap(tc.k)}, cfg).Run()
	elapsed := time.Since(start)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: traced campaign: %v", errGate, err)
	}
	return tc, traj, elapsed, nil
}

// traced runs a serial untraced campaign (the reference), the serial
// campaign with timed daemons, and a serial campaign with a counts-only
// tracer; all three trajectories must be byte-identical. Audit time is
// taken on the aged machine the timed-daemon campaign leaves behind.
func (b *agingBench) traced(l layers, _ float64) (string, uint64, error) {
	_, ref, err := b.campaign(b.steps, 1, nil)
	if err != nil {
		return "", 0, err
	}
	tc, traj, elapsed, err := b.runTraced()
	ops := 2 * uint64(b.steps)
	if err != nil {
		return "", ops, err
	}
	defer tc.k.Machine.Recycle()
	digest, err := trajectoryDigest(traj)
	if err != nil {
		return "", ops, err
	}
	counter := trace.NewCapped(0)
	_, counted, err := b.campaign(b.steps, 1, counter)
	ops += uint64(b.steps)
	if err != nil {
		return "", ops, err
	}
	if digest != ref.digest || counted.digest != ref.digest {
		return "", ops, fmt.Errorf("%w: traced campaign digests %s/%s differ from untraced %s", errGate, digest, counted.digest, ref.digest)
	}

	var busy time.Duration
	var polls uint64
	for _, d := range tc.daemons {
		busy += d.busy
		polls += d.polls
	}
	l["daemon.poll_ns"] = ratio(float64(busy.Nanoseconds()), float64(polls))
	l["daemon.polls"] = float64(polls)
	l["daemon.time_share"] = busy.Seconds() / elapsed.Seconds()
	l["bench.trace_overhead_pct"] = (elapsed.Seconds()/ref.elapsed.Seconds() - 1) * 100

	a := check.NewAuditor(tc.k.Machine)
	var audits []time.Duration
	for i := 0; i <= auditReps; i++ {
		start := time.Now()
		if err := a.AuditKernels(tc.k.Machine, tc.kernels, tc.pinned); err != nil {
			return "", ops, fmt.Errorf("%w: audit of the aged machine: %v", errGate, err)
		}
		if i > 0 { // the first audit sizes the arena
			audits = append(audits, time.Since(start))
		}
	}
	l["check.audit_ms"] = medianDur(audits) * 1e3
	l["aging.audits"] = float64(len(traj.Snapshots) + 1) // every snapshot, plus the final audit
	l["model.ufi_2m_final"] = traj.Final().UFI2M

	var faults, logBytes uint64
	for _, k := range tc.kernels {
		faults += k.Stats.TotalFaults()
		logBytes += uint64(len(k.Stats.FaultLatencies)) * 8
	}
	l["osim.faults_per_op"] = float64(faults) / float64(b.steps)
	l["osim.fault_log_mb"] = float64(logBytes) / (1 << 20)
	countLayers(l, counter, float64(b.steps))
	return ref.digest, ops, nil
}
