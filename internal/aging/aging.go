// Package aging runs long logical-time fragmentation-aging campaigns:
// tenants arrive with Zipf-skewed footprints, touch their memory, and
// exit, while page-cache fill/evict pressure and periodic daemon
// epochs churn the physical free pool. A campaign records how external
// fragmentation evolves — FragScore-style permille plus Gorman's
// unusable free space index per order — as a deterministic trajectory
// of snapshots, and periodically cross-checks the whole machine with
// internal/check audits.
//
// The harness exists because the steady-state experiment drivers never
// exercise the full process lifecycle: the Ranger plan leak and the
// Ingens fork/promote CoW clobber (see the churn regression tests in
// internal/osim/daemon) both only manifest once tenants exit and fork
// under a long-running daemon. Campaigns are deterministic per seed:
// the same Config produces a byte-identical trajectory CSV at any
// parallelism.
package aging

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/check"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/metrics"
	"repro/internal/osim"
	"repro/internal/osim/vma"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Config parameterises one aging campaign. Zero values select the
// defaults noted on each field.
type Config struct {
	// Seed drives every random decision of the campaign.
	Seed int64
	// Steps is the churn-step horizon (default 200).
	Steps int
	// SnapshotEvery records a trajectory snapshot every N steps
	// (default 10).
	SnapshotEvery int
	// AuditEvery runs a whole-machine check.Audit every N snapshots
	// (default 4; 0 keeps the default — use -1 to disable mid-run
	// audits). A final audit always runs at campaign end.
	AuditEvery int
	// MaxTenants caps the concurrently live tenant population
	// (default 8).
	MaxTenants int
	// MinFootprintPages / MaxFootprintPages bound tenant footprints;
	// draws are Min + Zipf(Max-Min), skewing small (defaults 256 and
	// 16384 pages: 1 MiB to 64 MiB).
	MinFootprintPages uint64
	MaxFootprintPages uint64
	// ZipfS is the Zipf skew exponent (must be > 1; default 1.4).
	ZipfS float64
	// FilePages sizes each dataset file read through the page cache
	// (default 2048 pages = 8 MiB).
	FilePages uint64
	// CacheChurnEvery reads a fresh file every N steps (default 7;
	// -1 disables cache churn).
	CacheChurnEvery int
	// ReclaimFreeFrac is the free-memory floor handed to the page
	// cache's ReclaimUnder after cache churn (default 0.1).
	ReclaimFreeFrac float64
	// SettleEpochs is the number of daemon epochs ticked after every
	// churn step (default 2).
	SettleEpochs int
	// Pinned are frame extents the audits must treat as intentionally
	// allocated outside any process (boot reservations).
	Pinned []check.Extent

	// Shards splits the campaign into independently stepped tenant
	// streams (default 1: the historical single-stream campaign,
	// byte-identical to earlier releases). With N > 1 the machine's
	// zones are dealt round-robin to N shards; each shard owns its
	// zones outright through a zone view and steps with its own
	// kernel, daemon set, RNG stream, and logical clock, so shards
	// can run concurrently without sharing any mutable state. An
	// explicit epoch barrier merges the cross-shard effects —
	// OOM-driven reclaim of the parent's page cache, cache churn,
	// snapshots, and whole-machine audits — in shard-index order.
	// Shards is clamped to the zone count.
	Shards int
	// ShardJobs bounds the workers stepping shards concurrently when
	// Shards > 1 (<=0 selects GOMAXPROCS; 1 steps shards serially).
	// Trajectories are deterministic in (Seed, Shards) and
	// byte-identical at every ShardJobs value; only wall-clock moves.
	ShardJobs int
	// NewShardKernel builds one shard's kernel when Shards > 1: given
	// the shard's zone view and index it returns the kernel (policy
	// attached, no boot reservations — the parent kernel owns those)
	// and the shard's private daemon set. Required when Shards > 1
	// (Run returns an error without it); experiments.RunAgingCampaign
	// supplies the standard construction.
	NewShardKernel func(view *zone.Machine, shard int) (*osim.Kernel, []workloads.Daemon)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Steps == 0 {
		c.Steps = 200
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 10
	}
	if c.AuditEvery == 0 {
		c.AuditEvery = 4
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = 8
	}
	if c.MinFootprintPages == 0 {
		c.MinFootprintPages = 256
	}
	if c.MaxFootprintPages == 0 {
		c.MaxFootprintPages = 16384
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.4
	}
	if c.FilePages == 0 {
		c.FilePages = 2048
	}
	if c.CacheChurnEvery == 0 {
		c.CacheChurnEvery = 7
	}
	if c.ReclaimFreeFrac == 0 {
		c.ReclaimFreeFrac = 0.1
	}
	if c.SettleEpochs == 0 {
		c.SettleEpochs = 2
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c
}

// Snapshot is one point of a campaign trajectory.
type Snapshot struct {
	Step         int     // churn step the snapshot was taken after
	ClockNs      uint64  // kernel logical clock
	Tenants      int     // live tenant count
	RSSPages     uint64  // summed process RSS
	CachePages   uint64  // resident page-cache frames
	FreePages    uint64  // machine-wide free frames
	FragPermille uint64  // permille of free memory below huge blocks
	UFI2M        float64 // Gorman unusable free index at HugeOrder
	UFIMax       float64 // Gorman unusable free index at MaxOrder
	Faults       uint64  // cumulative fault count
}

// Trajectory is a campaign's recorded snapshot series.
type Trajectory struct {
	Policy    string
	Snapshots []Snapshot
}

// WriteCSV renders the trajectory as a stable CSV table.
func (tr *Trajectory) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w,
		"step,clock_ns,tenants,rss_pages,cache_pages,free_pages,frag_permille,ufi_2m,ufi_max,faults\n"); err != nil {
		return err
	}
	for _, s := range tr.Snapshots {
		line := fmt.Sprintf("%d,%d,%d,%d,%d,%d,%d,%s,%s,%d\n",
			s.Step, s.ClockNs, s.Tenants, s.RSSPages, s.CachePages,
			s.FreePages, s.FragPermille,
			strconv.FormatFloat(s.UFI2M, 'f', 4, 64),
			strconv.FormatFloat(s.UFIMax, 'f', 4, 64),
			s.Faults)
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	return nil
}

// Final returns the last snapshot (zero value when none recorded).
func (tr *Trajectory) Final() Snapshot {
	if len(tr.Snapshots) == 0 {
		return Snapshot{}
	}
	return tr.Snapshots[len(tr.Snapshots)-1]
}

// PeakRSS returns the largest RSS seen across the trajectory.
func (tr *Trajectory) PeakRSS() uint64 {
	var peak uint64
	for _, s := range tr.Snapshots {
		if s.RSSPages > peak {
			peak = s.RSSPages
		}
	}
	return peak
}

// tenant is one live simulated process with its populated footprint.
type tenant struct {
	env   *workloads.Env
	vma   *vma.VMA
	pages uint64 // footprint in base pages
}

// Campaign drives one aging run over a kernel and its daemons.
type Campaign struct {
	k    *osim.Kernel
	ds   []workloads.Daemon
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf

	// auditor is the campaign's reusable audit arena: one flat-array
	// Auditor held for the whole run, so the periodic whole-machine
	// audits reuse their PFN-indexed scratch across snapshots instead
	// of rebuilding hash maps at every audit.
	auditor *check.Auditor

	tenants  []*tenant
	arrivals int // total tenants ever admitted (round-robins zones)

	// shards is non-empty when cfg.Shards > 1: the campaign steps the
	// shards (concurrently up to cfg.ShardJobs) and merges their
	// effects at epoch barriers; the parent kernel k then serves only
	// the shared page cache and the machine-wide measurements.
	shards []*shard

	gaugeIDs struct {
		tenants, rss, cache, free, frag, ufi2m int
	}

	// err is a configuration error found by New; Run reports it.
	err error
}

// shard is one independently stepped tenant stream owning a zone
// subset. Everything a shard touches during its parallel step — its
// kernel, its view's zones, its rng/zipf stream, its tenants — is
// private to it; cross-shard effects are deferred to the barrier.
type shard struct {
	idx  int
	k    *osim.Kernel
	ds   []workloads.Daemon
	rng  *rand.Rand
	zipf *rand.Zipf

	tenants  []*tenant
	arrivals int // round-robins the shard's own zones

	// pending are arrivals that hit OOM during the parallel phase; the
	// barrier retries them after squeezing the shared page cache.
	pending []pendingArrival
	// wantReclaim marks a touch-path OOM whose cache reclaim is
	// deferred to the barrier.
	wantReclaim bool
	// err is the shard's step failure, reported at the barrier in
	// shard-index order so failures are deterministic.
	err error
}

// pendingArrival is a populated-as-far-as-it-got tenant admission
// parked for the barrier's global-reclaim retry. vma is nil when the
// OOM hit inside MMap itself (eager placement populates there, and a
// failed mmap tears its partial backing down): the barrier restarts
// the admission from the mmap.
type pendingArrival struct {
	env   *workloads.Env
	vma   *vma.VMA
	pages uint64
}

// New builds a campaign over an existing kernel and daemon set. The
// kernel's policy and daemons define the anti-fragmentation regime
// under test; the campaign only churns tenants and the page cache.
func New(k *osim.Kernel, ds []workloads.Daemon, cfg Config) *Campaign {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	span := cfg.MaxFootprintPages - cfg.MinFootprintPages
	c := &Campaign{
		k:       k,
		ds:      ds,
		cfg:     cfg,
		rng:     rng,
		zipf:    rand.NewZipf(rng, cfg.ZipfS, 1, span),
		auditor: check.NewAuditor(k.Machine),
	}
	t := k.Tracer
	c.gaugeIDs.tenants = t.Gauge("aging.tenants")
	c.gaugeIDs.rss = t.Gauge("aging.rss_pages")
	c.gaugeIDs.cache = t.Gauge("aging.cache_pages")
	c.gaugeIDs.free = t.Gauge("aging.free_pages")
	c.gaugeIDs.frag = t.Gauge("aging.frag_permille")
	c.gaugeIDs.ufi2m = t.Gauge("aging.ufi2m_permille")

	if shards := c.cfg.Shards; shards > 1 {
		if shards > len(k.Machine.Zones) {
			shards = len(k.Machine.Zones)
			c.cfg.Shards = shards
		}
	}
	if c.cfg.Shards > 1 {
		if cfg.NewShardKernel == nil {
			c.err = errors.New("aging: Config.Shards > 1 requires NewShardKernel")
			return c
		}
		for s := 0; s < c.cfg.Shards; s++ {
			var owned []int
			for z := s; z < len(k.Machine.Zones); z += c.cfg.Shards {
				owned = append(owned, z)
			}
			sk, sds := cfg.NewShardKernel(k.Machine.View(owned...), s)
			// Decorrelate the shard streams from each other and from
			// the parent's cache-churn stream with a fixed odd-multiplier
			// seed derivation (deterministic in Seed and shard index).
			srng := rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(s+1)*0x9E3779B97F4A7C15)))
			c.shards = append(c.shards, &shard{
				idx:  s,
				k:    sk,
				ds:   sds,
				rng:  srng,
				zipf: rand.NewZipf(srng, cfg.ZipfS, 1, span),
			})
		}
	}
	return c
}

// Run executes the campaign and returns its trajectory. A non-nil
// error means the configuration was invalid (nil trajectory) or a
// whole-machine audit failed (the trajectory up to the failing
// snapshot is returned alongside it).
func (c *Campaign) Run() (*Trajectory, error) {
	if c.err != nil {
		return nil, c.err
	}
	if len(c.shards) > 0 {
		return c.runSharded()
	}
	tr := &Trajectory{Policy: c.k.Policy.Name()}
	sinceSnap, snaps := 0, 0
	for step := 1; step <= c.cfg.Steps; step++ {
		if err := c.churnStep(); err != nil {
			return tr, fmt.Errorf("aging: step %d: %w", step, err)
		}
		if c.cfg.CacheChurnEvery > 0 && step%c.cfg.CacheChurnEvery == 0 {
			if err := c.cacheChurn(); err != nil {
				return tr, fmt.Errorf("aging: step %d cache churn: %w", step, err)
			}
		}
		workloads.SettleDaemons(c.k, c.ds, c.cfg.SettleEpochs)

		sinceSnap++
		if sinceSnap < c.cfg.SnapshotEvery && step != c.cfg.Steps {
			continue
		}
		sinceSnap = 0
		snaps++
		tr.Snapshots = append(tr.Snapshots, c.snapshot(step))
		if c.cfg.AuditEvery > 0 && snaps%c.cfg.AuditEvery == 0 {
			if err := c.auditor.Audit(c.k, c.cfg.Pinned); err != nil {
				return tr, fmt.Errorf("aging: audit after step %d: %w", step, err)
			}
		}
	}
	// Drain the tenant population so the final audit also covers the
	// teardown path (where the lifecycle bugs lived).
	for len(c.tenants) > 0 {
		c.exitTenant(len(c.tenants) - 1)
	}
	workloads.SettleDaemons(c.k, c.ds, c.cfg.SettleEpochs)
	if err := c.auditor.Audit(c.k, c.cfg.Pinned); err != nil {
		return tr, fmt.Errorf("aging: final audit: %w", err)
	}
	return tr, nil
}

// ChurnAction is one tenant lifecycle action drawn from the campaign's
// fixed churn mix.
type ChurnAction uint8

const (
	// ChurnArrive admits a new tenant.
	ChurnArrive ChurnAction = iota
	// ChurnTouch re-touches an existing tenant's footprint.
	ChurnTouch
	// ChurnExit tears a tenant down.
	ChurnExit
)

// ChurnRoll draws one lifecycle action from the fixed deterministic mix
// (arrive 30 %, touch 50 %, exit 20 %) adjusted at the population
// bounds: an empty population always arrives, a full one never does,
// and the last live tenant never exits. It consumes exactly one rng
// draw, so callers can interleave it with their own parameter draws and
// stay deterministic. The campaigns' churnStep/shardChurn draw from it,
// and tracein.Synth reuses it so synthesized serving traces mirror the
// aging campaigns' arrival/exit dynamics.
func ChurnRoll(rng *rand.Rand, live, maxTenants int) ChurnAction {
	roll := rng.Intn(10)
	switch {
	case live == 0 || (roll < 3 && live < maxTenants):
		return ChurnArrive
	case roll < 8 || live == 1:
		return ChurnTouch
	default:
		return ChurnExit
	}
}

// churnStep performs one tenant lifecycle action, chosen from the
// ChurnRoll mix.
func (c *Campaign) churnStep() error {
	switch ChurnRoll(c.rng, len(c.tenants), c.cfg.MaxTenants) {
	case ChurnArrive:
		return c.arrive()
	case ChurnTouch:
		return c.touch()
	default:
		c.exitTenant(c.rng.Intn(len(c.tenants)))
		return nil
	}
}

// arrive admits one tenant with a Zipf-skewed footprint and populates
// it. Under memory pressure the page cache is squeezed first; a tenant
// that still cannot fit is torn down again (the simulated OOM kill),
// which is itself lifecycle churn worth exercising.
func (c *Campaign) arrive() error {
	pages := c.cfg.MinFootprintPages + c.zipf.Uint64()
	zone := c.arrivals % len(c.k.Machine.Zones)
	c.arrivals++
	env := workloads.NewNativeEnv(c.k, zone)
	env.Daemons = c.ds
	v, err := env.MMap(addr.PagesToBytes(pages))
	if err != nil {
		return err
	}
	err = env.Populate(v)
	if errors.Is(err, osim.ErrOOM) {
		c.k.Cache.ReclaimUnder(c.cfg.ReclaimFreeFrac)
		err = env.Populate(v)
	}
	if errors.Is(err, osim.ErrOOM) {
		env.Exit()
		return nil
	}
	if err != nil {
		return err
	}
	c.tenants = append(c.tenants, &tenant{env: env, vma: v, pages: pages})
	return nil
}

// touch revisits a random contiguous chunk of a random tenant's
// footprint, re-dirtying it (and faulting any pages an eager policy
// left unmapped after migrations).
func (c *Campaign) touch() error {
	t := c.tenants[c.rng.Intn(len(c.tenants))]
	v := t.vma
	chunk := t.pages / 4
	if chunk == 0 {
		chunk = t.pages
	}
	start := uint64(0)
	if t.pages > chunk {
		start = uint64(c.rng.Int63n(int64(t.pages - chunk)))
	}
	err := t.env.PopulateRange(v, v.Start.Add(addr.PagesToBytes(start)), addr.PagesToBytes(chunk))
	if errors.Is(err, osim.ErrOOM) {
		// Pressure: squeeze the cache and move on; the next touch
		// retries naturally.
		c.k.Cache.ReclaimUnder(c.cfg.ReclaimFreeFrac)
		return nil
	}
	return err
}

// exitTenant tears down tenant i.
func (c *Campaign) exitTenant(i int) {
	c.tenants[i].env.Exit()
	c.tenants = append(c.tenants[:i], c.tenants[i+1:]...)
}

// cacheChurn reads a fresh dataset file through the page cache and
// applies eviction pressure, alternating DropOldest with the free-frac
// reclaim sweep.
func (c *Campaign) cacheChurn() error {
	f := c.k.Cache.CreateFile(addr.PagesToBytes(c.cfg.FilePages))
	if err := c.k.Cache.Read(f, 0, f.Bytes); err != nil && !errors.Is(err, osim.ErrOOM) {
		return err
	}
	if c.rng.Intn(2) == 0 {
		c.k.Cache.DropOldest()
	}
	c.k.Cache.ReclaimUnder(c.cfg.ReclaimFreeFrac)
	return nil
}

// snapshot measures the machine and records/emits one trajectory point.
func (c *Campaign) snapshot(step int) Snapshot {
	var rss uint64
	for _, p := range c.k.Processes() {
		rss += p.RSSPages
	}
	return c.emitSnapshot(Snapshot{
		Step:     step,
		ClockNs:  c.k.Clock,
		Tenants:  len(c.tenants),
		RSSPages: rss,
		Faults:   c.k.Stats.TotalFaults(),
	})
}

// emitSnapshot fills the machine-wide fields of a partially measured
// snapshot (the caller provides the per-stream ones), refreshes the
// campaign gauges, and emits the snapshot event plus a counter sample.
func (c *Campaign) emitSnapshot(s Snapshot) Snapshot {
	// Sum the buddies' per-order counters instead of walking every free
	// block: snapshots are on the campaign hot path, and the counter read
	// is O(orders) where the visitor was O(free blocks).
	var hist [addr.MaxOrder + 1]uint64
	for _, z := range c.k.Machine.Zones {
		oc := z.Buddy.OrderCounts()
		for o, n := range oc {
			hist[o] += n
		}
	}
	ufi2m := metrics.UnusableFreeIndex(hist, addr.HugeOrder)
	s.CachePages = c.k.Cache.ResidentPages
	s.FreePages = c.k.Machine.FreePages()
	s.FragPermille = uint64(ufi2m*1000 + 0.5)
	s.UFI2M = ufi2m
	s.UFIMax = metrics.UnusableFreeIndex(hist, addr.MaxOrder)

	t := c.k.Tracer
	t.SetGauge(c.gaugeIDs.tenants, uint64(s.Tenants))
	t.SetGauge(c.gaugeIDs.rss, s.RSSPages)
	t.SetGauge(c.gaugeIDs.cache, s.CachePages)
	t.SetGauge(c.gaugeIDs.free, s.FreePages)
	t.SetGauge(c.gaugeIDs.frag, s.FragPermille)
	t.SetGauge(c.gaugeIDs.ufi2m, uint64(s.UFI2M*1000+0.5))
	t.Emit(trace.EvAgingSnapshot, uint64(s.Step), s.RSSPages, s.FragPermille)
	c.k.Machine.TraceDepths()
	t.Sample()
	return s
}

// --- sharded campaign ---
//
// With cfg.Shards > 1 each epoch has two phases. The parallel phase
// steps every shard once — churn, then the shard's private daemon
// settle — touching only shard-owned state (its kernel and clock, its
// view's zones and frame records, its rng/zipf stream, its tenants),
// which makes the phase race-free at any ShardJobs and its outcome
// independent of worker interleaving. The serial barrier then merges
// the cross-shard effects in shard-index order: deferred OOM handling
// against the parent's page cache, periodic cache churn on the parent
// kernel (which may allocate from any zone — safe, nothing else runs),
// snapshots over the union machine, and multi-kernel audits.

// runSharded is Run for Shards > 1.
func (c *Campaign) runSharded() (*Trajectory, error) {
	tr := &Trajectory{Policy: c.k.Policy.Name()}
	sinceSnap, snaps := 0, 0
	for step := 1; step <= c.cfg.Steps; step++ {
		c.stepShards(step)
		if err := c.barrier(step); err != nil {
			return tr, err
		}

		sinceSnap++
		if sinceSnap < c.cfg.SnapshotEvery && step != c.cfg.Steps {
			continue
		}
		sinceSnap = 0
		snaps++
		tr.Snapshots = append(tr.Snapshots, c.snapshotSharded(step))
		if c.cfg.AuditEvery > 0 && snaps%c.cfg.AuditEvery == 0 {
			if err := c.auditSharded(); err != nil {
				return tr, fmt.Errorf("aging: audit after step %d: %w", step, err)
			}
		}
	}
	// Drain every shard's tenants so the final audit covers teardown,
	// mirroring the single-stream campaign.
	for _, s := range c.shards {
		for len(s.tenants) > 0 {
			s.exit(len(s.tenants) - 1)
		}
		workloads.SettleDaemons(s.k, s.ds, c.cfg.SettleEpochs)
	}
	if err := c.auditSharded(); err != nil {
		return tr, fmt.Errorf("aging: final audit: %w", err)
	}
	return tr, nil
}

// shardJobs resolves the parallel-phase worker bound.
func (c *Campaign) shardJobs() int {
	if c.cfg.ShardJobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.cfg.ShardJobs
}

// stepShards runs every shard's epoch step, concurrently up to
// ShardJobs workers. Failures land in shard.err; the barrier reports
// the lowest-index one so errors are deterministic too.
func (c *Campaign) stepShards(step int) {
	jobs := c.shardJobs()
	if jobs <= 1 {
		for _, s := range c.shards {
			c.shardStep(s, step)
		}
		return
	}
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for _, s := range c.shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c.shardStep(s, step)
		}(s)
	}
	wg.Wait()
}

// shardStep is one shard's parallel-phase work: one churn action plus
// the shard's private daemon settle window.
func (c *Campaign) shardStep(s *shard, step int) {
	t := c.k.Tracer
	start := t.Start()
	if err := c.shardChurn(s); err != nil {
		s.err = err
		return
	}
	workloads.SettleDaemons(s.k, s.ds, c.cfg.SettleEpochs)
	t.EmitSpan(trace.EvShardEpoch, start, uint64(s.idx), uint64(step), s.k.Clock)
}

// shardMaxTenants deals the population cap across shards (remainder to
// the low indexes), never below one.
func (c *Campaign) shardMaxTenants(idx int) int {
	n := c.cfg.MaxTenants / len(c.shards)
	if idx < c.cfg.MaxTenants%len(c.shards) {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// shardChurn is churnStep on one shard's private stream.
func (c *Campaign) shardChurn(s *shard) error {
	switch ChurnRoll(s.rng, len(s.tenants), c.shardMaxTenants(s.idx)) {
	case ChurnArrive:
		return c.shardArrive(s)
	case ChurnTouch:
		return c.shardTouch(s)
	default:
		s.exit(s.rng.Intn(len(s.tenants)))
		return nil
	}
}

// shardArrive admits one tenant into the shard's own zones. An OOM is
// not resolved here — reclaiming the parent's page cache is a
// cross-shard effect — so the admission parks on the pending list for
// the barrier to retry.
func (c *Campaign) shardArrive(s *shard) error {
	pages := c.cfg.MinFootprintPages + s.zipf.Uint64()
	zoneIdx := s.arrivals % len(s.k.Machine.Zones)
	s.arrivals++
	env := workloads.NewNativeEnv(s.k, zoneIdx)
	env.Daemons = s.ds
	v, err := env.MMap(addr.PagesToBytes(pages))
	if errors.Is(err, osim.ErrOOM) {
		s.pending = append(s.pending, pendingArrival{env: env, pages: pages})
		return nil
	}
	if err != nil {
		return err
	}
	err = env.Populate(v)
	if errors.Is(err, osim.ErrOOM) {
		s.pending = append(s.pending, pendingArrival{env: env, vma: v, pages: pages})
		return nil
	}
	if err != nil {
		return err
	}
	s.tenants = append(s.tenants, &tenant{env: env, vma: v, pages: pages})
	return nil
}

// shardTouch is touch on a shard tenant; OOM defers the cache squeeze
// to the barrier and moves on (the next touch retries naturally).
func (c *Campaign) shardTouch(s *shard) error {
	t := s.tenants[s.rng.Intn(len(s.tenants))]
	v := t.vma
	chunk := t.pages / 4
	if chunk == 0 {
		chunk = t.pages
	}
	start := uint64(0)
	if t.pages > chunk {
		start = uint64(s.rng.Int63n(int64(t.pages - chunk)))
	}
	err := t.env.PopulateRange(v, v.Start.Add(addr.PagesToBytes(start)), addr.PagesToBytes(chunk))
	if errors.Is(err, osim.ErrOOM) {
		s.wantReclaim = true
		return nil
	}
	return err
}

// exit tears down shard tenant i.
func (s *shard) exit(i int) {
	s.tenants[i].env.Exit()
	s.tenants = append(s.tenants[:i], s.tenants[i+1:]...)
}

// barrier merges the epoch's cross-shard effects in shard-index order:
// step errors, deferred reclaim, parked OOM admissions (squeeze the
// shared cache, retry the populate, OOM-kill on a second failure), and
// the periodic cache churn on the parent kernel.
func (c *Campaign) barrier(step int) error {
	for _, s := range c.shards {
		if s.err != nil {
			return fmt.Errorf("aging: step %d shard %d: %w", step, s.idx, s.err)
		}
	}
	t := c.k.Tracer
	start := t.Start()
	var retried uint64
	for _, s := range c.shards {
		if s.wantReclaim {
			s.wantReclaim = false
			c.k.Cache.ReclaimUnder(c.cfg.ReclaimFreeFrac)
		}
		for _, pa := range s.pending {
			retried++
			c.k.Cache.ReclaimUnder(c.cfg.ReclaimFreeFrac)
			v := pa.vma
			if v == nil {
				var err error
				v, err = pa.env.MMap(addr.PagesToBytes(pa.pages))
				if errors.Is(err, osim.ErrOOM) {
					pa.env.Exit() // the simulated OOM kill
					continue
				}
				if err != nil {
					return fmt.Errorf("aging: step %d shard %d OOM retry: %w", step, s.idx, err)
				}
			}
			err := pa.env.Populate(v)
			if errors.Is(err, osim.ErrOOM) {
				pa.env.Exit() // the simulated OOM kill
				continue
			}
			if err != nil {
				return fmt.Errorf("aging: step %d shard %d OOM retry: %w", step, s.idx, err)
			}
			s.tenants = append(s.tenants, &tenant{env: pa.env, vma: v, pages: pa.pages})
		}
		s.pending = s.pending[:0]
	}
	if c.cfg.CacheChurnEvery > 0 && step%c.cfg.CacheChurnEvery == 0 {
		if err := c.cacheChurn(); err != nil {
			return fmt.Errorf("aging: step %d cache churn: %w", step, err)
		}
	}
	t.EmitSpan(trace.EvShardBarrier, start, uint64(step), retried, c.k.Clock)
	return nil
}

// snapshotSharded measures across every shard kernel plus the parent.
// ClockNs composes the parent's clock (cache churn, reclaim) with the
// slowest shard's — logical time advanced in parallel, so the campaign
// "took" as long as its slowest stream.
func (c *Campaign) snapshotSharded(step int) Snapshot {
	var rss, faults, maxClock uint64
	tenants := 0
	for _, s := range c.shards {
		for _, p := range s.k.Processes() {
			rss += p.RSSPages
		}
		faults += s.k.Stats.TotalFaults()
		tenants += len(s.tenants)
		if s.k.Clock > maxClock {
			maxClock = s.k.Clock
		}
	}
	return c.emitSnapshot(Snapshot{
		Step:     step,
		ClockNs:  c.k.Clock + maxClock,
		Tenants:  tenants,
		RSSPages: rss,
		Faults:   faults + c.k.Stats.TotalFaults(),
	})
}

// auditSharded runs the multi-kernel whole-machine audit: references
// are gathered from every shard's processes and the parent's page
// cache before one frame sweep over the union machine.
func (c *Campaign) auditSharded() error {
	ks := make([]*osim.Kernel, 0, len(c.shards)+1)
	ks = append(ks, c.k)
	for _, s := range c.shards {
		ks = append(ks, s.k)
	}
	return c.auditor.AuditKernels(c.k.Machine, ks, c.cfg.Pinned)
}
