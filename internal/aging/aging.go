// Package aging runs long logical-time fragmentation-aging campaigns:
// tenants arrive with Zipf-skewed footprints, touch their memory, and
// exit, while page-cache fill/evict pressure and periodic daemon
// epochs churn the physical free pool. A campaign records how external
// fragmentation evolves — FragScore-style permille plus Gorman's
// unusable free space index per order — as a deterministic trajectory
// of snapshots, and periodically cross-checks the whole machine with
// internal/check audits.
//
// A campaign is an internal/shard Set: each shard owns a subset of the
// machine's zones with its own kernel and daemons, and the campaign
// gives it an rng stream and tenants. Every epoch steps the shards
// (concurrently, race-free) and then merges their cross-shard effects
// at a serial barrier. Shards=1 is one shard owning every zone, run by
// the same loop.
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
	"slices"
	"strconv"

	"repro/internal/check"
	"repro/internal/mem/addr"
	"repro/internal/metrics"
	"repro/internal/osim"
	"repro/internal/osim/vma"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Fixed campaign constants.
const (
	// minFootprintPages is the smallest tenant footprint (1 MiB).
	minFootprintPages = 256
	// reclaimFreeFrac is the free-memory floor handed to the page
	// cache's ReclaimUnder under memory pressure and after cache churn.
	reclaimFreeFrac = 0.1
	// settleEpochs is the number of daemon epochs a shard ticks after
	// every churn step.
	settleEpochs = 2
)

// Config parameterises one aging campaign. Zero values select the
// defaults noted on each field.
type Config struct {
	// Seed drives every random decision of the campaign.
	Seed int64
	// Steps is the churn-step horizon (default 200; negative is an
	// error).
	Steps int
	// SnapshotEvery records a trajectory snapshot every N steps
	// (default 10; negative is an error).
	SnapshotEvery int
	// AuditEvery runs a whole-machine check.Audit every N snapshots
	// (default 4; 0 keeps the default — use -1 to disable mid-run
	// audits). A final audit always runs at campaign end.
	AuditEvery int
	// MaxTenants caps the concurrently live tenant population
	// (default 8).
	MaxTenants int
	// MaxFootprintPages bounds tenant footprints; draws are
	// minFootprintPages + Zipf(Max - minFootprintPages), skewing small
	// (default 16384 pages: footprints span 1 MiB to 64 MiB).
	MaxFootprintPages uint64
	// ZipfS is the Zipf skew exponent (must be > 1; default 1.4).
	ZipfS float64
	// FilePages sizes each dataset file read through the page cache
	// (default 2048 pages = 8 MiB).
	FilePages uint64
	// CacheChurnEvery reads a fresh file every N steps (default 7;
	// -1 disables cache churn).
	CacheChurnEvery int
	// Pinned are extra frame extents the audits must treat as
	// intentionally allocated outside any process, such as hog chunks.
	// The kernels' own boot reservations need no listing: the audits
	// account for each kernel's BootReserve.
	Pinned []check.Extent

	// Shards is the zone-shard count (0 means 1; negative is an
	// error), dealt and clamped to [1, zone count] by shard.New. Each
	// shard steps its own tenant stream with its own RNG; an epoch
	// barrier merges the cross-shard effects — OOM-driven reclaim of
	// the parent's page cache, cache churn, snapshots, and
	// whole-machine audits — in shard-index order.
	Shards int
	// ShardJobs sizes the campaign's shard.Team: the workers that step
	// shards and sweep the audit's zones concurrently (<=0 selects
	// GOMAXPROCS; 1 does both serially on Run's goroutine). Helpers
	// live for one Run. Trajectories are deterministic in (Seed,
	// Shards) and byte-identical at every ShardJobs value.
	ShardJobs int
	// NewShardKernel builds each shard's kernel (policy attached, no
	// boot reservations) and private daemon set. Required at every
	// shard count (Run returns an error without it);
	// experiments.RunAgingCampaign supplies the standard construction.
	NewShardKernel shard.Build
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
	return c
}

// ErrConfig marks the errors Run reports for an invalid Config.
var ErrConfig = errors.New("aging: invalid config")

// validate reports the first field of a defaulted config that would
// crash the campaign or silently distort its trajectory.
func (c Config) validate() error {
	switch {
	case c.Steps < 0:
		return fmt.Errorf("%w: Steps %d is negative", ErrConfig, c.Steps)
	case c.SnapshotEvery < 0:
		return fmt.Errorf("%w: SnapshotEvery %d is negative", ErrConfig, c.SnapshotEvery)
	case c.Shards < 0:
		return fmt.Errorf("%w: Shards %d is negative", ErrConfig, c.Shards)
	case !(c.ZipfS > 1): // NaN fails too
		return fmt.Errorf("%w: ZipfS %v must be > 1", ErrConfig, c.ZipfS)
	case c.NewShardKernel == nil:
		return fmt.Errorf("%w: Config.NewShardKernel is required", ErrConfig)
	}
	return nil
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

// Campaign drives one aging run: the parent kernel k owns the shared
// page cache and the machine-wide measurements, and the shards own
// every tenant.
type Campaign struct {
	k   *osim.Kernel
	cfg Config
	// rng is the parent's stream; only cacheChurn draws from it.
	rng *rand.Rand

	// set owns the zone shards, the whole-machine audit, and the team
	// that steps the shards and sweeps the audit's zones.
	set *shard.Set
	// streams are the shards' churn state, index-aligned with
	// set.Shards; they are stepped concurrently on the set's team, and
	// their effects are merged at epoch barriers.
	streams []*stream

	gaugeIDs struct {
		tenants, rss, cache, free, frag, ufi2m int
	}

	// err is a configuration error found by New; Run reports it.
	err error
}

// stream is one shard's independently stepped tenant stream.
// Everything it touches during its parallel step — the shard's kernel,
// its view's zones, its rng/zipf stream, its tenants — is private to
// it; cross-shard effects are deferred to the barrier.
type stream struct {
	*shard.Shard
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

// New builds a campaign over an existing kernel. The kernel's policy,
// and the per-shard kernels and daemons cfg.NewShardKernel builds,
// define the anti-fragmentation regime under test; the campaign only
// churns tenants and the page cache. ds is the parent kernel's daemon
// set and is never polled: the parent runs no tenants, every tenant
// lives on a shard kernel with that shard's own daemons.
func New(k *osim.Kernel, ds []workloads.Daemon, cfg Config) *Campaign {
	cfg = cfg.withDefaults()
	c := &Campaign{
		k:   k,
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	t := k.Tracer
	c.gaugeIDs.tenants = t.Gauge("aging.tenants")
	c.gaugeIDs.rss = t.Gauge("aging.rss_pages")
	c.gaugeIDs.cache = t.Gauge("aging.cache_pages")
	c.gaugeIDs.free = t.Gauge("aging.free_pages")
	c.gaugeIDs.frag = t.Gauge("aging.frag_permille")
	c.gaugeIDs.ufi2m = t.Gauge("aging.ufi2m_permille")

	if c.err = cfg.validate(); c.err != nil {
		return c
	}
	c.set = shard.New(k, cfg.Shards, cfg.ShardJobs, cfg.NewShardKernel)
	span := cfg.MaxFootprintPages - minFootprintPages
	for _, sh := range c.set.Shards {
		// Decorrelate the shard streams from each other and from the
		// parent's cache-churn stream with a fixed odd-multiplier seed
		// derivation (deterministic in Seed and shard index).
		srng := rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(sh.Index+1)*0x9E3779B97F4A7C15)))
		c.streams = append(c.streams, &stream{
			Shard: sh,
			rng:   srng,
			zipf:  rand.NewZipf(srng, cfg.ZipfS, 1, span),
		})
	}
	return c
}

// Run executes the campaign and returns its trajectory. A non-nil
// error means the configuration was invalid (nil trajectory) or a
// step or whole-machine audit failed (the trajectory up to the
// failure is returned alongside it).
//
// Each epoch has two phases. The parallel phase steps every shard
// once — churn, then the shard's private daemon settle — touching only
// shard-owned state, so its outcome is independent of ShardJobs. The
// serial barrier then merges the cross-shard effects
// in shard-index order: deferred OOM handling against the parent's
// page cache, periodic cache churn on the parent kernel (which may
// allocate from any zone — safe, nothing else runs), snapshots over
// the union machine, and multi-kernel audits. The set's team helpers
// stop before Run returns, on every path.
func (c *Campaign) Run() (*Trajectory, error) {
	if c.err != nil {
		return nil, c.err
	}
	defer c.set.Close()
	tr := &Trajectory{Policy: c.k.Policy.Name()}
	sinceSnap, snaps := 0, 0
	for step := 1; step <= c.cfg.Steps; step++ {
		err := c.set.Each(len(c.streams), func(i int) error {
			return c.shardStep(c.streams[i], step)
		})
		if err != nil {
			return tr, err
		}
		if err := c.barrier(step); err != nil {
			return tr, err
		}

		sinceSnap++
		if sinceSnap < c.cfg.SnapshotEvery && step != c.cfg.Steps {
			continue
		}
		sinceSnap = 0
		snaps++
		tr.Snapshots = append(tr.Snapshots, c.snapshot(step))
		if c.cfg.AuditEvery > 0 && snaps%c.cfg.AuditEvery == 0 {
			if err := c.set.Audit(c.cfg.Pinned); err != nil {
				return tr, fmt.Errorf("aging: audit after step %d: %w", step, err)
			}
		}
	}
	// Drain every shard's tenants so the final audit also covers the
	// teardown path (where the lifecycle bugs lived).
	for _, s := range c.streams {
		for len(s.tenants) > 0 {
			s.exit(len(s.tenants) - 1)
		}
		workloads.SettleDaemons(s.Kernel, s.Daemons, settleEpochs)
	}
	if err := c.set.Audit(c.cfg.Pinned); err != nil {
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
// stay deterministic. Every campaign shard draws its churn from it, and
// tracein.Synth reuses it so synthesized serving traces mirror the
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
	c.k.Cache.ReclaimUnder(reclaimFreeFrac)
	return nil
}

// shardStep is one shard's parallel-phase work: one churn action plus
// the shard's private daemon settle window.
func (c *Campaign) shardStep(s *stream, step int) error {
	t := c.k.Tracer
	start := t.Start()
	if err := c.churn(s); err != nil {
		return fmt.Errorf("aging: step %d shard %d: %w", step, s.Index, err)
	}
	workloads.SettleDaemons(s.Kernel, s.Daemons, settleEpochs)
	t.EmitSpan(trace.EvShardEpoch, start, uint64(s.Index), uint64(step), s.Kernel.Clock)
	return nil
}

// shardMaxTenants deals the population cap across shards (remainder to
// the low indexes), never below one.
func (c *Campaign) shardMaxTenants(idx int) int {
	n := c.cfg.MaxTenants / len(c.streams)
	if idx < c.cfg.MaxTenants%len(c.streams) {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// churn performs one tenant lifecycle action on the shard's private
// stream, chosen from the ChurnRoll mix.
func (c *Campaign) churn(s *stream) error {
	switch ChurnRoll(s.rng, len(s.tenants), c.shardMaxTenants(s.Index)) {
	case ChurnArrive:
		return s.arrive()
	case ChurnTouch:
		return s.touch()
	default:
		s.exit(s.rng.Intn(len(s.tenants)))
		return nil
	}
}

// arrive admits one tenant with a Zipf-skewed footprint into the
// shard's own zones and populates it. An OOM is not resolved here —
// reclaiming the parent's page cache is a cross-shard effect — so the
// admission parks on the pending list for the barrier to retry.
func (s *stream) arrive() error {
	pages := minFootprintPages + s.zipf.Uint64()
	zoneIdx := s.arrivals % len(s.Kernel.Machine.Zones)
	s.arrivals++
	env := workloads.NewNativeEnv(s.Kernel, zoneIdx)
	env.Daemons = s.Daemons
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

// touch revisits a random contiguous chunk of a random shard tenant's
// footprint, re-dirtying it (and faulting any pages an eager policy
// left unmapped after migrations). OOM defers the cache squeeze to the
// barrier and moves on; the next touch retries naturally.
func (s *stream) touch() error {
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
func (s *stream) exit(i int) {
	s.tenants[i].env.Exit()
	s.tenants = slices.Delete(s.tenants, i, i+1)
}

// barrier merges the epoch's cross-shard effects in shard-index order:
// deferred reclaim, parked OOM admissions (squeeze the shared cache,
// retry the populate, OOM-kill on a second failure), and the periodic
// cache churn on the parent kernel.
func (c *Campaign) barrier(step int) error {
	t := c.k.Tracer
	start := t.Start()
	var retried uint64
	for _, s := range c.streams {
		if s.wantReclaim {
			s.wantReclaim = false
			c.k.Cache.ReclaimUnder(reclaimFreeFrac)
		}
		for _, pa := range s.pending {
			retried++
			c.k.Cache.ReclaimUnder(reclaimFreeFrac)
			v := pa.vma
			if v == nil {
				var err error
				v, err = pa.env.MMap(addr.PagesToBytes(pa.pages))
				if errors.Is(err, osim.ErrOOM) {
					pa.env.Exit() // the simulated OOM kill
					continue
				}
				if err != nil {
					return fmt.Errorf("aging: step %d shard %d OOM retry: %w", step, s.Index, err)
				}
			}
			err := pa.env.Populate(v)
			if errors.Is(err, osim.ErrOOM) {
				pa.env.Exit() // the simulated OOM kill
				continue
			}
			if err != nil {
				return fmt.Errorf("aging: step %d shard %d OOM retry: %w", step, s.Index, err)
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

// snapshot measures across every shard kernel plus the parent,
// refreshes the campaign gauges, and emits the snapshot event plus a
// counter sample. ClockNs composes the parent's clock (cache churn,
// reclaim) with the slowest shard's — logical time advanced in
// parallel, so the campaign "took" as long as its slowest stream.
func (c *Campaign) snapshot(step int) Snapshot {
	var rss, faults, maxClock uint64
	tenants := 0
	for _, s := range c.streams {
		for _, p := range s.Kernel.Processes() {
			rss += p.RSSPages
		}
		faults += s.Kernel.Stats.TotalFaults()
		tenants += len(s.tenants)
		if s.Kernel.Clock > maxClock {
			maxClock = s.Kernel.Clock
		}
	}
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
	s := Snapshot{
		Step:         step,
		ClockNs:      c.k.Clock + maxClock,
		Tenants:      tenants,
		RSSPages:     rss,
		CachePages:   c.k.Cache.ResidentPages,
		FreePages:    c.k.Machine.FreePages(),
		FragPermille: uint64(ufi2m*1000 + 0.5),
		UFI2M:        ufi2m,
		UFIMax:       metrics.UnusableFreeIndex(hist, addr.MaxOrder),
		Faults:       faults + c.k.Stats.TotalFaults(),
	}

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
