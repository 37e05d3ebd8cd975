package tracein

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/check"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/osim/vma"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Replay bounds, mirroring check.Machine's geometry so the two
// consumers of one trace exercise comparable regimes.
const (
	maxVMAPages   = 1024
	minVMAPages   = 8
	maxRangePages = 512
	maxHogSets    = 2
	accessBurst   = 32
	budgetPct     = 45
	tlbEntries    = 64
	tlbWays       = 8

	// histBuckets is the translate-cost histogram size: log2 buckets
	// over cycle counts, 64 covers any uint64 cost.
	histBuckets = 65
)

// ReplayConfig shapes a replay Engine.
type ReplayConfig struct {
	// Shards is the zone-shard count (default 1): the machine gets one
	// zone per shard, each shard owns its zone outright through a
	// zone.Machine view with its own kernel (the internal/aging
	// ownership model), and tenant t is pinned to shard t%Shards.
	Shards int
	// Jobs selects how shard streams apply: 1 applies them serially on
	// the replaying goroutine, any larger value runs one goroutine per
	// shard (it is not a concurrency bound), and <=0 means GOMAXPROCS.
	// Results are identical at any value — each shard applies its own
	// sub-stream in trace order and shards share no mutable state
	// (pinned by the differential replay test).
	Jobs int
	// Policy is the shard kernels' placement policy, in check's
	// vocabulary: check.PolicyDefault, check.PolicyCA (sorted
	// MAX_ORDER lists), or check.PolicyEager; empty means default.
	Policy string
	// Daemons attaches Ingens and Ranger to every shard kernel.
	Daemons bool
	// ZoneBlocks is the per-shard zone size in MAX_ORDER blocks
	// (default 8 — check.Machine's zone scale).
	ZoneBlocks uint64
	// SampleEvery is the per-shard gauge-row cadence in applied events
	// (default 4096).
	SampleEvery int
	// Tracer, when non-nil, receives EvReplayBatch spans and the shard
	// kernels' event streams. Rows and digests never depend on it.
	Tracer *trace.Tracer
}

func (c ReplayConfig) withDefaults() ReplayConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Jobs <= 0 {
		c.Jobs = runtime.GOMAXPROCS(0)
	}
	if c.ZoneBlocks == 0 {
		c.ZoneBlocks = 8
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 4096
	}
	return c
}

// Row is one per-shard trajectory sample, taken every SampleEvery
// applied events. Rows are derived entirely from shard-owned state, so
// a trace's row sequence is byte-identical at any Jobs setting.
type Row struct {
	Shard      int
	Events     uint64
	Skipped    uint64
	OOMs       uint64
	Faults     uint64
	RSSPages   uint64
	FreePages  uint64
	Tenants    uint64
	Accesses   uint64
	Misses     uint64
	WalkCycles uint64
}

// Result aggregates a finished replay.
type Result struct {
	Events     uint64
	Skipped    uint64
	OOMs       uint64
	Faults     uint64
	Accesses   uint64
	Misses     uint64
	WalkCycles uint64
	// P50Cycles/P99Cycles are translate-cost percentiles over the
	// misses, read from a log2-bucket histogram (the value is the
	// bucket's upper bound, a deterministic integer).
	P50Cycles uint64
	P99Cycles uint64
	// Rows is the merged trajectory: shard 0's rows, then shard 1's, …
	Rows []Row
}

// Digest hashes the full deterministic outcome — every trajectory row
// and the aggregate counters — so two replays can be compared across
// runs, shard-stream job counts, and processes with one string.
func (r Result) Digest() string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(r.Events)
	put(r.Skipped)
	put(r.OOMs)
	put(r.Faults)
	put(r.Accesses)
	put(r.Misses)
	put(r.WalkCycles)
	put(r.P50Cycles)
	put(r.P99Cycles)
	for _, row := range r.Rows {
		put(uint64(row.Shard))
		put(row.Events)
		put(row.Skipped)
		put(row.OOMs)
		put(row.Faults)
		put(row.RSSPages)
		put(row.FreePages)
		put(row.Tenants)
		put(row.Accesses)
		put(row.Misses)
		put(row.WalkCycles)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Snapshot is a live counter view, readable while a replay runs.
type Snapshot struct {
	Events    uint64 `json:"events"`
	Skipped   uint64 `json:"skipped"`
	OOMs      uint64 `json:"ooms"`
	Faults    uint64 `json:"faults"`
	Accesses  uint64 `json:"accesses"`
	Misses    uint64 `json:"misses"`
	P50Cycles uint64 `json:"p50_translate_cycles"`
	P99Cycles uint64 `json:"p99_translate_cycles"`
}

// rtenant is one tenant's live state on its shard.
type rtenant struct {
	env   *workloads.Env
	vmas  []*vma.VMA
	pages uint64 // mapped VMA pages, for the footprint budget
	child *osim.Process
	eng   *sim.Engine
}

// rshard owns one zone of the machine: its own kernel over a zone
// view, daemons, tenants, and counters. All mutation happens on the
// shard's applying goroutine; the atomic counters exist so concurrent
// Snapshot readers see coherent values, not for cross-shard sharing.
type rshard struct {
	idx     int
	kern    *osim.Kernel
	daemons []workloads.Daemon
	tenants map[uint32]*rtenant
	hogs    [][]workloads.HogExtent
	budget  uint64
	mapped  uint64
	walk    float64
	rows    []Row

	lastRow uint64 // events count at the last sampled row

	events   atomic.Uint64
	skipped  atomic.Uint64
	ooms     atomic.Uint64
	faults   atomic.Uint64
	accesses atomic.Uint64
	misses   atomic.Uint64
	hist     [histBuckets]atomic.Uint64

	spanStart uint64 // tracer span token for the open sample window
}

// Engine replays traces against a sharded machine. Build one with
// NewEngine, feed it one trace via Replay/ReplayEvents, read Result
// after the replay returns, and Audit before discarding it. Snapshot
// and SampleGauges are safe to call concurrently with a running
// replay; everything else is single-threaded.
type Engine struct {
	cfg    ReplayConfig
	mach   *zone.Machine
	parent *osim.Kernel
	pinned []check.Extent
	shards []*rshard
	gEvents, gFaults, gMisses,
	gOOMs, gP99 int
	stop   atomic.Bool
	closed bool
}

// NewEngine builds the machine, the parent kernel (boot reservations),
// and one kernel per zone shard.
func NewEngine(cfg ReplayConfig) (*Engine, error) {
	cfg = cfg.withDefaults()
	pol, sorted, err := check.PlacementFor(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("tracein: %w", err)
	}
	zones := make([]uint64, cfg.Shards)
	for i := range zones {
		zones[i] = cfg.ZoneBlocks * addr.MaxOrderPages
	}
	mach := zone.NewMachine(zone.Config{ZonePages: zones, SortedMaxOrder: sorted})
	parent := osim.NewKernel(mach, osim.DefaultPolicy{})
	parent.BootReserve(1)
	e := &Engine{cfg: cfg, mach: mach, parent: parent}
	for z := 0; z < cfg.Shards; z++ {
		e.pinned = append(e.pinned, check.Extent{
			PFN:   uint64(z) * cfg.ZoneBlocks * addr.MaxOrderPages,
			Pages: addr.MaxOrderPages,
		})
	}
	for i := 0; i < cfg.Shards; i++ {
		k := osim.NewKernel(mach.View(i), pol)
		s := &rshard{
			idx:     i,
			kern:    k,
			tenants: make(map[uint32]*rtenant),
			budget:  k.Machine.TotalPages() * budgetPct / 100,
		}
		if cfg.Daemons {
			s.daemons = []workloads.Daemon{daemon.NewIngens(k), daemon.NewRanger(k)}
		}
		if cfg.Tracer != nil {
			k.SetTracer(cfg.Tracer)
		}
		s.spanStart = cfg.Tracer.Start()
		e.shards = append(e.shards, s)
	}
	if cfg.Tracer != nil {
		e.gEvents = cfg.Tracer.Gauge("replay.events")
		e.gFaults = cfg.Tracer.Gauge("replay.faults")
		e.gMisses = cfg.Tracer.Gauge("replay.misses")
		e.gOOMs = cfg.Tracer.Gauge("replay.ooms")
		e.gP99 = cfg.Tracer.Gauge("replay.p99_translate_cycles")
	}
	return e, nil
}

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return e.cfg.Shards }

// Stop asks a running replay to wind down: the dispatcher stops
// feeding events and Replay returns nil once the shards drain what
// they already accepted. Safe from any goroutine.
func (e *Engine) Stop() { e.stop.Store(true) }

// ReplayEvents drains a decoded event slice; see Replay.
func (e *Engine) ReplayEvents(events []Event) error {
	i := 0
	return e.replay(func() (Event, error) {
		if i == len(events) {
			return Event{}, io.EOF
		}
		ev := events[i]
		i++
		return ev, nil
	})
}

// Replay streams records from the decoder and applies each to its
// tenant's shard (tenant % Shards), shard streams in parallel unless
// Jobs is 1. The outcome — rows, Result, final machine state — is
// deterministic for a given trace and config, independent of Jobs.
func (e *Engine) Replay(d *Decoder) error {
	var ev Event
	return e.replay(func() (Event, error) {
		if err := d.Next(&ev); err != nil {
			return Event{}, err
		}
		return ev, nil
	})
}

// ReplayStream drains an arbitrary event source: next returns one
// event per call and io.EOF at end of stream. Serving mode uses this
// to feed a deterministic merge of several concurrent tenant streams
// through the same shard-ordered replay path.
func (e *Engine) ReplayStream(next func() (Event, error)) error {
	return e.replay(next)
}

func (e *Engine) replay(next func() (Event, error)) error {
	if e.closed {
		return errors.New("tracein: replay on a closed engine")
	}
	var err error
	if e.cfg.Jobs == 1 || len(e.shards) == 1 {
		err = e.replaySerial(next)
	} else {
		err = e.replayParallel(next)
	}
	if err != nil {
		return err
	}
	// Final flush: one closing row per shard that applied events since
	// its last sample, so every drained replay has a trajectory even
	// below the SampleEvery cadence. Runs serially after the shard
	// streams have quiesced — deterministic at any Jobs.
	for _, s := range e.shards {
		if s.events.Load() != s.lastRow {
			s.sample(e)
		}
	}
	return nil
}

func (e *Engine) replaySerial(next func() (Event, error)) error {
	for !e.stop.Load() {
		ev, err := next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		s := e.shards[int(ev.Tenant)%len(e.shards)]
		if err := e.apply(s, ev); err != nil {
			return err
		}
	}
	return nil
}

// replayParallel runs one applier goroutine per shard behind buffered
// channels. Shard sub-streams are applied in trace order and share
// nothing, so this is byte-equivalent to replaySerial. Each shard is
// one goroutine whatever Jobs says; the channel backpressure keeps
// memory bounded.
func (e *Engine) replayParallel(next func() (Event, error)) error {
	chans := make([]chan Event, len(e.shards))
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i, s := range e.shards {
		chans[i] = make(chan Event, 1024)
		wg.Add(1)
		go func(i int, s *rshard) {
			defer wg.Done()
			for ev := range chans[i] {
				if errs[i] != nil {
					continue // drain after failure
				}
				errs[i] = e.apply(s, ev)
			}
		}(i, s)
	}
	var feedErr error
	for !e.stop.Load() {
		ev, err := next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			feedErr = err
			break
		}
		chans[int(ev.Tenant)%len(e.shards)] <- ev
	}
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return feedErr
}

// tenantFor returns (creating on demand) the tenant's state with a
// live process; respawn after exit models slot reuse.
func (s *rshard) tenantFor(id uint32) *rtenant {
	t := s.tenants[id]
	if t == nil {
		t = &rtenant{env: workloads.NewNativeEnv(s.kern, 0)}
		t.env.Daemons = s.daemons
		s.tenants[id] = t
	}
	return t
}

// evMix expands an event into one well-mixed word (splitmix64 finisher)
// for the few replay decisions that want a seeded rng rather than a
// direct clamp.
func evMix(ev Event) uint64 {
	z := ev.Arg0<<40 ^ ev.Arg1<<20 ^ ev.Arg2 ^ uint64(ev.Tenant)<<8 ^ uint64(ev.Kind) ^ 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// apply executes one event on its shard. Argument words clamp into
// legal ranges (the check.Machine convention), OOM is tolerated and
// counted, and events that find nothing to act on count as skipped —
// a trace can therefore never wedge the engine, only exercise it.
func (s *rshard) apply(e *Engine, ev Event) error {
	switch ev.Kind {
	case KindMMap:
		t := s.tenantFor(ev.Tenant)
		pages := minVMAPages + ev.Arg0%(maxVMAPages-minVMAPages+1)
		if s.mapped+pages > s.budget {
			s.skipped.Add(1)
			break
		}
		v, err := t.env.MMap(pages * addr.PageSize)
		if err != nil {
			if errors.Is(err, osim.ErrOOM) {
				s.ooms.Add(1)
				break
			}
			return fmt.Errorf("tracein: shard %d mmap: %w", s.idx, err)
		}
		t.vmas = append(t.vmas, v)
		t.pages += pages
		s.mapped += pages
	case KindMUnmap:
		t := s.tenants[ev.Tenant]
		if t == nil || len(t.vmas) == 0 {
			s.skipped.Add(1)
			break
		}
		i := int(ev.Arg0 % uint64(len(t.vmas)))
		v := t.vmas[i]
		t.env.Proc.MUnmap(v)
		t.vmas = append(t.vmas[:i], t.vmas[i+1:]...)
		t.pages -= v.Pages()
		s.mapped -= v.Pages()
	case KindTouch:
		t, v := s.pickVMA(ev.Tenant, ev.Arg0)
		if v == nil {
			s.skipped.Add(1)
			break
		}
		va := v.Start.Add((ev.Arg1 % v.Pages()) * addr.PageSize)
		if err := t.env.Touch(va, ev.Arg2&1 == 0); err != nil {
			if errors.Is(err, osim.ErrOOM) {
				s.ooms.Add(1)
				break
			}
			return fmt.Errorf("tracein: shard %d touch: %w", s.idx, err)
		}
	case KindTouchRange:
		t, v := s.pickVMA(ev.Tenant, ev.Arg0)
		if v == nil {
			s.skipped.Add(1)
			break
		}
		start := ev.Arg1 % v.Pages()
		maxLen := v.Pages() - start
		if maxLen > maxRangePages {
			maxLen = maxRangePages
		}
		n := 1 + ev.Arg2%maxLen
		err := t.env.PopulateRange(v, v.Start.Add(start*addr.PageSize), n*addr.PageSize)
		if err != nil {
			if errors.Is(err, osim.ErrOOM) {
				s.ooms.Add(1)
				break
			}
			return fmt.Errorf("tracein: shard %d touch-range: %w", s.idx, err)
		}
	case KindAccess:
		if err := s.accessBurst(ev); err != nil {
			return err
		}
	case KindFork:
		t := s.tenants[ev.Tenant]
		if t == nil {
			s.skipped.Add(1)
			break
		}
		if t.child != nil {
			t.child.Exit()
			t.child = nil
		} else {
			t.child = t.env.Proc.Fork()
		}
	case KindExit:
		t := s.tenants[ev.Tenant]
		if t == nil {
			s.skipped.Add(1)
			break
		}
		s.exitTenant(ev.Tenant, t)
	case KindHog:
		if len(s.hogs) >= maxHogSets {
			s.skipped.Add(1)
			break
		}
		frac := float64(2+ev.Arg0%9) / 100
		rng := rand.New(rand.NewSource(int64(evMix(ev) >> 1)))
		ext := workloads.Hog(s.kern.Machine, frac, rng)
		if len(ext) == 0 {
			s.skipped.Add(1)
			break
		}
		s.hogs = append(s.hogs, ext)
	case KindUnhog:
		if len(s.hogs) == 0 {
			s.skipped.Add(1)
			break
		}
		i := int(ev.Arg0 % uint64(len(s.hogs)))
		workloads.Unhog(s.kern.Machine, s.hogs[i])
		s.hogs = append(s.hogs[:i], s.hogs[i+1:]...)
	case KindDaemonTick:
		s.kern.Tick(2_100_000)
		for _, d := range s.daemons {
			d.Maybe()
		}
	default:
		return fmt.Errorf("%w: kind %d", ErrMalformed, ev.Kind)
	}
	s.faults.Store(s.kern.Stats.TotalFaults())
	n := s.events.Add(1)
	if int(n)%e.cfg.SampleEvery == 0 {
		s.sample(e)
	}
	return nil
}

// apply on the engine just forwards; kept as a method so the replay
// loops read naturally.
func (e *Engine) apply(s *rshard, ev Event) error { return s.apply(e, ev) }

// pickVMA selects the tenant's VMA arg-indexed, nil when the tenant
// has no mapping to act on.
func (s *rshard) pickVMA(tenant uint32, arg uint64) (*rtenant, *vma.VMA) {
	t := s.tenants[tenant]
	if t == nil || len(t.vmas) == 0 {
		return nil, nil
	}
	return t, t.vmas[int(arg%uint64(len(t.vmas)))]
}

// accessBurst drives a read burst through the tenant's persistent sim
// engine: TLB probe, walk on miss, demand-fault retry — the serving
// analogue of sim.Run's batched loop. Costs feed the shard's log2
// histogram for the p50/p99 translate-cost percentiles.
func (s *rshard) accessBurst(ev Event) error {
	t, v := s.pickVMA(ev.Tenant, ev.Arg0)
	if v == nil {
		s.skipped.Add(1)
		return nil
	}
	if t.eng == nil {
		eng, err := sim.NewEngine(t.env, sim.Config{TLBEntries: tlbEntries, TLBWays: tlbWays})
		if err != nil {
			return fmt.Errorf("tracein: shard %d sim engine: %w", s.idx, err)
		}
		t.eng = eng
	}
	burst := 1 + ev.Arg2%accessBurst
	stride := 1 + ev.Arg0%7
	pc := 0x40_0000 + (ev.Arg0%64)*16
	for j := uint64(0); j < burst; j++ {
		page := (ev.Arg1 + j*stride) % v.Pages()
		va := v.Start.Add(page * addr.PageSize)
		cost, err := t.eng.Step(workloads.Access{PC: pc, VA: va})
		if err != nil {
			if errors.Is(err, osim.ErrOOM) {
				s.ooms.Add(1)
				break
			}
			return fmt.Errorf("tracein: shard %d access: %w", s.idx, err)
		}
		s.accesses.Add(1)
		if cost > 0 {
			s.misses.Add(1)
			s.walk += cost
			s.hist[bits.Len64(uint64(cost))].Add(1)
		}
	}
	return nil
}

// exitTenant tears the tenant down: forked child first, then the sim
// engine (detaching its page-table observer), then the process, and
// frees the tenant's slot. tenantFor recreates a fresh slot on the
// tenant's next event, so the table holds only live tenants.
func (s *rshard) exitTenant(id uint32, t *rtenant) {
	if t.child != nil {
		t.child.Exit()
	}
	if t.eng != nil {
		t.eng.Close()
	}
	t.env.Exit()
	s.mapped -= t.pages
	delete(s.tenants, id)
}

// sample appends one trajectory row and closes the tracer span for the
// window. Every input is shard-owned state, so rows are identical at
// any Jobs setting.
func (s *rshard) sample(e *Engine) {
	var rss uint64
	for _, p := range s.kern.Processes() {
		rss += p.RSSPages
	}
	s.lastRow = s.events.Load()
	s.rows = append(s.rows, Row{
		Shard:      s.idx,
		Events:     s.events.Load(),
		Skipped:    s.skipped.Load(),
		OOMs:       s.ooms.Load(),
		Faults:     s.faults.Load(),
		RSSPages:   rss,
		FreePages:  s.kern.Machine.FreePages(),
		Tenants:    uint64(len(s.tenants)),
		Accesses:   s.accesses.Load(),
		Misses:     s.misses.Load(),
		WalkCycles: uint64(s.walk),
	})
	if tr := e.cfg.Tracer; tr != nil {
		tr.EmitSpan(trace.EvReplayBatch, s.spanStart,
			uint64(s.idx), s.events.Load(), s.faults.Load())
		s.spanStart = tr.Start()
	}
}

// percentile reads the q-quantile (0..1) from a merged log2 histogram:
// the value reported is the bucket's upper bound in cycles.
func percentile(hist *[histBuckets]uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	if want == 0 {
		want = 1
	}
	var cum uint64
	for b, n := range hist {
		cum += n
		if cum >= want {
			if b >= 64 {
				return ^uint64(0)
			}
			return 1 << uint(b)
		}
	}
	return 1 << 63
}

// Result assembles the deterministic outcome of a finished replay.
// Call only after Replay/ReplayEvents has returned.
func (e *Engine) Result() Result {
	var r Result
	var hist [histBuckets]uint64
	for _, s := range e.shards {
		r.Events += s.events.Load()
		r.Skipped += s.skipped.Load()
		r.OOMs += s.ooms.Load()
		r.Faults += s.faults.Load()
		r.Accesses += s.accesses.Load()
		r.Misses += s.misses.Load()
		r.WalkCycles += uint64(s.walk)
		for b := range hist {
			hist[b] += s.hist[b].Load()
		}
		r.Rows = append(r.Rows, s.rows...)
	}
	sort.SliceStable(r.Rows, func(i, j int) bool { return r.Rows[i].Shard < r.Rows[j].Shard })
	r.P50Cycles = percentile(&hist, r.Misses, 0.50)
	r.P99Cycles = percentile(&hist, r.Misses, 0.99)
	return r
}

// Snapshot reads the live counters; safe concurrently with a running
// replay.
func (e *Engine) Snapshot() Snapshot {
	var sn Snapshot
	var hist [histBuckets]uint64
	for _, s := range e.shards {
		sn.Events += s.events.Load()
		sn.Skipped += s.skipped.Load()
		sn.OOMs += s.ooms.Load()
		sn.Faults += s.faults.Load()
		sn.Accesses += s.accesses.Load()
		sn.Misses += s.misses.Load()
		for b := range hist {
			hist[b] += s.hist[b].Load()
		}
	}
	sn.P50Cycles = percentile(&hist, sn.Misses, 0.50)
	sn.P99Cycles = percentile(&hist, sn.Misses, 0.99)
	return sn
}

// SampleGauges publishes the live counters to the configured tracer's
// gauges ("replay.*") and snapshots a counter row. No-op without a
// tracer. Safe concurrently with a running replay.
func (e *Engine) SampleGauges() {
	tr := e.cfg.Tracer
	if tr == nil {
		return
	}
	sn := e.Snapshot()
	tr.SetGauge(e.gEvents, sn.Events)
	tr.SetGauge(e.gFaults, sn.Faults)
	tr.SetGauge(e.gMisses, sn.Misses)
	tr.SetGauge(e.gOOMs, sn.OOMs)
	tr.SetGauge(e.gP99, sn.P99Cycles)
	tr.Sample()
}

// Audit runs the whole-machine deep audit — frame ownership against
// page tables, buddy free sets, contiguity maps, and VMA accounting —
// across the parent and every shard kernel, with boot reservations and
// outstanding hog pins accounted as intentional. Call when quiesced
// (after Replay returns).
func (e *Engine) Audit() error {
	pinned := append([]check.Extent(nil), e.pinned...)
	for _, s := range e.shards {
		for _, set := range s.hogs {
			for _, h := range set {
				pinned = append(pinned, check.Extent{PFN: uint64(h.PFN), Pages: h.Pages})
			}
		}
	}
	ks := []*osim.Kernel{e.parent}
	for _, s := range e.shards {
		ks = append(ks, s.kern)
	}
	return check.AuditKernels(e.mach, ks, pinned)
}

// CorruptForTest deliberately damages the frame table (one mapped
// frame's refcount) so drain-then-audit failure paths can be exercised
// end to end; cmd/memsimd's corrupted-shutdown test is the consumer.
// Returns false if no mapped frame exists yet.
func (e *Engine) CorruptForTest() bool {
	for _, z := range e.mach.Zones {
		frames := e.mach.Frames.Slice(z.Base, z.Pages)
		for i := range frames {
			if frames[i].MapCount > 0 {
				frames[i].MapCount++
				return true
			}
		}
	}
	return false
}

// Close releases the machine back to the zone pool. The engine is
// unusable afterwards. Only call when the machine state is no longer
// needed (after Audit).
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.mach.Recycle()
}
