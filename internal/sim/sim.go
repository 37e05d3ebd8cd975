// Package sim is the execution engine of the hardware emulation: it
// drives a workload's access stream through a pluggable translation
// backend (default: the modelled L2 STLB over the nested/native page
// walk) and, on every miss, exercises all the translation schemes
// under study simultaneously — SpOT prediction, the vRMM range TLB,
// and Direct Segments. The schemes do not interact, so one pass yields
// every scheme's counters on an identical miss stream, mirroring the
// paper's BadgerTrap methodology of emulating hardware inside the
// fault path of a real run (§V). The alternate backends (hashed, rmm,
// ds; see internal/hw/translation) replace the baseline walk itself,
// turning the loop into a Virtuoso-style backend matrix.
package sim

import (
	"fmt"

	"repro/internal/hw/ds"
	"repro/internal/hw/rmm"
	"repro/internal/hw/spot"
	"repro/internal/hw/translation"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Config selects the hardware parameters (defaults = Table II scaled).
type Config struct {
	// Backend selects the translation backend (translation.Names():
	// "paged", "hashed", "rmm", "ds"). Empty selects the default paged
	// backend — the TLB + walker stack every paper experiment uses.
	Backend string
	// TLBEntries/TLBWays describe the last-level TLB; zero fields take
	// translation.Config's defaults, a 32-entry 4-way structure: the
	// paper's 1536-entry STLB scaled roughly with the workload
	// footprints (~1/512), preserving the footprint/TLB-reach ratio
	// that determines miss behaviour.
	TLBEntries, TLBWays int
	// SpotEntries/SpotWays describe the SpOT prediction table
	// (paper evaluation: 32 entries, 4-way).
	SpotEntries, SpotWays int
	// EnableSchemes toggles SpOT/vRMM/DS emulation (they need the
	// mapping state of a populated process). Schemes emulate against
	// the baseline walk, so they require the default paged backend.
	EnableSchemes bool
	// SpotNoConfidence/SpotNoFilter are the SpOT ablation switches
	// (§IV-C mechanisms turned off individually).
	SpotNoConfidence bool
	SpotNoFilter     bool
	// ShadowPaging replaces the nested-walk baseline with shadow
	// paging for virtualized environments: hits walk the composite
	// table at native cost; shadow misses add a hypervisor exit
	// (translation.ShadowExitCycles). Paged backend only.
	ShadowPaging bool
	// Tracer, when non-nil, receives per-batch spans, walk spans, TLB
	// miss/evict events, and SpOT predict/mispredict events from the
	// run. Nil keeps the access loop branch-only (zero allocations).
	Tracer *trace.Tracer
}

// withDefaults fills the zero SpOT fields; translation.New fills the
// TLB's.
func (c Config) withDefaults() Config {
	if c.SpotEntries == 0 {
		c.SpotEntries = 32
	}
	if c.SpotWays == 0 {
		c.SpotWays = 4
	}
	return c
}

// Result aggregates one run's counters.
type Result struct {
	Accesses uint64
	Misses   uint64

	// WalkCycles is the total translation cost the backend charged for
	// all misses (the baseline page-walk cost under the default paged
	// backend).
	WalkCycles float64
	// AvgWalkCycles is WalkCycles/Misses.
	AvgWalkCycles float64

	// SpOT outcome counts (Fig. 14).
	SpotCorrect, SpotMispredict, SpotNoPred uint64

	// RMMUncovered counts misses served by no range (pay a full walk);
	// RMMHits+RMMFills are background-hidden in the paper's model.
	RMMUncovered uint64
	RMMHits      uint64

	// DSMisses counts misses outside the direct segment.
	DSMisses uint64

	// Faults counts stream accesses that had to demand-fault (streams
	// normally run fully populated; nonzero indicates setup gaps).
	Faults uint64

	// ShadowSyncs counts shadow-paging synchronisation exits (only with
	// Config.ShadowPaging).
	ShadowSyncs uint64
}

// MissRatio returns Misses/Accesses.
func (r Result) MissRatio() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// accessBatch is Run's trace span: the machine steps every block in
// spans of this many accesses, and each span emits one EvSimBatch span
// and one counter sample when a tracer is attached.
const accessBatch = 1024

// Run generates ahead: a producer goroutine fills blocks of blockLen
// accesses while the machine steps the previous one, and blockDepth
// blocks circulate between the two. A block is 96 KiB; 1024-access
// blocks lost to the cost of the hand-off (DESIGN.md §7).
const (
	blockLen   = 4 * accessBatch
	blockDepth = 3
)

// block is one hand-off unit of Run's pipeline: accs[:n] are valid.
type block struct {
	accs [blockLen]workloads.Access
	n    int
}

// freeBlocks recycles blocks across runs, so a warm Run allocates no
// access buffer. It is a channel rather than a sync.Pool, which the
// GC empties, and its capacity bounds what it retains to four
// concurrent runs' worth.
var freeBlocks = make(chan *block, 4*blockDepth)

func getBlock() *block {
	select {
	case b := <-freeBlocks:
		return b
	default:
		return new(block)
	}
}

func putBlock(b *block) {
	select {
	case freeBlocks <- b:
	default:
	}
}

// machine bundles the hardware state of one simulation run. Its
// stepBlock and step methods are the steady-state hot loop and perform
// zero heap allocations (pinned by TestRunZeroAllocs across every backend
// and the BenchmarkRun* allocation reports); everything that allocates
// happens in newMachine or on the rare fault/error paths.
type machine struct {
	env  *workloads.Env
	cfg  Config
	be   translation.Backend
	sp   *spot.Table
	rt   *rmm.RangeTLB
	rtab *rmm.Table
	seg  *ds.Segment
	res  Result
	tr   *trace.Tracer
}

// newMachine builds the per-run hardware state.
func newMachine(env *workloads.Env, cfg Config) (*machine, error) {
	if cfg.Backend != "" && cfg.Backend != translation.BackendPaged {
		// The schemes emulate against the baseline walk and shadow
		// paging replaces it; both are properties of the paged stack.
		if cfg.EnableSchemes {
			return nil, fmt.Errorf("sim: EnableSchemes requires the paged backend, not %q", cfg.Backend)
		}
		if cfg.ShadowPaging {
			return nil, fmt.Errorf("sim: ShadowPaging requires the paged backend, not %q", cfg.Backend)
		}
	}
	if cfg.EnableSchemes && (cfg.SpotEntries < 0 || cfg.SpotWays < 0 || cfg.SpotEntries%cfg.SpotWays != 0) {
		return nil, fmt.Errorf("sim: bad SpOT geometry: %d entries, %d ways", cfg.SpotEntries, cfg.SpotWays)
	}
	be, err := translation.New(cfg.Backend, env, translation.Config{
		TLBEntries:   cfg.TLBEntries,
		TLBWays:      cfg.TLBWays,
		ShadowPaging: cfg.ShadowPaging,
	})
	if err != nil {
		return nil, err
	}
	m := &machine{env: env, cfg: cfg, be: be}
	m.setTracer(cfg.Tracer)
	if cfg.EnableSchemes {
		m.sp = spot.New(cfg.SpotEntries, cfg.SpotWays)
		m.sp.DisableConfidence = cfg.SpotNoConfidence
		m.sp.IgnoreFilter = cfg.SpotNoFilter
		m.rt = rmm.NewRangeTLB(translation.RangeTLBEntries)
		ms := env.Mappings()
		m.rtab = rmm.NewTable(ms)
		m.seg = segmentFor(ms)
	}
	return m, nil
}

// reset re-points the machine at env in the state newMachine builds
// for an engine (no schemes) with m's cfg.
func (m *machine) reset(env *workloads.Env) {
	m.be.Reset(env)
	m.env = env
	m.res = Result{}
	m.setTracer(m.cfg.Tracer)
}

// setTracer attaches (or, with nil, detaches) the tracer from every
// hardware component of this machine. The attached-then-detached case
// of TestRunZeroAllocs drives this to prove detaching restores the
// branch-only hot path.
func (m *machine) setTracer(t *trace.Tracer) {
	m.tr = t
	m.be.SetTracer(t)
}

// Run drives n accesses of the workload stream through the machinery.
// The environment must already be set up (populated) by the workload.
//
// The stream is pulled on a second goroutine, up to blockDepth blocks
// ahead of the machine, which is why streams must not touch simulation
// state (workloads.Stream). Run returns only after that goroutine has
// exited, so the stream is never used once Run returns.
func Run(env *workloads.Env, stream workloads.Stream, cfg Config) (Result, error) {
	m, err := newMachine(env, cfg.withDefaults())
	if err != nil {
		return Result{}, err
	}
	defer m.be.Close()
	var blocks [blockDepth]*block
	empty := make(chan *block, blockDepth)
	full := make(chan *block, blockDepth)
	for i := range blocks {
		blocks[i] = getBlock()
		empty <- blocks[i]
	}
	defer func() {
		for _, b := range blocks {
			putBlock(b)
		}
	}()
	stop := make(chan struct{})
	go generate(stream, empty, full, stop)
	for b := range full {
		if err := m.stepBlock(b.accs[:b.n]); err != nil {
			close(stop)
			for range full {
			}
			return m.res, err
		}
		empty <- b
	}
	return m.finish(), nil
}

// generate is Run's producer. It fills each empty block from the
// stream, looping Fill until the block is full or the stream ends (so
// a short Fill never moves a span boundary), and hands it to full. It
// closes full when the stream ends or stop is closed; full has room
// for every block, so the hand-off never blocks.
func generate(s workloads.Stream, empty <-chan *block, full chan<- *block, stop <-chan struct{}) {
	defer close(full)
	for {
		var b *block
		select {
		case b = <-empty:
		case <-stop:
			return
		}
		b.n = 0
		for b.n < blockLen {
			k := s.Fill(b.accs[b.n:])
			if k == 0 {
				break
			}
			b.n += k
		}
		if b.n > 0 {
			full <- b
		}
		if b.n < blockLen {
			return
		}
	}
}

// stepBlock steps the machine over one block in accessBatch spans. It
// pays one backend call per run of hits (Backend.LookupRun) and the
// miss path for the access that ends each run, which leaves the
// machine, its counters and its trace exactly as stepping each access
// would.
func (m *machine) stepBlock(accs []workloads.Access) error {
	for len(accs) > 0 {
		span := accs[:min(len(accs), accessBatch)]
		accs = accs[len(span):]
		start := m.tr.Start()
		for run := span; len(run) > 0; {
			k := m.be.LookupRun(run)
			if k == len(run) {
				m.res.Accesses += uint64(k)
				break
			}
			m.res.Accesses += uint64(k) + 1
			if err := m.miss(run[k]); err != nil {
				return err
			}
			run = run[k+1:]
		}
		if m.tr != nil {
			m.tr.EmitSpan(trace.EvSimBatch, start, uint64(len(span)), m.res.Misses, m.res.Faults)
			m.env.TraceSample()
		}
	}
	return nil
}

// finish derives the aggregate fields and returns the counters.
func (m *machine) finish() Result {
	if m.res.Misses > 0 {
		m.res.AvgWalkCycles = m.res.WalkCycles / float64(m.res.Misses)
	}
	return m.res
}

// step processes one access: the backend's fast-path probe, and on a
// miss the miss path.
func (m *machine) step(a workloads.Access) error {
	m.res.Accesses++
	if m.be.Lookup(a.VA) {
		return nil
	}
	return m.miss(a)
}

// miss serves an access the backend's fast path missed: the backend
// translation, the demand-fault retry, the TLB fill and the per-scheme
// emulation.
func (m *machine) miss(a workloads.Access) error {
	m.res.Misses++

	w := m.be.Translate(a.VA)
	if w.ShadowSynced {
		m.res.ShadowSyncs++
	}
	if !w.OK {
		// The stream touched something unpopulated: fault it in and
		// retry (counted; should be rare).
		m.res.Faults++
		if err := m.env.Touch(a.VA, a.Write); err != nil {
			return fmt.Errorf("sim: fault at %v: %w", a.VA, err)
		}
		w = m.be.Translate(a.VA)
		if w.ShadowSynced {
			m.res.ShadowSyncs++
		}
		if !w.OK {
			return fmt.Errorf("sim: unresolvable access at %v", a.VA)
		}
	}
	m.res.WalkCycles += w.Cost
	m.be.Insert(a.VA, w)

	if !m.cfg.EnableSchemes {
		return nil
	}
	// SpOT: predict before the walk, verify after.
	pred, did := m.sp.Predict(a.PC, a.VA)
	switch m.sp.Verify(a.PC, a.VA, w.HPA, pred, did, w.GContig && w.HContig) {
	case spot.Correct:
		m.res.SpotCorrect++
		if m.tr != nil {
			m.tr.Emit(trace.EvSpotPredict, a.PC, uint64(a.VA), 0)
		}
	case spot.Mispredict:
		m.res.SpotMispredict++
		if m.tr != nil {
			m.tr.Emit(trace.EvSpotMispredict, a.PC, uint64(a.VA), 0)
		}
	default:
		m.res.SpotNoPred++
	}
	// vRMM.
	if _, covered := m.rt.Lookup(a.VA, m.rtab); covered {
		m.res.RMMHits++
	} else {
		m.res.RMMUncovered++
	}
	// Direct Segments dual direct mode.
	if !m.seg.Covers(a.VA) {
		m.res.DSMisses++
	}
	return nil
}

// segmentFor models Direct Segments' dual direct mode: one segment
// sized to cover the process's populated span. DS pre-reserves its
// memory at boot, so the emulated segment covers the mappings' whole
// virtual extent with the offset of its lowest mapping — accesses whose
// actual translation differs would, on real DS hardware, have been
// *placed* at the segment target; for overhead accounting only in/out
// of the segment range matters. (The ds *backend* instead sizes its
// segment to the largest real contiguous mapping, because it must
// return exact physical addresses; see translation.BackendDS.)
//
// The segment's offset must belong to the lowest-VA mapping — the one
// whose start defines the segment base — not to whichever mapping
// happens to be listed first, or base and offset would describe
// different extents.
func segmentFor(ms []metrics.Mapping) *ds.Segment {
	if len(ms) == 0 {
		return ds.NewSegment(0, 0, 0)
	}
	lo, hi, off := ms[0].VA, ms[0].End(), ms[0].Offset()
	for _, m := range ms[1:] {
		if m.VA < lo {
			lo, off = m.VA, m.Offset()
		}
		if m.End() > hi {
			hi = m.End()
		}
	}
	return ds.NewSegment(lo, uint64(hi-lo), off)
}
