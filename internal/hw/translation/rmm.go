package translation

import (
	"repro/internal/hw/rmm"
	"repro/internal/hw/tlb"
	"repro/internal/hw/walker"
	"repro/internal/mem/addr"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// rmmBackend runs vRMM as the primary mechanism: TLB misses probe the
// RangeTLB backed by the full 2D range table; range-covered misses are
// served at zero visible walk cost (the paper's background range-walk
// assumption), and only uncovered addresses fall back to the paged
// radix walk. Mapping-change events dirty the derived state; the next
// slow-path access rebuilds the range table and flushes the RangeTLB,
// so a stale range can never translate an access.
type rmmBackend struct {
	core
	tlb   *tlb.TLB
	rt    *rmm.RangeTLB
	rtab  *rmm.Table
	watch *mapWatch
	cnt   Counters

	// Rebuilds counts range-table reconstructions (tests).
	Rebuilds uint64
}

func newRMM(env *workloads.Env, cfg Config) *rmmBackend {
	b := &rmmBackend{
		core:  core{env: env},
		tlb:   tlb.New(cfg.TLBEntries, cfg.TLBWays),
		rt:    rmm.NewRangeTLB(cfg.RangeTLBEntries),
		rtab:  rmm.NewTable(ExtractMappings(env)),
		watch: watchTables(env),
	}
	b.SetTracer(cfg.Tracer)
	return b
}

func (b *rmmBackend) Name() string { return BackendRMM }

func (b *rmmBackend) Lookup(va addr.VirtAddr) bool {
	b.cnt.Lookups++
	if b.tlb.Lookup(va) {
		b.cnt.Hits++
		return true
	}
	b.cnt.Misses++
	return false
}

// sync rebuilds the derived range state if mappings changed since the
// last slow-path access. The RangeTLB flush is load-bearing: cached
// ranges carry offsets, and a migrated or unmapped extent must not
// translate through a pre-rebuild entry (TestRangeTLBRebuildFlush).
func (b *rmmBackend) sync() {
	if !b.watch.dirty {
		return
	}
	b.watch.dirty = false
	b.rtab = rmm.NewTable(ExtractMappings(b.env))
	b.rt.Flush()
	b.Rebuilds++
}

func (b *rmmBackend) Translate(va addr.VirtAddr) Walk {
	b.sync()
	if pa, covered := b.rt.Lookup(va, b.rtab); covered {
		// Served by a range: the nested range-table walk is hidden in
		// the background, so no visible cycle cost accrues.
		return Walk{HPA: pa, OK: true}
	}
	return b.walk(va, b.wm)
}

func (b *rmmBackend) Insert(va addr.VirtAddr, w Walk) {
	b.tlb.Insert(va, w.LeafHuge)
}

// Resolve consults the range table only while it is known-fresh: with
// a rebuild pending, the radix walk is the current truth and the probe
// must not mutate, so it peeks the tables directly.
func (b *rmmBackend) Resolve(va addr.VirtAddr) (addr.PhysAddr, float64, bool) {
	if !b.watch.dirty {
		if rng, ok := b.rtab.Find(va); ok {
			return rng.Offset.Target(va), 0, true
		}
	}
	w := b.walk(va, walker.Meter{})
	return w.HPA, w.Cost, w.OK
}

func (b *rmmBackend) Flush() {
	b.tlb.Flush()
	b.rt.Flush()
}

func (b *rmmBackend) Counters() Counters { return b.cnt }

func (b *rmmBackend) SetTracer(t *trace.Tracer) {
	b.wm.T = t
	b.tlb.SetTracer(t)
}

func (b *rmmBackend) Close() { b.watch.close() }
