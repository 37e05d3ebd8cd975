package translation

import (
	"repro/internal/hw/tlb"
	"repro/internal/hw/walker"
	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
	"repro/internal/trace"
	"repro/internal/virt"
	"repro/internal/workloads"
)

// core is the radix-walk machinery every backend falls back on: the
// native or nested page walk, priced through the walk meter. It holds
// no fast-path state of its own — backends layer their TLBs, ranges,
// segments, and hashed tables in front of it.
type core struct {
	env *workloads.Env
	wm  walker.Meter
}

// walk performs the baseline translation for va: a nested walk in a
// VM, a native walk otherwise. The native case reports the single PTE
// contiguity bit in both positions. The cost is priced through m:
// translations pass the core's meter so every priced walk becomes a
// trace span, and side-effect-free probes pass a zero Meter.
func (c *core) walk(va addr.VirtAddr, m walker.Meter) Walk {
	env := c.env
	if env.VM != nil {
		w := env.VM.Walk(env.Proc, va)
		if !w.OK {
			return Walk{}
		}
		return Walk{
			HPA:      w.HPA,
			Cost:     m.Nested(va, w),
			LeafHuge: w.GuestLevel == pagetable.HugeLevel && w.HostLevel == pagetable.HugeLevel,
			GContig:  w.GuestContig,
			HContig:  w.HostContig,
			OK:       true,
		}
	}
	pte, level, _, okWalk := env.Proc.PT.Walk(va)
	if !okWalk {
		return Walk{}
	}
	span := uint64(addr.PageSize)
	if level == pagetable.HugeLevel {
		span = addr.HugeSize
	}
	contig := pte.Flags.Has(pagetable.Contig)
	return Walk{
		HPA:      pte.PFN.Addr() + addr.PhysAddr(uint64(va)&(span-1)),
		Cost:     m.Native(va, level),
		LeafHuge: level == pagetable.HugeLevel,
		GContig:  contig,
		HContig:  contig,
		OK:       true,
	}
}

// pagedBackend is the paper's baseline stack: L2 TLB in front of the
// radix walk, with optional shadow paging for virtualized
// environments. It needs no mapping-event subscription — every miss
// walks the live tables, and the TLB (like real hardware without
// shootdowns) may carry stale *presence* but never serves physical
// addresses.
type pagedBackend struct {
	core
	tlb        *tlb.TLB
	shadow     *virt.ShadowTable
	shadowExit float64
	cnt        Counters
}

func newPaged(env *workloads.Env, cfg Config) *pagedBackend {
	b := &pagedBackend{
		core:       core{env: env},
		tlb:        tlb.New(cfg.TLBEntries, cfg.TLBWays),
		shadowExit: cfg.ShadowExitCycles,
	}
	if cfg.ShadowPaging && env.VM != nil {
		b.shadow = env.VM.NewShadow(env.Proc)
	}
	b.SetTracer(cfg.Tracer)
	return b
}

func (b *pagedBackend) Name() string { return BackendPaged }

func (b *pagedBackend) Lookup(va addr.VirtAddr) bool {
	b.cnt.Lookups++
	if b.tlb.Lookup(va) {
		b.cnt.Hits++
		return true
	}
	b.cnt.Misses++
	return false
}

func (b *pagedBackend) Translate(va addr.VirtAddr) Walk {
	w := b.walk(va, b.wm)
	if b.shadow != nil {
		if shpa, lvl, synced, sok := b.shadow.Walk(va); sok {
			w.HPA, w.OK = shpa, true
			w.LeafHuge = lvl == pagetable.HugeLevel
			w.Cost = walker.NativeCost(lvl)
			if synced {
				w.Cost += b.shadowExit
				w.ShadowSynced = true
			}
		}
	}
	return w
}

func (b *pagedBackend) Insert(va addr.VirtAddr, w Walk) {
	b.tlb.Insert(va, w.LeafHuge)
}

// Resolve reports the baseline radix translation. In shadow-paging
// mode the shadow overlay is deliberately not consulted: shadow walks
// install entries (they mutate), and the shadow never diverges from
// the composed translation it shadows.
func (b *pagedBackend) Resolve(va addr.VirtAddr) (addr.PhysAddr, float64, bool) {
	w := b.walk(va, walker.Meter{})
	return w.HPA, w.Cost, w.OK
}

func (b *pagedBackend) Flush() {
	b.tlb.Flush()
}

func (b *pagedBackend) Counters() Counters { return b.cnt }

func (b *pagedBackend) SetTracer(t *trace.Tracer) {
	b.wm.T = t
	b.tlb.SetTracer(t)
}

func (b *pagedBackend) Close() {}

// Shadow exposes the shadow table (sim reads SyncExits; nil without
// ShadowPaging).
func (b *pagedBackend) Shadow() *virt.ShadowTable { return b.shadow }
