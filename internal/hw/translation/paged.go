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

// core is the front every backend shares: the L2 TLB and its probe
// accounting, and the native or nested radix walk priced through the
// walk meter that every backend falls back on. It implements the
// Backend methods no mechanism changes — Lookup, LookupRun, Insert,
// Counters, SetTracer, Flush, Close, and the untraced radix Resolve —
// so each backend adds only its Translate and whatever its mechanism
// layers in front of the walk (ranges, a segment, a hashed table).
type core struct {
	env *workloads.Env
	wm  walker.Meter
	tlb *tlb.TLB
	cnt Counters
}

// Lookup probes the TLB, counting one Lookup and one Hit or Miss.
func (c *core) Lookup(va addr.VirtAddr) bool {
	c.cnt.Lookups++
	if c.tlb.Lookup(va) {
		c.cnt.Hits++
		return true
	}
	c.cnt.Misses++
	return false
}

// LookupRun serves the run's hits through the TLB's run probe, which
// leaves the TLB as Lookup would, and accounts the access that missed
// through Lookup.
func (c *core) LookupRun(accs []workloads.Access) int {
	k := c.tlb.HitRun(accs)
	c.cnt.Lookups += uint64(k)
	c.cnt.Hits += uint64(k)
	if k < len(accs) {
		c.Lookup(accs[k].VA)
	}
	return k
}

// Insert fills the TLB with the translation's leaf size.
func (c *core) Insert(va addr.VirtAddr, w Walk) {
	c.tlb.Insert(va, w.LeafHuge)
}

// Resolve reports the baseline radix translation through an untraced
// meter.
func (c *core) Resolve(va addr.VirtAddr) (addr.PhysAddr, float64, bool) {
	w := c.walk(va, walker.Meter{})
	return w.HPA, w.Cost, w.OK
}

func (c *core) Flush() { c.tlb.Flush() }

func (c *core) Counters() Counters { return c.cnt }

func (c *core) SetTracer(t *trace.Tracer) {
	c.wm.T = t
	c.tlb.SetTracer(t)
}

func (c *core) Close() {}

// reset returns the core New builds for env, on c's TLB.
func (c *core) reset(env *workloads.Env) core {
	c.tlb.Reset()
	return core{env: env, tlb: c.tlb}
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

// pagedBackend is the paper's baseline stack: the shared front over
// the radix walk, with optional shadow paging for virtualized
// environments. It needs no mapping-event subscription — every miss
// walks the live tables, and the TLB (like real hardware without
// shootdowns) may carry stale *presence* but never serves physical
// addresses. Resolve is core's: in shadow-paging mode the shadow
// overlay is deliberately not consulted, since shadow walks install
// entries (they mutate) and the shadow never diverges from the
// composed translation it shadows.
type pagedBackend struct {
	core
	shadowPaging bool // Config.ShadowPaging
	shadow       *virt.ShadowTable
}

// init builds the backend over c with its configured shadowPaging.
func (b *pagedBackend) init(c core) {
	*b = pagedBackend{core: c, shadowPaging: b.shadowPaging}
	if b.shadowPaging && c.env.VM != nil {
		b.shadow = c.env.VM.NewShadow(c.env.Proc)
	}
}

func (b *pagedBackend) Reset(env *workloads.Env) { b.init(b.reset(env)) }

func (b *pagedBackend) Name() string { return BackendPaged }

func (b *pagedBackend) Translate(va addr.VirtAddr) Walk {
	w := b.walk(va, b.wm)
	if b.shadow != nil {
		if shpa, lvl, synced, sok := b.shadow.Walk(va); sok {
			w.HPA, w.OK = shpa, true
			w.LeafHuge = lvl == pagetable.HugeLevel
			w.Cost = walker.NativeCost(lvl)
			if synced {
				w.Cost += ShadowExitCycles
				w.ShadowSynced = true
			}
		}
	}
	return w
}
