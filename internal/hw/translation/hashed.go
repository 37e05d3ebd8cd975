package translation

import (
	"repro/internal/hw/hashpt"
	"repro/internal/hw/tlb"
	"repro/internal/hw/walker"
	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// hashedProbeCycles prices one probe step of a hashed walk. A flat
// table has no upper levels for the paging-structure caches to absorb,
// so each probe is one full memory reference — costlier than the 5.4
// blended cycles of a radix reference, but a near-capacity chain stays
// at ~1 probe, undercutting the native 4-level average (45) and
// especially the nested 24-reference walk (~130).
const hashedProbeCycles = 30.0

// hashedBackend models a hashed/flattened page table: TLB misses probe
// one open-addressed table keyed by 4K VPN whose entries hold final
// host-physical frames. Entries are installed lazily — the first miss
// on a VPN pays the radix walk that computes the flattened entry (the
// OS filling the hashed table), every later miss pays only the probe
// chain. Invalidation is exact and event-driven: a guest unmap or
// migration removes the covered VPNs; host-side loss of backing (rare
// — host frames under a running workload only churn via migration)
// flushes the table, since a VPN-keyed table has no reverse index.
type hashedBackend struct {
	core
	tlb         *tlb.TLB
	ht          *hashpt.Table
	guest, host *pagetable.Table // host nil when native
	cnt         Counters

	// HashHits/HashFills count probe-chain hits and lazy installs.
	HashHits, HashFills uint64
}

func newHashed(env *workloads.Env, cfg Config) *hashedBackend {
	b := &hashedBackend{
		core: core{env: env},
		tlb:  tlb.New(cfg.TLBEntries, cfg.TLBWays),
		ht:   hashpt.New(),
	}
	if env.VM != nil {
		b.guest, b.host = env.VM.NestedTables(env.Proc)
	} else {
		b.guest = env.Proc.PT
	}
	b.guest.AddObserver((*hashedGuestWatch)(b))
	if b.host != nil {
		b.host.AddObserver((*hashedHostWatch)(b))
	}
	b.SetTracer(cfg.Tracer)
	return b
}

// hashedGuestWatch receives guest-dimension mapping events. New
// mappings need no action (entries install lazily, and an entry can
// only exist for a VPN whose translation succeeded — which a fresh
// Map* cannot have changed, since double-mapping panics); unmap and
// migration drop exactly the covered VPNs.
type hashedGuestWatch hashedBackend

func (w *hashedGuestWatch) Mapped(va addr.VirtAddr, pages uint64) {}
func (w *hashedGuestWatch) Unmapped(va addr.VirtAddr, pages uint64) {
	(*hashedBackend)(w).drop(va, pages)
}
func (w *hashedGuestWatch) Redirected(va addr.VirtAddr, pages uint64) {
	(*hashedBackend)(w).drop(va, pages)
}

// hashedHostWatch receives host-dimension events (nested only). The
// table is keyed by guest VPN, so host-side PA changes cannot be
// mapped back to entries; correctness over cost, flush everything.
type hashedHostWatch hashedBackend

func (w *hashedHostWatch) Mapped(va addr.VirtAddr, pages uint64)     {}
func (w *hashedHostWatch) Unmapped(va addr.VirtAddr, pages uint64)   { w.ht.Flush() }
func (w *hashedHostWatch) Redirected(va addr.VirtAddr, pages uint64) { w.ht.Flush() }

func (b *hashedBackend) drop(va addr.VirtAddr, pages uint64) {
	vpn := uint64(va) >> addr.PageShift
	for i := uint64(0); i < pages; i++ {
		b.ht.Remove(vpn + i)
	}
}

func (b *hashedBackend) Name() string { return BackendHashed }

func (b *hashedBackend) Lookup(va addr.VirtAddr) bool {
	b.cnt.Lookups++
	if b.tlb.Lookup(va) {
		b.cnt.Hits++
		return true
	}
	b.cnt.Misses++
	return false
}

func (b *hashedBackend) Translate(va addr.VirtAddr) Walk {
	vpn := uint64(va) >> addr.PageShift
	if pa, huge, probes, ok := b.ht.Lookup(vpn); ok {
		b.HashHits++
		return Walk{
			HPA:      pa + addr.PhysAddr(uint64(va)&addr.PageMask),
			Cost:     float64(probes) * hashedProbeCycles,
			LeafHuge: huge,
			OK:       true,
		}
	}
	w := b.walk(va, b.wm)
	if w.OK {
		b.ht.Insert(vpn, w.HPA-addr.PhysAddr(uint64(va)&addr.PageMask), w.LeafHuge)
		b.HashFills++
	}
	return w
}

func (b *hashedBackend) Insert(va addr.VirtAddr, w Walk) {
	b.tlb.Insert(va, w.LeafHuge)
}

func (b *hashedBackend) Resolve(va addr.VirtAddr) (addr.PhysAddr, float64, bool) {
	vpn := uint64(va) >> addr.PageShift
	if pa, _, probes, ok := b.ht.Lookup(vpn); ok {
		return pa + addr.PhysAddr(uint64(va)&addr.PageMask), float64(probes) * hashedProbeCycles, true
	}
	w := b.walk(va, walker.Meter{})
	return w.HPA, w.Cost, w.OK
}

func (b *hashedBackend) Flush() {
	b.tlb.Flush()
	b.ht.Flush()
}

func (b *hashedBackend) Counters() Counters { return b.cnt }

func (b *hashedBackend) SetTracer(t *trace.Tracer) {
	b.wm.T = t
	b.tlb.SetTracer(t)
}

func (b *hashedBackend) Close() {
	b.guest.RemoveObserver((*hashedGuestWatch)(b))
	if b.host != nil {
		b.host.RemoveObserver((*hashedHostWatch)(b))
	}
}
