// Package tlb models the set-associative last-level data TLB (L2 STLB)
// whose misses the paper instruments: a unified 4 KiB + 2 MiB structure
// with LRU replacement, matching the Broadwell configuration of
// Table II (1536 entries, 6-way).
//
// Only the last-level TLB is modelled: the paper's methodology (§V)
// considers "only the costly L2 STLB misses that trigger page walks".
package tlb

import (
	"repro/internal/mem/addr"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// entry is one way: 16 bytes, so a 6-way set spans 96 bytes. key packs
// the page number (4K or 2M VPN), the size bit and a valid bit as
// tag<<2 | huge<<1 | 1, so a probe is one compare per way and the zero
// value is an empty way.
type entry struct {
	key uint64
	lru uint64
}

const (
	keyValid = 1
	keyHuge  = 2
)

// key returns the packed way key of (tag, huge).
func key(tag uint64, huge bool) uint64 {
	if huge {
		return tag<<2 | keyHuge | keyValid
	}
	return tag<<2 | keyValid
}

// TLB is a unified set-associative translation cache. The ways of all
// sets live in one flat backing array indexed by set*ways+way: probing
// a set is one bounds-checked slice, not a pointer chase through a
// per-set allocation, which matters because Lookup runs once per
// simulated access.
type TLB struct {
	entries []entry
	nsets   uint64
	ways    int
	tick    uint64
	lookups uint64
	misses  uint64
	// nSmall/nHuge count the valid entries of each page size, letting
	// Lookup skip the probe of a size the TLB holds no entries for —
	// the common case in the pure-4K and THP-saturated configurations.
	nSmall uint64
	nHuge  uint64
	// tr, when non-nil, receives miss and eviction events. One nil
	// check per miss/insert when tracing is off — Lookup's hit path is
	// untouched.
	tr *trace.Tracer
}

// New creates a TLB with the given total entry count and associativity.
// entries must be a multiple of ways. A non-power-of-two set count is
// rounded down to a power of two so index masking works, and the
// associativity is raised to compensate, so the structure never holds
// fewer entries than requested (it used to silently shrink: New(48, 4)
// built 32 entries). Entries reports the effective geometry.
func New(entries, ways int) *TLB {
	nsets := entries / ways
	if nsets <= 0 || entries%ways != 0 {
		panic("tlb: bad geometry")
	}
	if nsets&(nsets-1) != 0 {
		// The paper's 1536/6 = 256 sets is already a power of two.
		n := 1
		for n*2 <= nsets {
			n *= 2
		}
		nsets = n
		ways = (entries + nsets - 1) / nsets
	}
	return &TLB{entries: make([]entry, nsets*ways), nsets: uint64(nsets), ways: ways}
}

// SetTracer attaches (or, with nil, detaches) an event tracer.
func (t *TLB) SetTracer(tr *trace.Tracer) { t.tr = tr }

// Entries returns the effective capacity (sets x ways), which is at
// least the entry count requested from New.
func (t *TLB) Entries() int { return int(t.nsets) * t.ways }

// Ways returns the effective associativity (after any geometry rounding
// New performed). Reference models size their compatibility bounds off
// it: a set-associative LRU and a fully-associative LRU of the same
// capacity agree exactly on streams with at most Ways distinct tags.
func (t *TLB) Ways() int { return t.ways }

// Lookups returns the number of lookups performed.
func (t *TLB) Lookups() uint64 { return t.lookups }

// Misses returns the number of lookups that missed.
func (t *TLB) Misses() uint64 { return t.misses }

// MissRatio returns misses/lookups (0 when idle).
func (t *TLB) MissRatio() float64 {
	if t.lookups == 0 {
		return 0
	}
	return float64(t.misses) / float64(t.lookups)
}

func (t *TLB) set(tag uint64) []entry {
	i := (tag & (t.nsets - 1)) * uint64(t.ways)
	return t.entries[i : i+uint64(t.ways)]
}

// Lookup probes the TLB for va at both page sizes, updating LRU and
// counters. It reports whether the translation was cached. The 4K/2M
// probes are unrolled into direct calls (no per-call probe-descriptor
// slice): Lookup must not allocate.
func (t *TLB) Lookup(va addr.VirtAddr) bool {
	t.lookups++
	t.tick++
	if tag := uint64(va) >> addr.PageShift; t.nSmall > 0 && t.stamp(tag, key(tag, false), t.tick) {
		return true
	}
	if tag := uint64(va) >> addr.HugeShift; t.nHuge > 0 && t.stamp(tag, key(tag, true), t.tick) {
		return true
	}
	t.misses++
	if t.tr != nil {
		t.tr.Emit(trace.EvTLBMiss, uint64(va), 0, 0)
	}
	return false
}

// HitRun is Lookup's hit path over a run of accesses. It probes each
// access's VA in order and, while they hit, counts the lookup, advances
// the LRU clock and stamps the way exactly as Lookup would. It stops
// at the first miss, which it leaves unaccounted, so the TLB is as the
// hits before it left it, and returns how many hit: len(accs) when all
// do. The caller accounts the miss through Lookup.
func (t *TLB) HitRun(accs []workloads.Access) int {
	tick := t.tick
	for i := range accs {
		tick++
		va := accs[i].VA
		if tag := uint64(va) >> addr.PageShift; t.nSmall > 0 && t.stamp(tag, key(tag, false), tick) {
			continue
		}
		if tag := uint64(va) >> addr.HugeShift; t.nHuge > 0 && t.stamp(tag, key(tag, true), tick) {
			continue
		}
		t.tick, t.lookups = tick-1, t.lookups+uint64(i)
		return i
	}
	t.tick, t.lookups = tick, t.lookups+uint64(len(accs))
	return len(accs)
}

// stamp searches tag's set for the way holding k and stamps it with
// tick on a hit.
func (t *TLB) stamp(tag, k, tick uint64) bool {
	set := t.set(tag)
	for i := range set {
		if set[i].key == k {
			set[i].lru = tick
			return true
		}
	}
	return false
}

// Insert caches the translation covering va with the given page size,
// evicting the LRU way of its set.
func (t *TLB) Insert(va addr.VirtAddr, huge bool) {
	t.tick++
	tag := uint64(va) >> addr.PageShift
	if huge {
		tag = uint64(va) >> addr.HugeShift
	}
	set := t.set(tag)
	victim := 0
	for i := range set {
		if set[i].key == 0 {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if old := set[victim].key; old != 0 {
		t.sizeCount(old&keyHuge != 0, -1)
		if t.tr != nil {
			t.tr.Emit(trace.EvTLBEvict, old>>2, (old>>1)&1, 0)
		}
	}
	t.sizeCount(huge, +1)
	set[victim] = entry{key: key(tag, huge), lru: t.tick}
}

// sizeCount adjusts the per-page-size valid-entry counter.
func (t *TLB) sizeCount(huge bool, d int) {
	if huge {
		t.nHuge += uint64(d)
	} else {
		t.nSmall += uint64(d)
	}
}

// Flush invalidates all entries (context switch / shootdown).
func (t *TLB) Flush() {
	clear(t.entries)
	t.nSmall, t.nHuge = 0, 0
}

// Reset returns the TLB to the state New built it in — every entry
// empty, the LRU clock, the counters and the per-size counts zeroed, no
// tracer — keeping its geometry and its entry array.
func (t *TLB) Reset() {
	clear(t.entries)
	*t = TLB{entries: t.entries, nsets: t.nsets, ways: t.ways}
}
