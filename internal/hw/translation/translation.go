// Package translation defines the pluggable translation-backend
// interface behind sim's access loop, in the spirit of Virtuoso's
// modular translation lab: many mechanisms, one loop, one cost
// currency (walk cycles). The default backend is the paper's stack —
// an L2 TLB in front of the native/nested radix walk, with
// optional shadow paging — and three alternates reuse the hardware
// seeds: an RMM-style range table + RangeTLB, Direct Segments with
// paged fallback, and a hashed/flattened page table.
//
// Backends that derive state from the mappings (range tables, the
// segment, the hashed mirror) subscribe to pagetable.Observer events,
// so invalidation is exact: every map/unmap/promotion/migration/CoW
// remap the kernel performs routes through Map4K/Map2M/Unmap/Redirect
// and therefore reaches the backend synchronously. DESIGN.md §13
// documents the contract.
package translation

import (
	"fmt"

	"repro/internal/mem/addr"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Backend names, in presentation order.
const (
	BackendPaged  = "paged"  // TLB + native/nested radix walk (the paper's baseline)
	BackendHashed = "hashed" // hashed/flattened page table, radix fill on miss
	BackendRMM    = "rmm"    // range table + RangeTLB, paged fallback when uncovered
	BackendDS     = "ds"     // direct segment, paged fallback outside it
)

// Names returns every backend name in presentation order.
func Names() []string {
	return []string{BackendPaged, BackendHashed, BackendRMM, BackendDS}
}

// Walk is one backend translation outcome: what the access loop needs
// to account an access and fill its TLB.
type Walk struct {
	// HPA is the final (host-)physical address of the access.
	HPA addr.PhysAddr
	// Cost is the translation's cycle cost under the backend's model.
	Cost float64
	// LeafHuge reports a 2 MiB effective leaf (TLB fill size).
	LeafHuge bool
	// GContig/HContig are the leaf contiguity bits (native walks report
	// the single PTE bit in both). Only the paged backend's consumers
	// (SpOT) read them.
	GContig, HContig bool
	// ShadowSynced reports that this translation took a shadow-paging
	// synchronisation exit (paged backend with Config.ShadowPaging).
	ShadowSynced bool
	// OK is false when the address is unbacked: the caller must fault
	// and retry.
	OK bool
}

// Counters is a backend's self-consistent probe accounting: Lookups
// counts Lookup calls, each of which is exactly one Hit or one Miss.
// All three are monotone; the differential net asserts both invariants.
type Counters struct {
	Lookups, Hits, Misses uint64
}

// Backend is one translation mechanism under sim's access loop. The
// loop calls, per access: Lookup — on false, Translate, a possible
// fault-retry, then Insert. The steady-state path (Lookup hit, or
// Translate without fault) must not allocate: the zero-alloc contract
// of the access loop extends to every backend (TestRunZeroAllocs).
//
// Implementations attach themselves to the environment's page tables
// at construction where they need mapping-change events; Close
// detaches them. A backend is single-goroutine, like the machine that
// owns it.
type Backend interface {
	// Name returns the backend's registry name.
	Name() string
	// Lookup probes the backend's fast path (TLB, segment) for va,
	// counting one Lookup and one Hit or Miss. A true return means the
	// access is fully served; false means the loop pays Translate.
	Lookup(va addr.VirtAddr) bool
	// Translate resolves va on the slow path. Walk.OK false means the
	// address is unbacked; after a successful demand fault the caller
	// retries.
	Translate(va addr.VirtAddr) Walk
	// Insert caches a successful Translate result for va on the fast
	// path (typically a TLB fill).
	Insert(va addr.VirtAddr, w Walk)
	// Resolve is the non-mutating probe: the PA and cycle cost the
	// backend would serve for va right now, without touching counters,
	// LRU state, or caches. It is the differential-test observable and
	// the perfmodel cost hook.
	Resolve(va addr.VirtAddr) (addr.PhysAddr, float64, bool)
	// Flush drops all cached translation state (TLB, range TLB, hashed
	// entries); derived tables are rebuilt on demand.
	Flush()
	// Counters returns the accumulated probe accounting.
	Counters() Counters
	// SetTracer attaches (nil: detaches) a tracer to the backend's
	// hardware components.
	SetTracer(t *trace.Tracer)
	// Close detaches the backend from the environment's page tables.
	// The backend must not be used afterwards.
	Close()
}

// Config carries the hardware parameters backends consume. Zero fields
// default to the paper's scaled Table II values (see sim.Config).
type Config struct {
	TLBEntries, TLBWays int
	RangeTLBEntries     int
	// ShadowPaging/ShadowExitCycles configure the paged backend's
	// shadow-paging mode (virtualized environments only).
	ShadowPaging     bool
	ShadowExitCycles float64
	Tracer           *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.TLBEntries == 0 {
		c.TLBEntries = 32
	}
	if c.TLBWays == 0 {
		c.TLBWays = 4
	}
	if c.RangeTLBEntries == 0 {
		c.RangeTLBEntries = 32
	}
	if c.ShadowExitCycles == 0 {
		c.ShadowExitCycles = 1200
	}
	return c
}

// New builds the named backend over env. The empty name selects the
// default paged backend. env must already be set up (populated) —
// backends that derive state from the mappings extract them eagerly.
func New(name string, env *workloads.Env, cfg Config) (Backend, error) {
	cfg = cfg.withDefaults()
	switch name {
	case "", BackendPaged:
		return newPaged(env, cfg), nil
	case BackendHashed:
		return newHashed(env, cfg), nil
	case BackendRMM:
		return newRMM(env, cfg), nil
	case BackendDS:
		return newDS(env, cfg), nil
	}
	return nil, fmt.Errorf("translation: unknown backend %q (have %v)", name, Names())
}

// ExtractMappings pulls the current contiguous mappings of the
// environment's process: full 2D (gVA→hPA) mappings in a VM, native
// mappings otherwise. Range tables and segments are derived from them.
func ExtractMappings(env *workloads.Env) []metrics.Mapping {
	if env.VM != nil {
		return env.VM.Mappings2D(env.Proc)
	}
	return metrics.FromPageTable(env.Proc.PT)
}
