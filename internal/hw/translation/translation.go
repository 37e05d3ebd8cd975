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
// segment, the hashed mirror) subscribe to pagetable.Observer events;
// the paged backend derives nothing and subscribes to nothing. Events
// make invalidation exact: every map/unmap/promotion/migration/CoW
// remap the kernel performs routes through Map4K/Map2M/Unmap/Redirect
// and therefore reaches the backend synchronously. DESIGN.md §13
// documents the contract.
package translation

import (
	"fmt"

	"repro/internal/hw/tlb"
	"repro/internal/mem/addr"
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
// fault-retry, then Insert. A loop over a block of accesses calls
// LookupRun instead, once per run of hits, and pays the same slow path
// for the access that ends the run. The steady-state path (a hit, or
// Translate without fault) must not allocate: the zero-alloc contract
// of the access loop extends to every backend (TestRunZeroAllocs).
//
// Implementations attach themselves to the environment's page tables
// at construction where they need mapping-change events; Close
// detaches them, and Reset reuses a closed backend for another
// environment. A backend is single-goroutine, like the machine that
// owns it.
type Backend interface {
	// Name returns the backend's registry name.
	Name() string
	// Lookup probes the backend's fast path (TLB, segment) for va,
	// counting one Lookup and one Hit or Miss. A true return means the
	// access is fully served; false means the loop pays Translate.
	Lookup(va addr.VirtAddr) bool
	// LookupRun Lookups accs in order until one misses and returns how
	// many hit: len(accs) when all do, else the index of the access
	// that missed, which it counts as one Lookup and one Miss. Every
	// counter, the TLB's LRU clock and stamps, derived state and trace
	// event end as that same sequence of Lookup calls leaves them.
	LookupRun(accs []workloads.Access) int
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
	// The backend must not be used afterwards, except through Reset.
	Close()
	// Reset re-points a closed backend at env and leaves it in exactly
	// the state New(Name(), env, cfg) builds with the cfg it was built
	// with: an empty TLB with its LRU clock and counters at zero, zero
	// Counters, no tracer, and derived state (shadow table, range
	// table, segment, hashed table, subscriptions) rebuilt for env
	// through the constructor's own path. Only the TLB's entry array is
	// reused.
	Reset(env *workloads.Env)
}

const (
	// RangeTLBEntries is the vRMM range TLB capacity (paper: 32).
	RangeTLBEntries = 32
	// ShadowExitCycles is the cost of one shadow-sync hypervisor exit,
	// a VM-exit round trip.
	ShadowExitCycles = 1200
)

// Config carries the hardware parameters backends consume. Zero fields
// default to the paper's scaled Table II values (see sim.Config).
type Config struct {
	// TLBEntries/TLBWays describe the L2 TLB in front of every backend
	// (default 32 entries, 4-way). Entries must be a positive multiple
	// of the ways.
	TLBEntries, TLBWays int
	// ShadowPaging selects the paged backend's shadow-paging mode
	// (virtualized environments only).
	ShadowPaging bool
}

func (c Config) withDefaults() Config {
	if c.TLBEntries == 0 {
		c.TLBEntries = 32
	}
	if c.TLBWays == 0 {
		c.TLBWays = 4
	}
	return c
}

// New builds the named backend over env. The empty name selects the
// default paged backend. env must already be set up (populated) —
// backends that derive state from the mappings extract them eagerly.
// A TLB geometry tlb.New would reject is an error.
func New(name string, env *workloads.Env, cfg Config) (Backend, error) {
	cfg = cfg.withDefaults()
	if cfg.TLBEntries < 0 || cfg.TLBWays < 0 || cfg.TLBEntries%cfg.TLBWays != 0 {
		return nil, fmt.Errorf("translation: bad TLB geometry: %d entries, %d ways", cfg.TLBEntries, cfg.TLBWays)
	}
	// init builds a backend over a core; Reset reruns it.
	var b interface {
		Backend
		init(core)
	}
	switch name {
	case "", BackendPaged:
		b = &pagedBackend{shadowPaging: cfg.ShadowPaging}
	case BackendHashed:
		b = new(hashedBackend)
	case BackendRMM:
		b = new(rmmBackend)
	case BackendDS:
		b = new(dsBackend)
	default:
		return nil, fmt.Errorf("translation: unknown backend %q (have %v)", name, Names())
	}
	b.init(core{env: env, tlb: tlb.New(cfg.TLBEntries, cfg.TLBWays)})
	return b, nil
}
