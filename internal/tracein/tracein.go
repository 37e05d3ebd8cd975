// Package tracein is the serving-mode input path: a versioned,
// streaming binary trace format for multi-tenant memory workloads,
// a deterministic synthesizer producing reproducible million-event
// inputs, and a replay engine that drains traces through the real
// kernel/hardware stack (one zone shard per tenant group, built and
// audited through internal/shard like the aging campaigns).
//
// Decoder and Synthesizer are both a Source — one event per Next, then
// io.EOF — and Engine.Replay drains any Source, so a trace file and a
// synthetic trace stream through the same path in constant memory.
//
// The format carries the same operation vocabulary internal/check's
// differential machine models — mmap/munmap/touch/range-touch/access/
// fork/exit/hog/unhog/daemon-tick — so every trace has two consumers:
// the replay Engine (real kernels, real translation hardware, audited
// with check.AuditKernels at drain) and check.Machine via the
// canonical Event→check.Op mapping, which keeps the three differential
// oracles in the loop for any input the serving path accepts. See
// DESIGN.md §14 for the format spec and the determinism argument.
package tracein

import (
	"fmt"

	"repro/internal/check"
)

// Kind enumerates the trace event vocabulary. The wire encoding is the
// constant's value, so the order is frozen: new kinds append before
// numKinds and bump no existing value.
type Kind uint8

const (
	// KindMMap maps a new anonymous VMA for the tenant. Arg0 sizes it
	// (the replayer clamps into its VMA-page bounds).
	KindMMap Kind = iota
	// KindMUnmap unmaps one of the tenant's VMAs (Arg0 selects).
	KindMUnmap
	// KindTouch faults or re-touches one page (Arg0 selects the VMA,
	// Arg1 the page, Arg2 bit 0 the write flag).
	KindTouch
	// KindTouchRange populates a page range through the batched
	// range-fault path (Arg0 VMA, Arg1 start page, Arg2 length).
	KindTouchRange
	// KindAccess streams a read burst through the tenant's translation
	// engine — TLB probe, page walk, demand-fault retry (Arg0 PC/stride
	// seed, Arg1 start page, Arg2 burst length).
	KindAccess
	// KindFork forks the tenant's process copy-on-write; if a forked
	// child is already live it exits the child instead (teardown), the
	// same at-cap flip check.Machine's OpFork performs.
	KindFork
	// KindExit tears the tenant down (process exit, VMAs freed). The
	// next event for the tenant respawns it.
	KindExit
	// KindHog pins a fraction of the shard's physical memory in coarse
	// fragmentation chunks (Arg0 picks the fraction).
	KindHog
	// KindUnhog releases one pinned hog set (Arg0 selects).
	KindUnhog
	// KindDaemonTick advances the shard kernel's logical clock past the
	// daemon period and polls the attached daemons.
	KindDaemonTick

	numKinds
)

// kindNames are index-aligned stable identifiers (wire docs, tools).
var kindNames = [numKinds]string{
	"mmap", "munmap", "touch", "touch-range", "access",
	"fork", "exit", "hog", "unhog", "daemon-tick",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NumKinds returns the size of the event vocabulary.
func NumKinds() int { return int(numKinds) }

// MaxTenant bounds tenant IDs. The codec rejects larger values so a
// corrupt or adversarial trace cannot make a replayer grow unbounded
// per-tenant state.
const MaxTenant = 1<<20 - 1

// Event is one decoded trace record. TS is a logical timestamp,
// non-decreasing across the stream (the wire format delta-encodes it,
// so the decoder enforces monotonicity for free). Arg0..Arg2 are
// kind-specific parameters; like check.Op's A/B/C, consumers clamp
// them into legal ranges, so every decodable event is applicable.
type Event struct {
	Kind   Kind
	Tenant uint32
	TS     uint64
	Arg0   uint64
	Arg1   uint64
	Arg2   uint64
}

// Source is a stream of trace events: Next fills ev with the next
// event and returns io.EOF at a clean end of stream. *Decoder reads
// one off the wire, *Synthesizer generates one, and Engine.Replay
// drains any of them.
type Source interface {
	Next(ev *Event) error
}

// opKinds is the canonical Event→check.Op kind mapping. KindExit maps
// to OpFork because the differential machine's fork-at-cap flip is its
// teardown entry point: repeated OpFork alternates fork and child-exit,
// so exits in a trace still exercise teardown there. KindAccess maps
// to OpTLB, the machine's access-burst op. The mapping is total over
// the vocabulary — every decodable trace replays through check.Machine.
var opKinds = [numKinds]check.OpKind{
	KindMMap:       check.OpMMap,
	KindMUnmap:     check.OpUnmap,
	KindTouch:      check.OpTouch,
	KindTouchRange: check.OpTouchRange,
	KindAccess:     check.OpTLB,
	KindFork:       check.OpFork,
	KindExit:       check.OpFork,
	KindHog:        check.OpHog,
	KindUnhog:      check.OpUnhog,
	KindDaemonTick: check.OpDaemonTick,
}

// Op maps the event onto the differential machine's op vocabulary.
// The tenant ID is folded into A (check expands A/B/C through a local
// PRNG, so any fold just diversifies the decoded parameters): distinct
// tenants doing the "same" thing land on distinct machine processes.
func (e Event) Op() check.Op {
	return check.Op{
		Kind: opKinds[e.Kind],
		A:    e.Arg0 ^ uint64(e.Tenant)*0x9e3779b9,
		B:    e.Arg1,
		C:    e.Arg2,
	}
}

// Ops maps a whole event slice through Op, ready for
// check.Machine.ApplyOps.
func Ops(events []Event) []check.Op {
	out := make([]check.Op, len(events))
	for i, e := range events {
		out[i] = e.Op()
	}
	return out
}
