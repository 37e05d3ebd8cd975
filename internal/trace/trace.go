// Package trace is the simulator's observability layer: a process-wide
// event buffer and counter registry that every subsystem — the kernel
// fault path, the buddy allocator, the TLB, the page walker, the
// virtualization layer, and the sim engine — reports into through one
// nil-able *Tracer.
//
// The central contract is that tracing is free when off. Every
// instrumentation site guards on a nil Tracer (or a nil tracer field
// set from one), so the disabled path costs one predictable branch:
// zero heap allocations on the steady-state access loop (pinned by
// TestRunZeroAllocs) and byte-identical experiment tables (pinned by
// TestGoldenTablesWithTracingEnabled — tracing *enabled* must not
// change them either, since the tracer only observes).
//
// Timestamps are a tracer-owned logical sequence counter, not wall
// clock: two runs of the same deterministic simulation produce the
// same trace byte for byte. Simulated kernel time (the logical
// nanosecond clock) travels in event arguments instead, which is what
// cmd/tracestat's fault→promotion latency histogram consumes.
//
// A Tracer is safe for concurrent use: the experiment runner executes
// drivers in parallel, and all of them may share one tracer (cmd/
// reproduce -trace). Event order in the buffer is the lock-acquisition
// order; counters are exact even after the event buffer saturates
// (events past the cap are counted and dropped, never silently lost).
package trace

import "sync"

// Kind enumerates the event vocabulary. The names (see Kind.String)
// are the stable external identifiers exporters and cmd/tracestat key
// on; DESIGN.md §9 documents the per-kind argument meaning.
type Kind uint8

const (
	// EvFault4K is an anonymous 4 KiB demand fault (va, lat_ns, clock).
	EvFault4K Kind = iota
	// EvFaultHuge is an anonymous 2 MiB (THP) fault (va, lat_ns, clock).
	EvFaultHuge
	// EvFaultCoW is a copy-on-write fault (va, lat_ns, clock).
	EvFaultCoW
	// EvFaultFile is a page-cache fault (va, lat_ns, clock).
	EvFaultFile
	// EvFaultEager is an eager pre-allocation event (va, lat_ns, clock).
	EvFaultEager
	// EvCAPlace is a CA paging placement decision: a next-fit search
	// anchored a new tracked offset (va, offset, pages).
	EvCAPlace
	// EvCATargetHit is a successful targeted allocation (va, pfn, order).
	EvCATargetHit
	// EvCAFallback is a CA target miss that fell back to the default
	// allocator (va, order).
	EvCAFallback
	// EvPromote is an Ingens huge-page promotion (va, pfn, clock).
	EvPromote
	// EvDemote is a huge-page demotion (va, pfn, clock). Reserved: the
	// simulator currently has no demotion path (nothing splits a huge
	// mapping back to base pages), so this kind is never emitted.
	EvDemote
	// EvMigrate is a page migration (va, pfn, pages).
	EvMigrate
	// EvIngensEpoch spans one Ingens scan epoch (promotions, 0, clock).
	EvIngensEpoch
	// EvRangerEpoch spans one Ranger defrag epoch (migrated, 0, clock).
	EvRangerEpoch
	// EvBuddySplit is a free order-`order` block at pfn broken up
	// (zone, pfn, order): one halving step of a block allocation, or
	// the whole block a run claim (AllocN, AllocRunAt) takes frames
	// from, once however many halvings the claim stands for.
	EvBuddySplit
	// EvBuddyCoalesce is one coalesce step: two buddies merged into the
	// order-`order` block at pfn (zone, pfn, order).
	EvBuddyCoalesce
	// EvBuddyDepth is a free-list depth sample (zone, order, blocks).
	EvBuddyDepth
	// EvBuddyFrag is a fragmentation-score sample (zone, permille).
	EvBuddyFrag
	// EvTLBMiss is a last-level TLB miss (va).
	EvTLBMiss
	// EvTLBEvict is a valid-entry eviction (tag, huge).
	EvTLBEvict
	// EvWalkNative spans a native page walk; duration is the walk cost
	// in cycles (va, level, refs).
	EvWalkNative
	// EvWalk2D spans a nested 2D walk composition; duration is the walk
	// cost in cycles (va, refs, levels packed guest<<8|host).
	EvWalk2D
	// EvSpotPredict is a correct SpOT prediction (pc, va).
	EvSpotPredict
	// EvSpotMispredict is a SpOT misprediction (pc, va).
	EvSpotMispredict
	// EvNestedFault is a host-side (EPT-style) fault taken while
	// backing a guest access (gva, gpa).
	EvNestedFault
	// EvSimBatch spans one sim.Run access batch (n, misses, faults —
	// the latter two cumulative at batch end).
	EvSimBatch
	// EvPhase spans a named driver phase; A is the interned name id,
	// resolved back to the name on export.
	EvPhase
	// EvAgingSnapshot marks one aging-campaign snapshot (step,
	// rss_pages, frag_permille); the full per-snapshot state rides the
	// "aging.*" gauges sampled at the same instant.
	EvAgingSnapshot
	// EvShardEpoch spans one shard's parallel epoch step of a sharded
	// aging campaign (shard, step, clock_ns). The Chrome exporter
	// renders each shard on its own lane.
	EvShardEpoch
	// EvShardBarrier spans the serial epoch barrier that merges
	// cross-shard effects — deferred OOM reclaim and page-cache churn —
	// in shard-index order (step, retried, clock_ns).
	EvShardBarrier
	// EvReplayBatch spans one trace-replay progress window of a shard
	// stream (shard, events, faults): the replay engine emits one per
	// SampleEvery applied events. Like EvShardEpoch it is re-homed onto
	// the shard's dynamic lane by the Chrome exporter.
	EvReplayBatch

	numKinds
)

// kindNames are the stable exported identifiers, index-aligned with
// the Kind constants.
var kindNames = [numKinds]string{
	"fault.4k", "fault.huge", "fault.cow", "fault.file", "fault.eager",
	"ca.place", "ca.target_hit", "ca.fallback",
	"promote", "demote", "migrate",
	"daemon.ingens", "daemon.ranger",
	"buddy.split", "buddy.coalesce", "buddy.depth", "buddy.frag",
	"tlb.miss", "tlb.evict",
	"walk.native", "walk.2d",
	"spot.predict", "spot.mispredict",
	"nested.fault",
	"sim.batch", "phase",
	"aging.snapshot",
	"shard.epoch", "shard.barrier",
	"replay.batch",
}

// String returns the stable event-kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// NumKinds returns the size of the event vocabulary.
func NumKinds() int { return int(numKinds) }

// Event is one recorded event. TS is the logical sequence timestamp;
// Dur is nonzero for spans (sequence distance, or model cycles for
// walk spans). A, B, C are kind-specific arguments (see the Kind docs).
type Event struct {
	TS   uint64
	Dur  uint64
	A    uint64
	B    uint64
	C    uint64
	Kind Kind
}

// DefaultMaxEvents bounds the event buffer of New: large enough for a
// smoke-scale reproduction run, small enough that a full-scale sweep
// cannot exhaust memory. Counters stay exact past the cap; further
// events are dropped and counted.
const DefaultMaxEvents = 4 << 20

// counterRow is one Sample snapshot: every kind counter plus every
// registered gauge at a logical timestamp.
type counterRow struct {
	ts     uint64
	kinds  [numKinds]uint64
	gauges []uint64
}

// Tracer collects events, counters, and gauges. The zero value is not
// usable; construct with New or NewCapped. All methods are safe on a
// nil receiver (they no-op), which is how instrumented code stays
// branch-only when tracing is off.
type Tracer struct {
	mu sync.Mutex

	max     int
	events  []Event
	dropped uint64
	seq     uint64

	kindCount [numKinds]uint64

	gaugeNames []string
	gaugeIdx   map[string]int
	gauges     []uint64

	samples []counterRow

	phases   []string
	phaseIdx map[string]int
}

// New creates a tracer with the default event-buffer cap.
func New() *Tracer { return NewCapped(DefaultMaxEvents) }

// NewCapped creates a tracer whose event buffer holds at most max
// events; further events increment the dropped counter (and their kind
// counters) without being stored.
func NewCapped(max int) *Tracer {
	if max < 0 {
		max = 0
	}
	return &Tracer{
		max:      max,
		gaugeIdx: make(map[string]int),
		phaseIdx: make(map[string]int),
	}
}

// record appends one event under the lock (appendLocked).
func (t *Tracer) record(k Kind, start, dur, a, b, c uint64) {
	t.mu.Lock()
	t.appendLocked(k, start, dur, a, b, c)
	t.mu.Unlock()
}

// appendLocked advances the sequence, counts the event under its kind
// and stores it, or counts it dropped once the buffer is full; t.mu
// must be held. A span (start > 0) is stamped at start, or now if start
// lies ahead, and lasts the sequence distance to now; any other event
// is stamped now and lasts dur.
func (t *Tracer) appendLocked(k Kind, start, dur, a, b, c uint64) {
	t.seq++
	ts := t.seq
	if start != 0 {
		ts = min(start, t.seq)
		dur = t.seq - ts
	}
	t.kindCount[k]++
	if len(t.events) < t.max {
		t.events = append(t.events, Event{TS: ts, Dur: dur, A: a, B: b, C: c, Kind: k})
	} else {
		t.dropped++
	}
}

// Emit records an instant event of kind k with arguments a, b, c.
func (t *Tracer) Emit(k Kind, a, b, c uint64) {
	if t == nil {
		return
	}
	t.record(k, 0, 0, a, b, c)
}

// Start opens a span: it returns the logical timestamp EmitSpan closes
// against. On a nil tracer it returns 0, and the matching EmitSpan is
// a no-op, so span sites need no separate guard.
func (t *Tracer) Start() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.seq++
	s := t.seq
	t.mu.Unlock()
	return s
}

// EmitSpan records a span event opened at start (a Start return
// value): its timestamp is start and its duration the sequence
// distance to now — "how many events happened inside".
func (t *Tracer) EmitSpan(k Kind, start, a, b, c uint64) {
	if t == nil {
		return
	}
	t.record(k, start, 0, a, b, c)
}

// EmitDur records a span at the current timestamp with an explicit
// duration in the caller's unit — the walk spans use model cycles.
func (t *Tracer) EmitDur(k Kind, dur, a, b, c uint64) {
	if t == nil {
		return
	}
	t.record(k, 0, dur, a, b, c)
}

// EmitPhase closes a named phase span opened at start: the name is
// interned and travels as the A argument, resolved on export.
func (t *Tracer) EmitPhase(name string, start uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id, ok := t.phaseIdx[name]
	if !ok {
		id = len(t.phases)
		t.phases = append(t.phases, name)
		t.phaseIdx[name] = id
	}
	t.appendLocked(EvPhase, start, 0, uint64(id), 0, 0)
	t.mu.Unlock()
}

// Gauge registers (or looks up) a named gauge in the counter registry
// and returns its id for SetGauge. Registration is idempotent: the
// same name always maps to the same id. Returns -1 on a nil tracer,
// which SetGauge ignores.
func (t *Tracer) Gauge(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.gaugeIdx[name]; ok {
		return id
	}
	id := len(t.gaugeNames)
	t.gaugeNames = append(t.gaugeNames, name)
	t.gauges = append(t.gauges, 0)
	t.gaugeIdx[name] = id
	return id
}

// SetGauge sets a registered gauge's current value. Invalid ids
// (including Gauge's nil-tracer -1) are ignored.
func (t *Tracer) SetGauge(id int, v uint64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if id < len(t.gauges) {
		t.gauges[id] = v
	}
	t.mu.Unlock()
}

// Sample snapshots every kind counter and gauge into the counter time
// series WriteCounterCSV exports. Call sites own the cadence: the
// daemons sample per epoch, sim.Run per access batch.
func (t *Tracer) Sample() {
	if t == nil {
		return
	}
	t.mu.Lock()
	row := counterRow{ts: t.seq, kinds: t.kindCount}
	row.gauges = append(row.gauges, t.gauges...)
	t.samples = append(t.samples, row)
	t.mu.Unlock()
}

// Count returns how many events of kind k were emitted (stored or
// dropped). Zero on a nil tracer.
func (t *Tracer) Count(k Kind) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.kindCount[k]
}

// TotalEvents returns the total emitted event count across all kinds,
// including dropped events.
func (t *Tracer) TotalEvents() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, c := range t.kindCount {
		n += c
	}
	return n
}

// Dropped returns how many events the buffer cap discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// GaugeValue returns a registered gauge's current value by name.
func (t *Tracer) GaugeValue(name string) (uint64, bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.gaugeIdx[name]
	if !ok {
		return 0, false
	}
	return t.gauges[id], true
}

// Events returns a copy of the stored event buffer in emission order.
// Nil on a nil tracer.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// phaseName resolves an interned phase id (EvPhase's A argument).
func (t *Tracer) phaseName(id uint64) string {
	if id < uint64(len(t.phases)) {
		return t.phases[id]
	}
	return "phase"
}
