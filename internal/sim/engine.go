package sim

import (
	"errors"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// errSchemesUnsupported rejects Engine configs asking for the
// SpOT/vRMM/DS emulation, which snapshots a populated process.
var errSchemesUnsupported = errors.New("sim: Engine does not support EnableSchemes (schemes snapshot a populated process)")

// Engine is the serving-mode counterpart of Run: a persistent per-
// process simulation whose Step method drives one access at a time
// through the same backend fast-path / translate / demand-fault loop
// the batched Run uses. A trace replayer interleaves accesses with
// kernel mutations (mmap, fork, daemon epochs) on the same process, so
// it cannot hand sim a closed stream — it holds an Engine per tenant
// and feeds accesses as its trace delivers them. Step shares machine's
// zero-allocation steady state; construction and faults allocate, and
// Reset lets a closed engine serve the next tenant without allocating
// a TLB.
type Engine struct {
	m *machine
}

// NewEngine builds the per-process hardware state over the
// environment's current mappings. Later mutations (faults, promotions,
// CoW redirects, unmaps) never yield a stale translation, same as
// under Run: the default paged backend walks the live tables on every
// miss and subscribes to nothing, and backends with derived state
// (rmm, ds, hashed) observe the page tables and invalidate it
// (DESIGN.md §13). EnableSchemes is rejected: the schemes snapshot a
// fully populated process at construction, which a serving stream
// does not have.
func NewEngine(env *workloads.Env, cfg Config) (*Engine, error) {
	if cfg.EnableSchemes {
		return nil, errSchemesUnsupported
	}
	m, err := newMachine(env, cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return &Engine{m: m}, nil
}

// Step drives one access and returns the translation cost (cycles)
// charged for it: zero on a backend fast-path hit, the walk cost on a
// miss. A non-nil error means the access could not be resolved even
// after the demand-fault retry (typically osim.ErrOOM wrapped by the
// fault path); the engine stays usable afterwards.
func (e *Engine) Step(a workloads.Access) (float64, error) {
	before := e.m.res.WalkCycles
	if err := e.m.step(a); err != nil {
		return e.m.res.WalkCycles - before, err
	}
	return e.m.res.WalkCycles - before, nil
}

// Result snapshots the counters accumulated so far, with the derived
// aggregate fields filled in.
func (e *Engine) Result() Result {
	return e.m.finish()
}

// SetTracer attaches (or, with nil, detaches) a tracer to the engine's
// hardware components, same contract as Config.Tracer under Run.
func (e *Engine) SetTracer(t *trace.Tracer) { e.m.setTracer(t) }

// Close detaches a subscribing backend (rmm, ds, hashed) from the
// process's page tables; for the paged backend it does nothing. The
// engine must not be used afterwards, except through Reset. Callers
// must Close before tearing the process down so the page-table observer
// lists do not accumulate dead backends across tenant generations.
func (e *Engine) Close() { e.m.be.Close() }

// Reset re-points a closed engine at env and leaves it in exactly the
// state NewEngine(env, cfg) builds with the engine's own cfg: an empty
// TLB with its LRU clock and counters at zero, zero backend counters,
// a zero Result, cfg's tracer, and any derived backend state rebuilt
// for env through the backend's constructor path. Only the TLB's entry
// array and the engine's own structs are reused, so a replay that
// recycles closed engines across tenants steps exactly as it would
// with fresh ones.
func (e *Engine) Reset(env *workloads.Env) { e.m.reset(env) }
