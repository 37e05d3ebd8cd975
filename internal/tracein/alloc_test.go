package tracein

import (
	"runtime"
	"testing"

	"repro/internal/check"
)

// TestReplayHeapBytesPerEvent bounds the heap the replay path allocates
// per applied event on the memsimd serving configuration (CA paging,
// two shards, Synth seed 1). Page-table nodes come from each kernel's
// pool, so a regression that allocates them per fault again (about
// 9 KB per event) fails here, not only in the benchmark, and so does
// one that seeds a math/rand source per hog event or builds a sim
// engine per tenant again (about 340 B per event), or one that
// allocates per-tenant shells (processes, tables, VMAs, tenants) again
// (about 110 B per event). The path measures about 32 B per event, with
// or without -race, nearly all of it the cold engine's free lists and
// node pools filling up. Engine build and the drain audit are outside
// the measured window.
func TestReplayHeapBytesPerEvent(t *testing.T) {
	const (
		events = 20000
		bound  = 40 // bytes per event
	)
	evs := Synth(SynthConfig{Seed: 1, Events: events, Tenants: 4})
	e, err := NewEngine(ReplayConfig{Shards: 2, Jobs: 1, Policy: check.PolicyCA})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := replaySlice(e, evs); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / events
	t.Logf("%.0f heap bytes per event", perEvent)
	if perEvent > bound {
		t.Fatalf("replay allocates %.0f B per event, bound %d", perEvent, bound)
	}
}
