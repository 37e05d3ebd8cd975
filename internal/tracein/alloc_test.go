package tracein

import (
	"runtime"
	"testing"

	"repro/internal/check"
)

// TestReplayHeapBytesPerEvent bounds the heap the replay path allocates
// per applied event on the memsimd serving configuration (CA paging,
// two shards, Synth seed 1), measured on a warm engine: a first engine
// replays the same events, is audited and closed, so its page-table
// nodes and machine wait in the depots and pools a second engine draws
// from, and the second engine's replay is measured. Page-table nodes
// come from each kernel's pool, so a regression that allocates them
// per fault again (about 9 KB per event) fails here, not only in the
// benchmark, and so does one that seeds a math/rand source per hog
// event or builds a sim engine per tenant again (about 340 B per
// event), one that allocates per-tenant shells (processes, tables,
// VMAs, tenants) again (about 110 B per event), or one whose Close
// stops handing the kernels' nodes to the depot (32 B per event; 15 B
// when only the live tenants' tables are kept back). The warm path
// measures 6 to 7 B per event, with or without -race. Engine build and
// the drain audit are outside the measured window.
func TestReplayHeapBytesPerEvent(t *testing.T) {
	const (
		events = 20000
		bound  = 10 // bytes per event
	)
	evs := Synth(SynthConfig{Seed: 1, Events: events, Tenants: 4})
	replay := func() float64 {
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
		return float64(after.TotalAlloc-before.TotalAlloc) / events
	}
	first := replay()
	perEvent := replay()
	t.Logf("%.0f heap bytes per event warm (%.0f on the first engine)", perEvent, first)
	if perEvent > bound {
		t.Fatalf("warm replay allocates %.0f B per event, bound %d", perEvent, bound)
	}
}
