package trace_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestEndToEndTraceCapture runs a small but complete simulation — the
// Ingens configuration, where every instrumented layer is active: 4 KiB
// demand faults, buddy splits, daemon promotion epochs, then a measured
// phase through the TLB and page walker — and asserts the tracer saw
// every layer and exports loadable Chrome JSON.
func TestEndToEndTraceCapture(t *testing.T) {
	tr := trace.NewCapped(1 << 18)
	m := zone.NewMachine(zone.Config{
		ZonePages: []uint64{160 * addr.MaxOrderPages, 160 * addr.MaxOrderPages},
	})
	k := osim.NewKernel(m, osim.DefaultPolicy{})
	k.BootReserve(1)
	k.SetTracer(tr)
	env := workloads.NewNativeEnv(k, 0)
	env.Daemons = []workloads.Daemon{daemon.NewIngens(k)}
	w := workloads.ByName("pagerank")
	if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	workloads.SettleDaemons(k, env.Daemons, 30)
	res, err := sim.Run(env, w.Stream(rand.New(rand.NewSource(2)), 20_000),
		sim.Config{EnableSchemes: true, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses == 0 {
		t.Fatal("measured phase produced no TLB misses; test machinery broken")
	}

	for _, k := range []trace.Kind{
		trace.EvFault4K,     // population demand faults
		trace.EvBuddySplit,  // allocator split steps feeding them
		trace.EvIngensEpoch, // daemon scan spans
		trace.EvPromote,     // promotions during settle
		trace.EvBuddyDepth,  // per-epoch free-list samples
		trace.EvTLBMiss,     // measured phase misses
		trace.EvWalkNative,  // walks those misses triggered
		trace.EvSimBatch,    // batch spans around them
	} {
		if tr.Count(k) == 0 {
			t.Errorf("no %s events captured", k)
		}
	}
	if tr.TotalEvents() == 0 || len(tr.Events()) == 0 {
		t.Fatal("tracer captured nothing")
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("Chrome export is not valid JSON:\n%.500s", buf.String())
	}
	var csvBuf bytes.Buffer
	if err := tr.WriteCounterCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if csvBuf.Len() == 0 {
		t.Fatal("counter CSV export empty")
	}
}

// TestDetachedTracerStops pins the detach half of the lifecycle:
// SetTracer(nil) really unhooks every layer, so a detached system emits
// nothing more.
func TestDetachedTracerStops(t *testing.T) {
	tr := trace.New()
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{8 * addr.MaxOrderPages}})
	k := osim.NewKernel(m, osim.DefaultPolicy{})
	k.BootReserve(1)
	k.SetTracer(tr)

	env := workloads.NewNativeEnv(k, 0)
	v, err := env.MMap(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Populate(v); err != nil {
		t.Fatal(err)
	}
	before := tr.TotalEvents()
	if before == 0 {
		t.Fatal("attached tracer captured nothing")
	}

	k.SetTracer(nil)
	v2, err := env.MMap(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Populate(v2); err != nil {
		t.Fatal(err)
	}
	if after := tr.TotalEvents(); after != before {
		t.Errorf("detached system still traced: %d -> %d events", before, after)
	}
}
