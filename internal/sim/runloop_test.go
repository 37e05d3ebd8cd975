package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/hw/translation"
	"repro/internal/mem/addr"
	"repro/internal/osim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// tracedBytes is everything a tracer exports: the Chrome trace and the
// counter CSV.
func tracedBytes(t *testing.T, tr *trace.Tracer) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCounterCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// faultingEnv maps 256 4K pages and populates every other one, and
// returns the environment with a stream of n accesses over the whole
// VMA: the first touch of each unpopulated page demand-faults, so the
// run-level loop meets mapping changes between runs.
func faultingEnv(t *testing.T, native bool, n int) (*workloads.Env, workloads.Stream) {
	t.Helper()
	env := nativeEnv(t, osim.CAPolicy{})
	if !native {
		env = virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{})
	}
	env.Kernel.THPEnabled = false
	const pages = 256
	v, err := env.MMap(pages * addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < pages; i += 2 {
		if err := env.Touch(v.Start.Add(i*addr.PageSize), true); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	accs := make([]workloads.Access, n)
	for i := range accs {
		page := uint64(rng.Intn(pages))
		if rng.Intn(4) != 0 {
			page = uint64(rng.Intn(24))
		}
		accs[i] = workloads.Access{PC: uint64(rng.Intn(4)), VA: v.Start.Add(page * addr.PageSize), Write: rng.Intn(2) == 0}
	}
	return env, &listStream{accs: accs}
}

// TestRunMatchesPerAccessLoop pins the run-level access loop: Run, which
// pays one backend call per run of TLB hits, must end with the Result
// and the exported trace bytes of the per-access reference loop, with a
// tracer attached. It covers every backend, the schemes and shadow
// paging over populated pagerank and hashjoin footprints, and demand
// faults (native and nested, paged, rmm and ds), at stream lengths
// around the span and block boundaries.
func TestRunMatchesPerAccessLoop(t *testing.T) {
	lengths := []int{0, 1, accessBatch - 1, accessBatch, accessBatch + 1, blockLen, blockLen + 1}
	type cell struct {
		name string
		cfg  Config
	}
	populated := []struct {
		native bool
		cell
	}{
		{true, cell{"native/paged+schemes", Config{EnableSchemes: true}}},
		{true, cell{"native/ds", Config{Backend: translation.BackendDS}}},
		{false, cell{"nested/paged+schemes", Config{EnableSchemes: true}}},
		{false, cell{"nested/paged+shadow", Config{ShadowPaging: true}}},
		{false, cell{"nested/hashed", Config{Backend: translation.BackendHashed}}},
		{false, cell{"nested/rmm", Config{Backend: translation.BackendRMM}}},
		{false, cell{"nested/ds", Config{Backend: translation.BackendDS}}},
	}
	// compare runs the stream that mk builds through the reference and
	// through Run, each on the environment mk returns and with a fresh
	// tracer, and fails on any difference.
	compare := func(t *testing.T, name string, n int, cfg Config, mk func() (*workloads.Env, workloads.Stream)) Result {
		t.Helper()
		env, s := mk()
		wantTr := trace.New()
		env.SetTracer(wantTr)
		cfg.Tracer = wantTr
		want := perAccessRun(t, env, s, cfg)

		env, s = mk()
		gotTr := trace.New()
		env.SetTracer(gotTr)
		cfg.Tracer = gotTr
		got, err := Run(env, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		env.SetTracer(nil)
		if got != want || got.Accesses != uint64(n) {
			t.Fatalf("%s, %d accesses: Run diverged from the per-access loop:\n%+v\n%+v", name, n, got, want)
		}
		if !bytes.Equal(tracedBytes(t, gotTr), tracedBytes(t, wantTr)) {
			t.Fatalf("%s, %d accesses: Run's trace differs from the per-access loop's", name, n)
		}
		return got
	}
	for _, w := range []workloads.Workload{workloads.NewPageRank(), workloads.NewHashJoin()} {
		t.Run(w.Name(), func(t *testing.T) {
			native := nativeEnv(t, osim.CAPolicy{})
			virt := virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{})
			for _, env := range []*workloads.Env{native, virt} {
				if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
					t.Fatal(err)
				}
			}
			var misses uint64
			for _, c := range populated {
				env := virt
				if c.native {
					env = native
				}
				for _, n := range lengths {
					mk := func() (*workloads.Env, workloads.Stream) {
						return env, w.Stream(rand.New(rand.NewSource(2)), uint64(n))
					}
					misses += compare(t, c.name, n, c.cfg, mk).Misses
				}
			}
			if misses == 0 {
				t.Fatal("vacuous: no run missed the TLB")
			}
		})
	}
	t.Run("faulting", func(t *testing.T) {
		for _, native := range []bool{true, false} {
			for _, c := range []cell{
				{"paged", Config{}},
				{"rmm", Config{Backend: translation.BackendRMM}},
				{"ds", Config{Backend: translation.BackendDS}},
			} {
				var faults uint64
				for _, n := range lengths {
					mk := func() (*workloads.Env, workloads.Stream) { return faultingEnv(t, native, n) }
					faults += compare(t, c.name, n, c.cfg, mk).Faults
				}
				if faults == 0 {
					t.Fatalf("%s (native %v): vacuous: no access faulted", c.name, native)
				}
			}
		}
	})
}
