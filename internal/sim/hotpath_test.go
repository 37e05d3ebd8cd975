package sim

import (
	"math/rand"
	"testing"

	"repro/internal/hw/translation"
	"repro/internal/mem/addr"
	"repro/internal/osim"
	"repro/internal/osim/vma"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// mutStream replays a fixed access list through the legacy Next
// interface, running side-effect hooks before chosen indices — the
// mid-stream page-table mutations the walk path must observe.
type mutStream struct {
	accs  []workloads.Access
	hooks map[int]func()
	i     int
}

func (s *mutStream) Next() (workloads.Access, bool) {
	if s.i >= len(s.accs) {
		return workloads.Access{}, false
	}
	if h := s.hooks[s.i]; h != nil {
		h()
	}
	a := s.accs[s.i]
	s.i++
	return a, true
}

// sweepAccesses maps and populates `pages` 4K pages (THP off, so a sweep
// exceeds TLB reach and every access exercises the translate path) and
// returns the VMA with two full sweeps over it.
func sweepAccesses(t *testing.T, env *workloads.Env, pages uint64) (*vma.VMA, []workloads.Access) {
	t.Helper()
	env.Kernel.THPEnabled = false
	v, err := env.MMap(pages * addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Populate(v); err != nil {
		t.Fatal(err)
	}
	var accs []workloads.Access
	for sweep := 0; sweep < 2; sweep++ {
		for i := uint64(0); i < pages; i++ {
			accs = append(accs, workloads.Access{VA: v.Start.Add(i * addr.PageSize)})
		}
	}
	return v, accs
}

// TestWalkCacheInvalidation pins the invalidation contract of the walk
// path: after pages are unmapped mid-stream, the next walk must see
// the live tables, so the unmapped pages surface as exactly
// len(unmapped) counted demand faults on the retry path — any stale
// cached translation would keep serving them with Faults = 0.
func TestWalkCacheInvalidation(t *testing.T) {
	const pages = 512
	unmapped := []uint64{3, 100, 200}
	env := nativeEnv(t, osim.CAPolicy{})
	v, accs := sweepAccesses(t, env, pages)
	hooks := map[int]func(){pages: func() {
		for _, i := range unmapped {
			if _, _, ok := env.Proc.PT.Unmap(v.Start.Add(i * addr.PageSize)); !ok {
				t.Fatal("unmap target not mapped")
			}
		}
	}}
	res, err := Run(env, &mutStream{accs: accs, hooks: hooks}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != uint64(len(unmapped)) {
		t.Fatalf("faults = %d, want %d (a stale translation would still serve the unmapped pages)",
			res.Faults, len(unmapped))
	}
}

// TestWalkSpansCountEveryMiss pins trace accuracy: every TLB miss of a
// paged run is priced by one radix walk, so the tracer must see exactly
// one walk span per counted miss — native walks in a native
// environment, 2D walks in a nested one — even when the stream
// revisits pages it has walked before.
func TestWalkSpansCountEveryMiss(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  func(testing.TB) *workloads.Env
		kind trace.Kind
	}{
		{"native", func(t testing.TB) *workloads.Env { return nativeEnv(t, osim.CAPolicy{}) }, trace.EvWalkNative},
		{"nested", func(t testing.TB) *workloads.Env { return virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{}) }, trace.EvWalk2D},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := tc.env(t)
			_, accs := sweepAccesses(t, env, 512)
			tr := trace.New()
			res, err := Run(env, &mutStream{accs: accs}, Config{Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			if res.Faults != 0 || res.Misses <= 512 {
				t.Fatalf("vacuous run: %d faults, %d misses over two 512-page sweeps", res.Faults, res.Misses)
			}
			if got := tr.Count(tc.kind); got != res.Misses {
				t.Fatalf("%s spans = %d, want one per miss (%d)", tc.kind, got, res.Misses)
			}
		})
	}
}

// TestRunZeroAllocs pins the zero-allocation property of the
// steady-state access loop for every translation backend, schemes
// included on the default one: once the machine is warm, step must not
// touch the heap. The tracing layer must preserve it in both disabled
// states — never attached, and attached then detached — so
// instrumentation really is branch-only when off.
func TestRunZeroAllocs(t *testing.T) {
	for _, backend := range translation.Names() {
		for _, tc := range []struct {
			name   string
			detach bool
		}{
			{"nil tracer", false},
			{"attached then detached", true},
		} {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				env := virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{})
				w := workloads.NewPageRank()
				if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
					t.Fatal(err)
				}
				accs := benchAccesses(t, w, 1<<14)
				cfg := Config{Backend: backend}
				if backend == translation.BackendPaged {
					cfg.EnableSchemes = true
				}
				m := warmMachine(t, env, cfg, accs)
				defer m.be.Close()
				if tc.detach {
					tr := trace.New()
					env.SetTracer(tr)
					m.setTracer(tr)
					// A full pass: backends with a non-TLB fast path (ds
					// serves in-segment accesses by bare bounds check)
					// only reach instrumented hardware on the tail of
					// accesses outside it.
					for j := range accs {
						if err := m.step(accs[j]); err != nil {
							t.Fatal(err)
						}
					}
					if tr.TotalEvents() == 0 {
						t.Fatal("attached tracer saw nothing; detach case would be vacuous")
					}
					env.SetTracer(nil)
					m.setTracer(nil)
				}
				i := 0
				avg := testing.AllocsPerRun(len(accs), func() {
					if err := m.step(accs[i%len(accs)]); err != nil {
						t.Fatal(err)
					}
					i++
				})
				if avg != 0 {
					t.Fatalf("steady-state step allocates %.2f objects per access, want 0", avg)
				}
			})
		}
	}
}

// nextOnlyStream hides a stream's native Fill, forcing Run through the
// Next-draining compatibility adapter.
type nextOnlyStream struct{ s workloads.Stream }

func (n nextOnlyStream) Next() (workloads.Access, bool) { return n.s.Next() }

// TestBatchedRunMatchesNextOnly runs every workload once through the
// native batched path and once through the legacy Next adapter: the
// two Results must be identical field for field — batching is an
// execution detail, never a semantic one.
func TestBatchedRunMatchesNextOnly(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			run := func(adapter bool) Result {
				env := nativeEnv(t, osim.CAPolicy{})
				if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
					t.Fatal(err)
				}
				var s workloads.Stream = w.Stream(rand.New(rand.NewSource(2)), 30_000)
				if adapter {
					s = nextOnlyStream{s}
				}
				res, err := Run(env, s, Config{EnableSchemes: true})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if batched, legacy := run(false), run(true); batched != legacy {
				t.Fatalf("batched run diverged from Next-only run:\n%+v\n%+v", batched, legacy)
			}
		})
	}
}
