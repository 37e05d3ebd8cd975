package translation

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/osim/vma"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// runPair is one backend configuration built twice over the same
// environment: ref is driven one Lookup per access, run one LookupRun
// per run of hits.
type runPair struct {
	name       string
	ref, run   Backend
	refT, runT *trace.Tracer
}

// lookupEach steps accs through the per-access protocol: Lookup, and on a
// miss Translate and, when it resolved, Insert.
func lookupEach(be Backend, accs []workloads.Access) {
	for _, a := range accs {
		if be.Lookup(a.VA) {
			continue
		}
		if w := be.Translate(a.VA); w.OK {
			be.Insert(a.VA, w)
		}
	}
}

// lookupRuns steps accs through the run-level protocol: LookupRun, and
// for the access that ended the run Translate and, when it resolved,
// Insert. It returns how many accesses missed.
func lookupRuns(be Backend, accs []workloads.Access) int {
	misses := 0
	for len(accs) > 0 {
		k := be.LookupRun(accs)
		if k == len(accs) {
			break
		}
		misses++
		va := accs[k].VA
		if w := be.Translate(va); w.OK {
			be.Insert(va, w)
		}
		accs = accs[k+1:]
	}
	return misses
}

// TestLookupRunMatchesLookup is the differential test of the run path:
// on every backend, native and nested, and on shadow paging, random
// runs of accesses with TLB fills, flushes and mapping churn between
// them must leave a backend driven through LookupRun identical to one
// driven through Lookup: the same Counters, the same TLB (every way's
// key and LRU stamp, its clock, lookups and misses), the same derived
// state, and the same trace.
func TestLookupRunMatchesLookup(t *testing.T) {
	for _, tc := range []struct {
		kind string
		env  *workloads.Env
	}{{"native", nativeEnv(t)}, {"nested", nestedEnv(t)}} {
		t.Run(tc.kind, func(t *testing.T) {
			env := tc.env
			rng := rand.New(rand.NewSource(7))
			// A THP-backed VMA (2 MiB leaves), a populated 4K-only VMA,
			// and two 4K-only VMAs populated as the test goes. The hot
			// set keeps probing VMAs the churn unmaps.
			big, err := env.MMap(4 * addr.HugeSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := env.Populate(big); err != nil {
				t.Fatal(err)
			}
			env.Kernel.THPEnabled = false
			vmas := []*vma.VMA{big}
			for i := 0; i < 3; i++ {
				v, err := env.MMap(64 * addr.PageSize)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					if err := env.Populate(v); err != nil {
						t.Fatal(err)
					}
				}
				vmas = append(vmas, v)
			}
			page := func() addr.VirtAddr {
				v := vmas[rng.Intn(len(vmas))]
				return v.Start.Add(uint64(rng.Intn(int(v.Pages()))) * addr.PageSize)
			}
			hot := make([]addr.VirtAddr, 24)
			for i := range hot {
				hot[i] = page()
			}

			var pairs []*runPair
			type build struct {
				label, backend string
				cfg            Config
			}
			var builds []build
			for _, n := range Names() {
				builds = append(builds, build{n, n, Config{}})
			}
			if env.VM != nil {
				builds = append(builds, build{"paged+shadow", BackendPaged, Config{ShadowPaging: true}})
			}
			for _, b := range builds {
				p := &runPair{name: b.label, refT: trace.New(), runT: trace.New()}
				if p.ref, err = New(b.backend, env, b.cfg); err != nil {
					t.Fatal(err)
				}
				if p.run, err = New(b.backend, env, b.cfg); err != nil {
					t.Fatal(err)
				}
				p.ref.SetTracer(p.refT)
				p.run.SetTracer(p.runT)
				pairs = append(pairs, p)
			}
			defer func() {
				for _, p := range pairs {
					p.ref.Close()
					p.run.Close()
				}
			}()

			misses := make([]int, len(pairs))
			for round := 0; round < 300; round++ {
				accs := make([]workloads.Access, rng.Intn(48))
				for i := range accs {
					if rng.Intn(10) < 7 {
						accs[i].VA = hot[rng.Intn(len(hot))] + addr.VirtAddr(rng.Intn(addr.PageSize))
					} else {
						accs[i].VA = page()
					}
				}
				for i, p := range pairs {
					lookupEach(p.ref, accs)
					misses[i] += lookupRuns(p.run, accs)
					checkPair(t, p, round)
				}
				// Churn between runs: fault a page in, unmap a 4K VMA and
				// map a fresh one, or flush every backend.
				switch rng.Intn(8) {
				case 0, 1, 2:
					if err := env.Touch(page(), true); err != nil {
						t.Fatal(err)
					}
				case 3:
					i := 1 + rng.Intn(len(vmas)-1)
					env.Proc.MUnmap(vmas[i])
					v, err := env.MMap(64 * addr.PageSize)
					if err != nil {
						t.Fatal(err)
					}
					vmas[i] = v
				case 4:
					for _, p := range pairs {
						p.ref.Flush()
						p.run.Flush()
					}
				}
			}
			for i, p := range pairs {
				c := p.run.Counters()
				if c.Hits == 0 || c.Misses == 0 || misses[i] == 0 {
					t.Fatalf("%s: vacuous: counters %+v", p.name, c)
				}
				if !reflect.DeepEqual(p.refT.Events(), p.runT.Events()) {
					t.Fatalf("%s: the run-level trace differs from the per-access trace", p.name)
				}
			}
		})
	}
}

// checkPair fails unless the pair's two backends are in the same state:
// Counters, TLB and derived state compared with tracers detached.
func checkPair(t *testing.T, p *runPair, round int) {
	t.Helper()
	if rc, gc := p.ref.Counters(), p.run.Counters(); rc != gc {
		t.Fatalf("%s, round %d: LookupRun counters %+v, Lookup counters %+v", p.name, round, gc, rc)
	}
	p.ref.SetTracer(nil)
	p.run.SetTracer(nil)
	rt, gt := frontOf(t, p.ref).tlb, frontOf(t, p.run).tlb
	if rt.Lookups() != gt.Lookups() || rt.Misses() != gt.Misses() || !reflect.DeepEqual(rt, gt) {
		t.Fatalf("%s, round %d: LookupRun left the TLB at %d lookups, %d misses; Lookup at %d, %d (or ways, stamps or clock differ)",
			p.name, round, gt.Lookups(), gt.Misses(), rt.Lookups(), rt.Misses())
	}
	if !reflect.DeepEqual(p.ref, p.run) {
		t.Fatalf("%s, round %d: LookupRun and Lookup left different backend state", p.name, round)
	}
	p.ref.SetTracer(p.refT)
	p.run.SetTracer(p.runT)
}

// BenchmarkLookupRun measures the run-level hit path: LookupRun over a
// 4096-access block that hits throughout, on the default paged backend
// behind the paper's 1536-entry 6-way TLB, holding 4K and 2M entries.
func BenchmarkLookupRun(b *testing.B) {
	env := nativeEnv(b)
	be, err := New(BackendPaged, env, Config{TLBEntries: 1536, TLBWays: 6})
	if err != nil {
		b.Fatal(err)
	}
	defer be.Close()
	rng := rand.New(rand.NewSource(1))
	accs := make([]workloads.Access, 4096)
	for i := range accs {
		if i%2 == 0 {
			accs[i].VA = addr.VirtAddr(uint64(rng.Intn(64)) << addr.PageShift)
		} else {
			accs[i].VA = addr.VirtAddr(uint64(1+rng.Intn(8))<<addr.HugeShift + uint64(rng.Intn(512))<<addr.PageShift)
		}
	}
	for _, a := range accs {
		if !be.Lookup(a.VA) {
			be.Insert(a.VA, Walk{LeafHuge: a.VA >= addr.HugeSize, OK: true})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if be.LookupRun(accs) != len(accs) {
			b.Fatal("run missed")
		}
	}
	b.ReportMetric(float64(len(accs))*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}
