package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw/translation"
	"repro/internal/mem/addr"
	"repro/internal/osim"
	"repro/internal/osim/vma"
	"repro/internal/workloads"
)

// resetEnv builds an environment with three part-populated VMAs; two
// calls build identical environments (same VAs, same frames).
func resetEnv(t *testing.T, virtual bool) (*workloads.Env, []*vma.VMA) {
	t.Helper()
	env := nativeEnv(t, osim.DefaultPolicy{})
	if virtual {
		env = virtEnv(t, osim.DefaultPolicy{}, osim.DefaultPolicy{})
	}
	var vs []*vma.VMA
	for i, pages := range []uint64{700, 1536, 300} {
		v, err := env.MMap(pages * addr.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for p := uint64(i); p < pages; p += 3 {
			if err := env.Touch(v.Start.Add(p*addr.PageSize), p%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
		vs = append(vs, v)
	}
	return env, vs
}

// randomAccess draws an access to any page of the VMAs, most of them
// unpopulated on first touch.
func randomAccess(rng *rand.Rand, vs []*vma.VMA) workloads.Access {
	v := vs[rng.Intn(len(vs))]
	return workloads.Access{
		PC:    0x40_0000 + uint64(rng.Intn(32))*16,
		VA:    v.Start.Add(uint64(rng.Int63n(int64(v.Pages()))) * addr.PageSize),
		Write: rng.Intn(2) == 0,
	}
}

// TestEngineResetMatchesFresh uses an engine on one environment,
// closes it and Resets it onto a second. Right after Reset its machine
// must deep-equal one NewEngine builds on that environment — TLB
// entries, LRU clock and counters included — and it must then step an
// identical third environment exactly as a fresh engine does: the same
// cost and error per access, the same Result and backend counters, and
// the same outcome after unmaps and new mappings, which only a
// re-subscribed backend hears.
func TestEngineResetMatchesFresh(t *testing.T) {
	cases := []struct {
		name    string
		virtual bool
		cfg     Config
	}{
		{"paged", false, Config{}},
		{"hashed", false, Config{Backend: translation.BackendHashed}},
		{"rmm", false, Config{Backend: translation.BackendRMM}},
		{"ds", false, Config{Backend: translation.BackendDS}},
		{"nested-shadow", true, Config{ShadowPaging: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			old, oldVMAs := resetEnv(t, c.virtual)
			used, err := NewEngine(old, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for range 3000 {
				if _, err := used.Step(randomAccess(rng, oldVMAs)); err != nil {
					t.Fatal(err)
				}
			}
			used.Close()

			envB, vsB := resetEnv(t, c.virtual)
			envC, vsC := resetEnv(t, c.virtual)
			used.Reset(envB)
			probe, err := NewEngine(envB, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(probe.m, used.m) {
				t.Fatal("after Reset the machine differs from NewEngine's (TLB entries, LRU clock or counters, backend counters, Result, tracer or derived state)")
			}
			probe.Close()

			fresh, err := NewEngine(envC, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			defer used.Close()
			rng = rand.New(rand.NewSource(2))
			for i := range 6000 {
				if i%1500 == 1499 {
					// Churn the mappings identically in both environments.
					j := rng.Intn(len(vsB))
					envB.Proc.MUnmap(vsB[j])
					envC.Proc.MUnmap(vsC[j])
					pages := uint64(200 + rng.Intn(900))
					vb, errB := envB.MMap(pages * addr.PageSize)
					vc, errC := envC.MMap(pages * addr.PageSize)
					if errB != nil || errC != nil || vb.Start != vc.Start {
						t.Fatalf("remap diverged: %v %v %v %v", vb, vc, errB, errC)
					}
					vsB[j], vsC[j] = vb, vc
				}
				a := randomAccess(rng, vsB)
				cu, eu := used.Step(a)
				cf, ef := fresh.Step(a)
				if cu != cf || (eu == nil) != (ef == nil) {
					t.Fatalf("access %d at %v: reset engine cost %v err %v, fresh %v err %v", i, a.VA, cu, eu, cf, ef)
				}
				if ru, rf := used.Result(), fresh.Result(); ru != rf {
					t.Fatalf("access %d: Result %+v, fresh %+v", i, ru, rf)
				}
				if bu, bf := used.m.be.Counters(), fresh.m.be.Counters(); bu != bf {
					t.Fatalf("access %d: backend counters %+v, fresh %+v", i, bu, bf)
				}
			}
			if r := fresh.Result(); r.Faults == 0 || r.Misses == 0 {
				t.Fatalf("sequence exercised no faults or misses: %+v", r)
			}
		})
	}
}
