package sim

import (
	"math/rand"
	"testing"

	"repro/internal/hw/tlb"
	"repro/internal/mem/addr"
	"repro/internal/osim"
	"repro/internal/workloads"
)

// benchAccesses pre-generates n stream accesses so the benchmark loops
// measure the simulator, not stream generation. The workload must
// already be set up on env.
func benchAccesses(b testing.TB, w workloads.Workload, n uint64) []workloads.Access {
	b.Helper()
	s := workloads.Batched(w.Stream(rand.New(rand.NewSource(2)), n))
	buf := make([]workloads.Access, n)
	total := 0
	for total < len(buf) {
		k := s.Fill(buf[total:])
		if k == 0 {
			break
		}
		total += k
	}
	return buf[:total]
}

// warmMachine builds a machine and runs every access through it once,
// resolving demand faults and filling the TLB and scheme
// state outside the benchmark timer.
func warmMachine(b testing.TB, env *workloads.Env, cfg Config, accs []workloads.Access) *machine {
	b.Helper()
	m, err := newMachine(env, cfg.withDefaults())
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range accs {
		if err := m.step(a); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkRunNative measures the steady-state per-access cost of the
// native hot loop (TLB probe + radix walk + scheme emulation). It
// must report 0 allocs/op.
func BenchmarkRunNative(b *testing.B) {
	env := nativeEnv(b, osim.CAPolicy{})
	w := workloads.NewPageRank()
	if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	accs := benchAccesses(b, w, 1<<16)
	m := warmMachine(b, env, Config{EnableSchemes: true}, accs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.step(accs[i%len(accs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunNested is BenchmarkRunNative for the virtualized (2D
// nested walk) path. It must report 0 allocs/op.
func BenchmarkRunNested(b *testing.B) {
	env := virtEnv(b, osim.CAPolicy{}, osim.CAPolicy{})
	w := workloads.NewPageRank()
	if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	accs := benchAccesses(b, w, 1<<16)
	m := warmMachine(b, env, Config{EnableSchemes: true}, accs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.step(accs[i%len(accs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTLBLookup isolates the set-associative probe (the
// first-touch cost of every simulated access).
func BenchmarkTLBLookup(b *testing.B) {
	t := tlb.New(32, 4)
	vas := make([]addr.VirtAddr, 256)
	for i := range vas {
		vas[i] = addr.VirtAddr(uint64(i) * addr.PageSize)
		t.Insert(vas[i], false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(vas[i%len(vas)])
	}
}
