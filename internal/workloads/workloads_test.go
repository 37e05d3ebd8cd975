package workloads

import (
	"math/rand"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
)

// machineFor builds a host machine big enough for the largest workload.
func machineFor(t testing.TB) *zone.Machine {
	t.Helper()
	// 2 zones x 384 MiB = 768 MiB.
	return zone.NewMachine(zone.Config{ZonePages: []uint64{
		96 * addr.MaxOrderPages, 96 * addr.MaxOrderPages,
	}})
}

func TestAllWorkloadsSetupNative(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			k := osim.NewKernel(machineFor(t), osim.CAPolicy{})
			env := NewNativeEnv(k, 0)
			rng := rand.New(rand.NewSource(1))
			if err := w.Setup(env, rng); err != nil {
				t.Fatalf("setup: %v", err)
			}
			// The process RSS covers at least the anonymous footprint.
			wantPages := w.FootprintBytes() / addr.PageSize
			if env.Proc.RSSPages < wantPages {
				t.Fatalf("RSS %d pages < footprint %d", env.Proc.RSSPages, wantPages)
			}
			// Streams only reference mapped memory.
			for _, a := range drain(w.Stream(rand.New(rand.NewSource(2)), 20000), 1024) {
				if _, ok := env.Proc.PT.Translate(a.VA); !ok {
					t.Fatalf("stream referenced unmapped VA %v (pc %#x)", a.VA, a.PC)
				}
			}
			env.Exit()
			if env.Proc.RSSPages != 0 {
				t.Fatal("exit left RSS")
			}
		})
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	k := osim.NewKernel(machineFor(t), osim.CAPolicy{})
	env := NewNativeEnv(k, 0)
	w := NewPageRank()
	if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	collect := func(seed int64) []Access {
		return drain(w.Stream(rand.New(rand.NewSource(seed)), 1000), 64)
	}
	a, b := collect(7), collect(7)
	if len(a) != 1000 || len(b) != 1000 {
		t.Fatalf("stream lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := collect(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestWorkloadNamesAndLookup(t *testing.T) {
	names := []string{"svm", "pagerank", "hashjoin", "xsbench", "bt"}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() = %d workloads", len(all))
	}
	for i, w := range all {
		if w.Name() != names[i] {
			t.Fatalf("workload %d = %q, want %q", i, w.Name(), names[i])
		}
		if ByName(names[i]) == nil {
			t.Fatalf("ByName(%q) = nil", names[i])
		}
		if w.FootprintBytes() == 0 {
			t.Fatalf("%s footprint is 0", w.Name())
		}
	}
	if ByName("nope") != nil {
		t.Fatal("ByName of unknown should be nil")
	}
	// Footprint ordering mirrors the paper: svm < pagerank < hashjoin <
	// xsbench is violated intentionally? No: paper order by size is
	// svm(29) < pagerank(78) < hashjoin(102) < xsbench(122) < bt(167).
	for i := 1; i < len(all); i++ {
		if all[i].FootprintBytes() <= all[i-1].FootprintBytes() {
			t.Fatalf("footprints not increasing: %s(%d) <= %s(%d)",
				all[i].Name(), all[i].FootprintBytes(), all[i-1].Name(), all[i-1].FootprintBytes())
		}
	}
}

func TestSVMReadsDatasetThroughCache(t *testing.T) {
	k := osim.NewKernel(machineFor(t), osim.CAPolicy{})
	env := NewNativeEnv(k, 0)
	if err := NewSVM().Setup(env, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if k.Cache.ResidentPages != svmDatasetBytes/addr.PageSize {
		t.Fatalf("cache pages = %d, want %d", k.Cache.ResidentPages, svmDatasetBytes/addr.PageSize)
	}
	// Cache pages persist after exit.
	env.Exit()
	if k.Cache.ResidentPages == 0 {
		t.Fatal("cache dropped on exit")
	}
}

func TestHogPinsRequestedFraction(t *testing.T) {
	m := machineFor(t)
	free0 := m.FreePages()
	ext := Hog(m, 0.3, rand.New(rand.NewSource(3)))
	pinned := free0 - m.FreePages()
	want := uint64(0.3 * float64(m.TotalPages()))
	if pinned < want*9/10 || pinned > want*11/10 {
		t.Fatalf("pinned %d pages, want ~%d", pinned, want)
	}
	// Huge pages remain plentiful: every even 2MiB slot is free.
	var hugeBlocks uint64
	for _, z := range m.Zones {
		hugeBlocks += z.Buddy.FreeBlocks(addr.HugeOrder)
	}
	if hugeBlocks < uint64(float64(len(ext))*0.9) {
		t.Fatalf("only %d huge blocks free after hogging %d chunks", hugeBlocks, len(ext))
	}
	// MAX_ORDER aligned blocks are destroyed where pinned.
	var maxBlocks uint64
	for _, z := range m.Zones {
		maxBlocks += z.Buddy.FreeBlocks(addr.MaxOrder)
	}
	if maxBlocks > m.TotalPages()/addr.MaxOrderPages-uint64(len(ext)) {
		t.Fatalf("aligned MAX_ORDER blocks = %d despite %d pinned chunks", maxBlocks, len(ext))
	}
	Unhog(m, ext)
	if m.FreePages() != free0 {
		t.Fatal("Unhog leaked")
	}
}

func TestHogZeroFraction(t *testing.T) {
	m := machineFor(t)
	if ext := Hog(m, 0, rand.New(rand.NewSource(1))); ext != nil {
		t.Fatal("zero-fraction hog pinned memory")
	}
}

func TestHogDeterministic(t *testing.T) {
	m1, m2 := machineFor(t), machineFor(t)
	e1 := Hog(m1, 0.2, rand.New(rand.NewSource(9)))
	e2 := Hog(m2, 0.2, rand.New(rand.NewSource(9)))
	if len(e1) != len(e2) {
		t.Fatal("hog not deterministic")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("hog extents differ")
		}
	}
}

// drain reads s to its end with Fill calls of bufLen accesses.
func drain(s Stream, bufLen int) []Access {
	var out []Access
	buf := make([]Access, bufLen)
	for k := s.Fill(buf); k > 0; k = s.Fill(buf) {
		out = append(out, buf[:k]...)
	}
	return out
}

// TestFillMatchesNext pins the batching contract for every workload:
// repeated Fill calls at buffer lengths 1 (an access at a time), 7,
// 1024 and n+1, all but the first of which never divide the stream
// evenly, so the last Fill stops mid-buffer at the stream's end,
// produce exactly the sequence of one Fill over the whole stream.
func TestFillMatchesNext(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			k := osim.NewKernel(machineFor(t), osim.CAPolicy{})
			env := NewNativeEnv(k, 0)
			if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
				t.Fatal(err)
			}
			const n = 10_000
			want := make([]Access, n)
			ref := w.Stream(rand.New(rand.NewSource(3)), n)
			if got := ref.Fill(want); got != n || ref.Fill(want) != 0 {
				t.Fatalf("one whole-stream Fill wrote %d accesses, want %d and then none", got, n)
			}
			for _, bufLen := range []int{1, 7, 1024, n + 1} {
				s := w.Stream(rand.New(rand.NewSource(3)), n)
				got := make([]Access, 0, n)
				buf := make([]Access, bufLen)
				short := false
				for {
					k := s.Fill(buf)
					if k == 0 {
						break
					}
					if short {
						t.Fatalf("bufLen %d: Fill wrote %d after a short fill", bufLen, k)
					}
					short = k < bufLen
					got = append(got, buf[:k]...)
				}
				if want := n%bufLen != 0; short != want {
					t.Fatalf("bufLen %d: last fill short = %v, want %v", bufLen, short, want)
				}
				if len(got) != len(want) {
					t.Fatalf("bufLen %d: %d accesses, want %d", bufLen, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("bufLen %d: access %d = %+v, want %+v", bufLen, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// BenchmarkFill measures stream generation alone — the producer stage
// of sim.Run's pipeline — for the two translate-stream workloads,
// filling 4096-access blocks as Run does.
func BenchmarkFill(b *testing.B) {
	for _, w := range []Workload{NewPageRank(), NewXSBench()} {
		b.Run(w.Name(), func(b *testing.B) {
			const n = 400_000
			k := osim.NewKernel(machineFor(b), osim.CAPolicy{})
			if err := w.Setup(NewNativeEnv(k, 0), rand.New(rand.NewSource(1))); err != nil {
				b.Fatal(err)
			}
			buf := make([]Access, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := w.Stream(rand.New(rand.NewSource(2)), n)
				for s.Fill(buf) > 0 {
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
		})
	}
}
