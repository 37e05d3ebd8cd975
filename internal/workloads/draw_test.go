package workloads

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mem/addr"
)

// scripted is a rand.Source that returns chosen Int63 values in order
// and counts how many it handed out. It panics when exhausted, so a
// draw that consumes too many values fails instead of looping.
type scripted struct {
	vals  []int64
	calls int
}

func (s *scripted) Int63() int64 {
	v := s.vals[s.calls]
	s.calls++
	return v
}

func (s *scripted) Seed(int64) {}

// drawBounds is every bound the generators draw with, plus edge bounds.
var drawBounds = []int{1000, 10, 8, btArrays, svmSmallVMACount, 1, 2, 3, 7, 1<<31 - 1}

// TestBoundedMatchesIntnScripted feeds bounded.draw and rand.Intn the
// same scripted source words — including draws above math/rand's
// rejection bound — and requires the same value after the same number
// of source calls.
func TestBoundedMatchesIntnScripted(t *testing.T) {
	for _, n := range drawBounds {
		limit := int64(1<<31 - 1 - (1<<31)%uint32(n))
		// Accepted Int31 draws (the high 31 bits of Int63) around every
		// edge; the low 32 bits are noise both sides must ignore.
		var accepted []int64
		for _, v := range []int64{0, 1, int64(n) - 1, int64(n), limit - 1, limit, 123456789} {
			if v >= 0 && v <= limit {
				accepted = append(accepted, v)
			}
		}
		// Scripts: each accepted value alone, and after runs of
		// rejected draws (above limit, when there are any).
		var scripts [][]int64
		for _, v := range accepted {
			scripts = append(scripts, []int64{v})
			if limit < 1<<31-1 {
				scripts = append(scripts, []int64{limit + 1, v}, []int64{1<<31 - 1, limit + 1, 1<<31 - 1, v})
			}
		}
		for _, sc := range scripts {
			vals := make([]int64, len(sc))
			for i, v := range sc {
				vals[i] = v<<32 | 0x9e3779b9
			}
			want, got := &scripted{vals: vals}, &scripted{vals: vals}
			w := rand.New(want).Intn(n)
			g := newBounded(n).draw(rand.New(got))
			if g != w || got.calls != want.calls {
				t.Fatalf("n=%d script %v: draw = %d after %d calls, Intn = %d after %d calls",
					n, sc, g, got.calls, w, want.calls)
			}
		}
	}
}

// TestBoundedMatchesIntnSeeded draws 1M values at each of three seeds,
// cycling through the generators' bounds, from two identically seeded
// sources: every value and the sources' positions must agree.
func TestBoundedMatchesIntnSeeded(t *testing.T) {
	bs := make([]bounded, len(drawBounds))
	for i, n := range drawBounds {
		bs[i] = newBounded(n)
	}
	for _, seed := range []int64{1, 9173, -42} {
		ref := rand.New(rand.NewSource(seed))
		got := rand.New(rand.NewSource(seed))
		for i := 0; i < 1_000_000; i++ {
			k := i % len(drawBounds)
			if w, g := ref.Intn(drawBounds[k]), bs[k].draw(got); w != g {
				t.Fatalf("seed %d draw %d (n=%d): draw = %d, Intn = %d", seed, i, drawBounds[k], g, w)
			}
		}
		if ref.Int63() != got.Int63() {
			t.Fatalf("seed %d: sources out of step after 1M draws", seed)
		}
	}
}

// TestPageVAWraps checks pageVA and seqWalker against the plain modulo
// they replace: every VA must be start + (i % pages) * 4096, for
// indexes at and past the region's edges, for walkers jumped past the
// end, and for pos+k offsets straddling the wrap.
func TestPageVAWraps(t *testing.T) {
	const start = addr.VirtAddr(0x7f00_0000_0000)
	for _, pages := range []uint64{1, 7, 8, 512, 1<<20 + 3} {
		r := region{start: start, pages: pages}
		want := func(i uint64) addr.VirtAddr { return start.Add((i % pages) * addr.PageSize) }
		for _, i := range []uint64{0, pages - 1, pages, 2 * pages, 2*pages + 1, math.MaxUint64} {
			if got := r.pageVA(i); got != want(i) {
				t.Fatalf("pages=%d: pageVA(%d) = %v, want %v", pages, i, got, want(i))
			}
		}
		rng := rand.New(rand.NewSource(int64(pages)))
		for _, from := range []uint64{0, pages - min(pages, 3), pages, 3*pages + 1} {
			w := &seqWalker{r: r, pos: from}
			ref := from // the unreduced position the walker must track mod pages
			for step := 0; step < 3000; step++ {
				switch step % 7 {
				case 3:
					w.pos += 700
					ref += 700
				case 5:
					w.pos += 1300
					ref += 1300
				}
				k := uint64(rng.Intn(8))
				if got := w.r.pageVA(w.pos + k); got != want(ref+k) {
					t.Fatalf("pages=%d from %d step %d: pageVA(pos+%d) = %v, want %v", pages, from, step, k, got, want(ref+k))
				}
				if got := w.next(); got != want(ref) {
					t.Fatalf("pages=%d from %d step %d: next = %v, want %v", pages, from, step, got, want(ref))
				}
				ref++
			}
		}
	}
}

// sourceSeeds is every seed class Source must reduce as math/rand
// does: zero (math/rand's substitute seed), both signs, the substitute
// itself, multiples of the modulus, the int64 extremes, and random
// seeds of every magnitude.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 1, 2 * (1<<31 - 1), math.MinInt64, math.MaxInt64}
	r := rand.New(rand.NewSource(7))
	for range 1000 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// TestSourceMatchesMathRand reseeds one Source with every seed of
// sourceSeeds and requires its first 2000 Uint64 and then 2000 Int63
// outputs to equal a fresh rand.NewSource's.
func TestSourceMatchesMathRand(t *testing.T) {
	const n = 2000
	got := NewSource(42)
	for _, seed := range sourceSeeds() {
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := range n {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 #%d = %#x, want %#x", seed, i, g, w)
			}
		}
		for i := range n {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 #%d = %#x, want %#x", seed, n+i, g, w)
			}
		}
	}
}

// TestReseededRandMatchesFresh drives one rand.Rand over a Source the
// way replay does — reseeded per event, often part-way through its
// stream (Read leaves buffered bytes that Seed must drop) — and
// requires each seed's Shuffle, Intn and Read results to equal those of
// a fresh rand.New(rand.NewSource(seed)).
func TestReseededRandMatchesFresh(t *testing.T) {
	r := rand.New(NewSource(0))
	for k, seed := range sourceSeeds()[:300] {
		r.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for round := range 3 {
			n := 1 + k%97 + 40*round
			g, w := make([]int, n), make([]int, n)
			for i := range g {
				g[i], w[i] = i, i
			}
			r.Shuffle(n, func(i, j int) { g[i], g[j] = g[j], g[i] })
			want.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("seed %d round %d: Shuffle(%d)[%d] = %d, want %d", seed, round, n, i, g[i], w[i])
				}
			}
			for _, bound := range []int{1, 9, 1000, 1<<31 - 1, 1 << 40} {
				if gi, wi := r.Intn(bound), want.Intn(bound); gi != wi {
					t.Fatalf("seed %d round %d: Intn(%d) = %d, want %d", seed, round, bound, gi, wi)
				}
			}
		}
		gb, wb := make([]byte, 1+k%13), make([]byte, 1+k%13)
		r.Read(gb)
		want.Read(wb)
		if string(gb) != string(wb) {
			t.Fatalf("seed %d: Read = %x, want %x", seed, gb, wb)
		}
	}
}

// seedSink keeps BenchmarkSeed's sources on the heap, as a source
// handed to rand.New is.
var seedSink rand.Source

// BenchmarkSeed prices one reseed: a fresh rand.NewSource, against
// reseeding one Source in place.
func BenchmarkSeed(b *testing.B) {
	b.Run("rand.NewSource", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			seedSink = rand.NewSource(int64(i))
		}
	})
	b.Run("Source.Seed", func(b *testing.B) {
		b.ReportAllocs()
		s := NewSource(0)
		for i := range b.N {
			s.Seed(int64(i))
		}
	})
}
