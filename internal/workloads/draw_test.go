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
