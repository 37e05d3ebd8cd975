package workloads

import (
	"math/bits"
	"math/rand"
)

// bounded draws integers in [0, n) exactly as rand.(*Rand).Intn(n)
// does for n < 2^31 — the same value from the same number of source
// draws, rejection loop included — but with both of Int31n's modulos
// by n precomputed: the rejection bound once at construction, and the
// final reduction as a multiply (Lemire's fastmod, exact for 32-bit
// operands). The stream generators draw at least once per access, so
// the two hardware divisions Intn spends are a visible share of
// generation time.
type bounded struct {
	n   uint64
	max int32  // largest Int31 draw Int31n accepts
	m   uint64 // ceil(2^64 / n); v % n == hi64(lo64(m*v) * n)
}

func newBounded(n int) bounded {
	if n <= 0 || n > 1<<31-1 {
		panic("workloads: invalid argument to newBounded")
	}
	return bounded{
		n:   uint64(n),
		max: int32(1<<31 - 1 - (1<<31)%uint32(n)),
		m:   ^uint64(0)/uint64(n) + 1,
	}
}

// draw returns rng.Intn(b.n), consuming the same source values.
func (b bounded) draw(rng *rand.Rand) int {
	v := rng.Int31()
	for v > b.max {
		v = rng.Int31()
	}
	hi, _ := bits.Mul64(b.m*uint64(v), b.n)
	return int(hi)
}

// The generators' fixed bounds.
var (
	draw1000   = newBounded(1000)
	draw10     = newBounded(10)
	draw8      = newBounded(8)
	drawArrays = newBounded(btArrays)
)
