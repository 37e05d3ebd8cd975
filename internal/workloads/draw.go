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

// Source is a math/rand Source64 whose Seed(s) leaves exactly the state
// rand.NewSource(s) builds, so a rand.Rand over it draws the same
// stream; it differs only in what seeding costs. math/rand seeds its
// 607-word lagged-Fibonacci register from the chain
// x(n+1) = 48271·x(n) mod (2^31−1), walking 1841 dependent Schrage
// steps, and rand.NewSource allocates the 4.9 KB register on every
// call. Source computes x(n) = 48271^n·x(0) from a power table with a
// Mersenne reduction, so the register's words are independent
// multiplies, and a caller that reseeds one Source reuses its
// register. Trace replay and check.Machine reseed one per hog op.
type Source struct {
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen  = 607       // register length
	rngTap  = 273       // lag of the feedback tap
	rngP    = 1<<31 - 1 // the seed chain's modulus, a Mersenne prime
	rngA    = 48271     // the seed chain's multiplier
	rngSkip = 20        // chain steps math/rand discards before word 0
)

var (
	// seedPow[i][j] is 48271^(rngSkip+1+3i+j) mod rngP: register word
	// i mixes chain positions rngSkip+1+3i, +2 and +3.
	seedPow [rngLen][3]uint64
	// rngCooked is math/rand's per-word seeding mask, recovered in init
	// from rand.NewSource(1)'s output rather than copied.
	rngCooked [rngLen]uint64
)

// mulModP returns a·b mod rngP for a, b < rngP, without a division
// or a branch. The product is below 2^62, so folding its high bits onto
// the low 31 leaves r <= 2·rngP, and a second fold subtracts rngP
// exactly when r >= 2^31. r is never rngP itself: rngP is prime, so a
// product of nonzero residues is never ≡ 0.
func mulModP(a, b uint64) uint64 {
	v := a * b
	r := v&rngP + v>>31
	return r&rngP + r>>31
}

// chainWord returns register word i before the cooked mask, for chain
// start x (1 <= x < rngP).
func chainWord(x uint64, i int) uint64 {
	p := &seedPow[i]
	return mulModP(p[0], x)<<40 ^ mulModP(p[1], x)<<20 ^ mulModP(p[2], x)
}

func init() {
	pow := uint64(1)
	for n := 1; n <= rngSkip+3*rngLen; n++ {
		pow = mulModP(pow, rngA)
		if j := n - rngSkip - 1; j >= 0 {
			seedPow[j/3][j%3] = pow
		}
	}
	// Output k (1-based) of a fresh register adds word tap = rngLen-k
	// to word feed = (rngLen-rngTap-k) mod rngLen and stores the sum at
	// feed. Within the first rngLen outputs each feed word still holds
	// its initial value when it is read, and from k = rngTap+1 on the
	// tap word is the one output k-rngTap overwrote. So outputs
	// rngTap+1..rngLen give words [0, 61) and [334, 607) from pairs of
	// outputs, and outputs 1..rngTap then give words [61, 334) from
	// those upper words.
	ref := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = ref.Uint64()
	}
	feed := func(k int) int { return (2*rngLen - rngTap - k) % rngLen }
	var vec [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		vec[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[feed(k)] = out[k] - vec[rngLen-k]
	}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ chainWord(1, i)
	}
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the register to the state rand.NewSource(seed) starts
// in, with the same reduction of seed into the chain's range.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= rngP
	if seed < 0 {
		seed += rngP
	}
	if seed == 0 {
		seed = 89482311
	}
	for i := range s.vec {
		s.vec[i] = int64(chainWord(uint64(seed), i) ^ rngCooked[i])
	}
}

// Uint64 returns the next register word, as math/rand's source does.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next register word with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
