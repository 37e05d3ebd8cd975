package experiments

// grid is the row-major index space the sweep drivers fan out over:
// a (workload x policy) or (pressure x policy x workload) cell grid
// flattened to one worker-pool range. Drivers used to inline the
// div/mod decode at each site; grid keeps the decode and its inverse
// in one place so the axis order is stated once per driver and the
// flat cell layout always matches the row-assembly loops.
//
// Axis 0 varies slowest, the last axis fastest — matching the
// historical `i/len(inner)` / `i%len(inner)` decode, so flat indices
// (and therefore table row order) are unchanged.
type grid struct {
	dims []int
}

// newGrid builds an index space over the given axis lengths. Every
// axis must be positive: a zero-length axis would silently collapse
// the whole space to nothing and turn at() into division by zero.
func newGrid(dims ...int) grid {
	if len(dims) == 0 {
		panic("experiments: grid needs at least one axis")
	}
	for _, d := range dims {
		if d <= 0 {
			panic("experiments: grid axes must be positive")
		}
	}
	return grid{dims: dims}
}

// size is the number of cells — the n to pass to shard.Each.
func (g grid) size() int {
	n := 1
	for _, d := range g.dims {
		n *= d
	}
	return n
}

// at decodes flat cell index i along the given axis.
func (g grid) at(i, axis int) int {
	stride := 1
	for _, d := range g.dims[axis+1:] {
		stride *= d
	}
	return (i / stride) % g.dims[axis]
}

// index is the inverse of at: the flat cell index of the given
// coordinates, one per axis.
func (g grid) index(coords ...int) int {
	if len(coords) != len(g.dims) {
		panic("experiments: grid.index arity mismatch")
	}
	i := 0
	for axis, c := range coords {
		if c < 0 || c >= g.dims[axis] {
			panic("experiments: grid coordinate out of range")
		}
		i = i*g.dims[axis] + c
	}
	return i
}
