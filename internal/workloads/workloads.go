package workloads

import (
	"math/rand"

	"repro/internal/mem/addr"
	"repro/internal/osim/vma"
)

// Scaled footprints: the paper's 29–167 GB workloads divided by ~512,
// preserving their relative spread (Table III).
const (
	MiB = 1 << 20

	svmModelBytes    = 8 * MiB
	svmFeatureBytes  = 88 * MiB
	svmDatasetBytes  = 32 * MiB // kdd12 through the page cache
	svmSmallVMACount = 24
	svmSmallVMABytes = 512 << 10

	prVertexBytes  = 120 * MiB
	prEdgeBytes    = 112 * MiB
	prDatasetBytes = 48 * MiB // friendster through the page cache

	hjTableBytes  = 400 * MiB // spans two 384 MiB guest zones like the 102 GB original
	hjBufferBytes = 16 * MiB

	xsGridBytes      = 256 * MiB
	xsUnionizedBytes = 192 * MiB

	btArrayBytes = 96 * MiB // ×5 arrays = 480 MiB, the biggest footprint
	btArrays     = 5
)

// Allocator slack: the fraction of each heap VMA the application maps
// but never touches (TCMalloc rounding, Table VI). Eager paging turns
// this into bloat; demand paging does not. Fractions follow the
// paper's measured eager bloat percentages.
const (
	svmSlack      = 0.08
	pagerankSlack = 0.065
	hashjoinSlack = 0.48
	xsbenchSlack  = 0.005
	btSlack       = 0.001
)

// usedRegion builds a stream region covering only the touched part of
// a VMA allocated with slack.
func usedRegion(start addr.VirtAddr, usedBytes uint64) region {
	return region{start: start, pages: usedBytes / addr.PageSize}
}

// PC values: fixed synthetic instruction addresses so the SpOT table
// indexes deterministically.
func pc(workload, instr int) uint64 { return 0x400000 + uint64(workload)<<12 + uint64(instr)*4 }

// ---------------------------------------------------------------- SVM

// SVM models Liblinear SVM on kdd12: a dataset ingested via the page
// cache into a large feature matrix, a small hot model vector, and —
// key to its SpOT behaviour — a set of small auxiliary VMAs whose
// scattered mappings defeat offset prediction for the instruction that
// walks them (§VI-B: ~4 % of SVM's misses fall outside the 32 largest
// mappings and one instruction misses irregularly).
type SVM struct {
	features region
	model    region
	small    []region
}

// NewSVM constructs the workload.
func NewSVM() *SVM { return &SVM{} }

// Name implements Workload.
func (s *SVM) Name() string { return "svm" }

// FootprintBytes implements Workload.
func (s *SVM) FootprintBytes() uint64 {
	return svmModelBytes + svmFeatureBytes + svmSmallVMACount*svmSmallVMABytes
}

// Setup implements Workload: dataset read interleaved with heap
// population (readahead interleaving of §III-C), then the model and the
// small auxiliary VMAs.
func (s *SVM) Setup(env *Env, rng *rand.Rand) error {
	f := env.Kernel.Cache.CreateFile(svmDatasetBytes)
	feat, err := env.MMapSlack(svmFeatureBytes, svmSlack)
	if err != nil {
		return err
	}
	// Interleave file reads with heap writes: read a chunk, populate a
	// chunk (applications parse file data into heap structures).
	chunk := uint64(4 * MiB)
	read := uint64(0)
	for off := uint64(0); off < svmFeatureBytes; off += chunk {
		if read < svmDatasetBytes {
			n := chunk
			if read+n > svmDatasetBytes {
				n = svmDatasetBytes - read
			}
			if err := env.Kernel.Cache.Read(f, read, n); err != nil {
				return err
			}
			read += n
		}
		end := off + chunk
		if end > svmFeatureBytes {
			end = svmFeatureBytes
		}
		if err := env.PopulateRange(feat, feat.Start.Add(off), end-off); err != nil {
			return err
		}
	}
	model, err := env.MMap(svmModelBytes)
	if err != nil {
		return err
	}
	if err := env.Populate(model); err != nil {
		return err
	}
	s.features, s.model = usedRegion(feat.Start, svmFeatureBytes), regionOf(model)
	s.small = nil
	for i := 0; i < svmSmallVMACount; i++ {
		v, err := env.MMap(svmSmallVMABytes)
		if err != nil {
			return err
		}
		if err := env.Populate(v); err != nil {
			return err
		}
		s.small = append(s.small, regionOf(v))
	}
	return nil
}

// Stream implements Workload. SVM's measured phase: sparse row scans
// striding past huge-page boundaries (most misses, predictable within
// a mapping), hot model updates, a random gather, and the irregular
// instruction hopping across the scattered small VMAs that produces
// the paper's unpredictable miss tail (§VI-B).
func (s *SVM) Stream(rng *rand.Rand, n uint64) Stream {
	// Sparse row strides: larger than a huge page, so nearly every
	// reference of these PCs lands on a fresh 2 MiB region.
	return &svmStream{
		streamLen: streamLen{n: n},
		rng:       rng,
		w:         s,
		strideA:   seqWalker{r: s.features},
		strideB:   seqWalker{r: s.features, pos: s.features.pages / 3},
		small:     newBounded(len(s.small)),
	}
}

// svmStream is SVM's measured-phase stream.
type svmStream struct {
	streamLen
	rng              *rand.Rand
	w                *SVM
	strideA, strideB seqWalker
	small            bounded
}

func (st *svmStream) Fill(buf []Access) int {
	buf = st.take(buf)
	rng, s, small := st.rng, st.w, st.small
	for i := range buf {
		switch x := draw1000.draw(rng); {
		case x < 5: // sparse row scan, instruction A
			st.strideA.pos += 700
			buf[i] = Access{PC: pc(1, 0), VA: st.strideA.next()}
		case x < 9: // sparse row scan, instruction B
			st.strideB.pos += 1300
			buf[i] = Access{PC: pc(1, 1), VA: st.strideB.next()}
		case x < 100: // dense in-row accesses (page-sequential)
			buf[i] = Access{PC: pc(1, 5), VA: st.strideA.r.pageVA(st.strideA.pos + uint64(draw8.draw(rng)))}
		case x < 985: // hot model vector (TLB resident)
			buf[i] = Access{PC: pc(1, 2), VA: s.model.pageVA(uint64(draw8.draw(rng))), Write: true}
		case x < 996: // random feature gather
			buf[i] = Access{PC: pc(1, 3), VA: s.features.pageVA(rng.Uint64())}
		default: // irregular hops across scattered small VMAs
			r := s.small[small.draw(rng)]
			buf[i] = Access{PC: pc(1, 4), VA: r.pageVA(rng.Uint64())}
		}
	}
	return len(buf)
}

// ----------------------------------------------------------- PageRank

// PageRank models Ligra PageRank on friendster: an edge array streamed
// sequentially and a vertex array accessed randomly — but both inside
// single huge VMAs, which is why SpOT predicts it almost perfectly once
// CA paging makes each VMA one mapping (Fig. 14: >99 % correct).
type PageRank struct {
	vertices region
	edges    region
}

// NewPageRank constructs the workload.
func NewPageRank() *PageRank { return &PageRank{} }

// Name implements Workload.
func (p *PageRank) Name() string { return "pagerank" }

// FootprintBytes implements Workload.
func (p *PageRank) FootprintBytes() uint64 { return prVertexBytes + prEdgeBytes }

// Setup implements Workload.
func (p *PageRank) Setup(env *Env, rng *rand.Rand) error {
	f := env.Kernel.Cache.CreateFile(prDatasetBytes)
	edges, err := env.MMapSlack(prEdgeBytes, pagerankSlack)
	if err != nil {
		return err
	}
	// Graph loading: read file chunks, write edge array.
	chunk := uint64(8 * MiB)
	read := uint64(0)
	for off := uint64(0); off < prEdgeBytes; off += chunk {
		if read < prDatasetBytes {
			n := chunk
			if read+n > prDatasetBytes {
				n = prDatasetBytes - read
			}
			if err := env.Kernel.Cache.Read(f, read, n); err != nil {
				return err
			}
			read += n
		}
		end := off + chunk
		if end > prEdgeBytes {
			end = prEdgeBytes
		}
		if err := env.PopulateRange(edges, edges.Start.Add(off), end-off); err != nil {
			return err
		}
	}
	verts, err := env.MMap(prVertexBytes)
	if err != nil {
		return err
	}
	if err := env.Populate(verts); err != nil {
		return err
	}
	p.edges, p.vertices = usedRegion(edges.Start, prEdgeBytes), regionOf(verts)
	return nil
}

// Stream implements Workload.
func (p *PageRank) Stream(rng *rand.Rand, n uint64) Stream {
	return &pagerankStream{streamLen: streamLen{n: n}, rng: rng, w: p, seq: seqWalker{r: p.edges}}
}

// pagerankStream is PageRank's measured-phase stream.
type pagerankStream struct {
	streamLen
	rng *rand.Rand
	w   *PageRank
	seq seqWalker
	hot uint64
}

func (st *pagerankStream) Fill(buf []Access) int {
	buf = st.take(buf)
	rng, verts := st.rng, st.w.vertices
	for i := range buf {
		switch x := draw1000.draw(rng); {
		case x < 300: // edge stream
			buf[i] = Access{PC: pc(2, 0), VA: st.seq.next()}
		case x < 318: // random vertex ranks (one big mapping)
			buf[i] = Access{PC: pc(2, 1), VA: verts.pageVA(rng.Uint64()), Write: true}
		default: // hot frontier/accumulator pages
			st.hot++
			buf[i] = Access{PC: pc(2, 2), VA: verts.pageVA(st.hot % 8), Write: true}
		}
	}
	return len(buf)
}

// ----------------------------------------------------------- hashjoin

// HashJoin models the hashjoin microbenchmark: a giant hash table built
// then probed with uniformly random keys, from 10 worker threads. Its
// footprint (102 GB in the paper) spans two NUMA nodes, so even CA
// paging yields several mappings, and the random probes from single
// instructions cross them — producing SpOT's worst mispredict rate
// (Fig. 14: ~4 %).
type HashJoin struct {
	table region
	buf   region
}

// NewHashJoin constructs the workload.
func NewHashJoin() *HashJoin { return &HashJoin{} }

// Name implements Workload.
func (h *HashJoin) Name() string { return "hashjoin" }

// FootprintBytes implements Workload.
func (h *HashJoin) FootprintBytes() uint64 { return hjTableBytes + hjBufferBytes }

// Setup implements Workload.
func (h *HashJoin) Setup(env *Env, rng *rand.Rand) error {
	table, err := env.MMapSlack(hjTableBytes, hashjoinSlack)
	if err != nil {
		return err
	}
	if err := env.PopulatePrefix(table, hjTableBytes); err != nil {
		return err
	}
	buf, err := env.MMap(hjBufferBytes)
	if err != nil {
		return err
	}
	if err := env.Populate(buf); err != nil {
		return err
	}
	h.table, h.buf = usedRegion(table.Start, hjTableBytes), regionOf(buf)
	return nil
}

// Stream implements Workload: 10 interleaved "threads", each with its
// own probe instruction, all uniformly random over the whole table.
func (h *HashJoin) Stream(rng *rand.Rand, n uint64) Stream {
	return &hashjoinStream{streamLen: streamLen{n: n}, rng: rng, w: h}
}

// hashjoinStream is HashJoin's measured-phase stream.
type hashjoinStream struct {
	streamLen
	rng    *rand.Rand
	w      *HashJoin
	thread int
}

func (st *hashjoinStream) Fill(buf []Access) int {
	buf = st.take(buf)
	rng, table, out, thread := st.rng, st.w.table, st.w.buf, st.thread
	for i := range buf {
		thread = (thread + 1) % 10
		switch x := draw1000.draw(rng); {
		case x < 7: // random probe, thread-specific PC
			buf[i] = Access{PC: pc(3, thread), VA: table.pageVA(rng.Uint64())}
		case x < 10: // chained bucket walk (second dependent load)
			buf[i] = Access{PC: pc(3, 10+thread), VA: table.pageVA(rng.Uint64())}
		default: // per-thread output buffer (hot)
			buf[i] = Access{PC: pc(3, 20+thread), VA: out.pageVA(uint64(thread)), Write: true}
		}
	}
	st.thread = thread
	return len(buf)
}

// ------------------------------------------------------------ XSBench

// XSBench models the Monte Carlo neutron-transport kernel: random
// lookups into large read-only cross-section grids plus a binary search
// over the unionized energy grid, from 10 threads.
type XSBench struct {
	grids     region
	unionized region
}

// NewXSBench constructs the workload.
func NewXSBench() *XSBench { return &XSBench{} }

// Name implements Workload.
func (x *XSBench) Name() string { return "xsbench" }

// FootprintBytes implements Workload.
func (x *XSBench) FootprintBytes() uint64 { return xsGridBytes + xsUnionizedBytes }

// Setup implements Workload.
func (x *XSBench) Setup(env *Env, rng *rand.Rand) error {
	grids, err := env.MMapSlack(xsGridBytes, xsbenchSlack)
	if err != nil {
		return err
	}
	if err := env.PopulatePrefix(grids, xsGridBytes); err != nil {
		return err
	}
	uni, err := env.MMap(xsUnionizedBytes)
	if err != nil {
		return err
	}
	if err := env.Populate(uni); err != nil {
		return err
	}
	x.grids, x.unionized = usedRegion(grids.Start, xsGridBytes), regionOf(uni)
	return nil
}

// Stream implements Workload.
func (x *XSBench) Stream(rng *rand.Rand, n uint64) Stream {
	return &xsbenchStream{streamLen: streamLen{n: n}, rng: rng, w: x}
}

// xsbenchStream is XSBench's measured-phase stream.
type xsbenchStream struct {
	streamLen
	rng *rand.Rand
	w   *XSBench
}

func (st *xsbenchStream) Fill(buf []Access) int {
	buf = st.take(buf)
	rng, grids, uni := st.rng, st.w.grids, st.w.unionized
	for i := range buf {
		switch v := draw1000.draw(rng); {
		case v < 12: // random nuclide grid lookup
			buf[i] = Access{PC: pc(4, draw10.draw(rng)), VA: grids.pageVA(rng.Uint64())}
		case v < 14: // unionized grid binary-search probes
			buf[i] = Access{PC: pc(4, 20), VA: uni.pageVA(rng.Uint64())}
		default: // per-particle hot state
			buf[i] = Access{PC: pc(4, 30), VA: uni.pageVA(uint64(v % 4)), Write: true}
		}
	}
	return len(buf)
}

// ----------------------------------------------------------------- BT

// BT models NAS BT class E: five large multi-dimensional arrays swept
// along different dimensions; the z-dimension sweeps stride by whole
// planes, missing the TLB on nearly every reference. Its footprint is
// the largest and spans NUMA nodes, the case where CA paging loses some
// contiguity at the node boundary (§VI-A).
type BT struct {
	arrays []region
}

// NewBT constructs the workload.
func NewBT() *BT { return &BT{} }

// Name implements Workload.
func (b *BT) Name() string { return "bt" }

// FootprintBytes implements Workload.
func (b *BT) FootprintBytes() uint64 { return btArrays * btArrayBytes }

// Setup implements Workload: the five arrays are allocated up front and
// populated interleaved (BT's init loops sweep all arrays together), so
// their faults compete for free blocks — the pattern that costs CA
// paging contiguity when the footprint spills to the second NUMA node
// (§VI-A).
func (b *BT) Setup(env *Env, rng *rand.Rand) error {
	b.arrays = nil
	vmas := make([]*vma.VMA, 0, btArrays)
	for i := 0; i < btArrays; i++ {
		v, err := env.MMapSlack(btArrayBytes, btSlack)
		if err != nil {
			return err
		}
		b.arrays = append(b.arrays, usedRegion(v.Start, btArrayBytes))
		vmas = append(vmas, v)
	}
	const chunk = 16 * MiB
	for off := uint64(0); off < btArrayBytes; off += chunk {
		for _, v := range vmas {
			end := off + chunk
			if end > v.Size() {
				end = v.Size()
			}
			if err := env.PopulateRange(v, v.Start.Add(off), end-off); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stream implements Workload.
func (b *BT) Stream(rng *rand.Rand, n uint64) Stream {
	st := &btStream{streamLen: streamLen{n: n}, rng: rng, w: b}
	for i := range st.seqs {
		st.seqs[i] = seqWalker{r: b.arrays[i]}
	}
	return st
}

// btStream is BT's measured-phase stream.
type btStream struct {
	streamLen
	rng  *rand.Rand
	w    *BT
	zpos [btArrays]uint64
	seqs [btArrays]seqWalker
}

func (st *btStream) Fill(buf []Access) int {
	// Plane stride for the z sweep: 4096 pages (16 MiB planes) — at or
	// above the size of the fragments CA produces for BT, so the
	// sweeping instructions hop mappings on almost every miss. Their
	// offsets never gain confidence: SpOT abstains (no-prediction)
	// instead of flushing the pipeline, the §IV-C behaviour.
	const plane = 4096
	buf = st.take(buf)
	rng, arrays := st.rng, st.w.arrays
	for i := range buf {
		a := drawArrays.draw(rng)
		switch x := draw1000.draw(rng); {
		case x < 6: // z sweep: plane-strided, misses constantly
			st.zpos[a] += plane
			buf[i] = Access{PC: pc(5, a), VA: arrays[a].pageVA(st.zpos[a]), Write: true}
		case x < 150: // x sweep: sequential
			buf[i] = Access{PC: pc(5, 10+a), VA: st.seqs[a].next()}
		default: // stencil locals (hot)
			buf[i] = Access{PC: pc(5, 20+a), VA: arrays[a].pageVA(uint64(x % 4))}
		}
	}
	return len(buf)
}

// All returns the five paper workloads in Table III order.
func All() []Workload {
	return []Workload{NewSVM(), NewPageRank(), NewHashJoin(), NewXSBench(), NewBT()}
}

// ByName returns the workload with the given name, or nil.
func ByName(name string) Workload {
	for _, w := range All() {
		if w.Name() == name {
			return w
		}
	}
	return nil
}
