// Package zone assembles the physical-memory substrate: a Machine is a
// set of NUMA zones, each combining a buddy allocator with its own
// contiguity map, mirroring Linux's per-node struct zone that the paper
// extends (§III-B: "a separate contiguity_map instance is maintained per
// NUMA node").
package zone

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/mem/addr"
	"repro/internal/mem/buddy"
	"repro/internal/mem/contigmap"
	"repro/internal/mem/frame"
	"repro/internal/trace"
)

// Zone is one NUMA node's memory: a PFN range, its buddy allocator, and
// its contiguity map.
type Zone struct {
	ID     int
	Base   addr.PFN
	Pages  uint64
	Buddy  *buddy.Buddy
	Contig *contigmap.Map
}

// Contains reports whether pfn belongs to this zone.
func (z *Zone) Contains(pfn addr.PFN) bool {
	return pfn >= z.Base && uint64(pfn-z.Base) < z.Pages
}

// FreePages returns the zone's free page count.
func (z *Zone) FreePages() uint64 { return z.Buddy.FreePages() }

// Machine is the whole physical address space: a shared frame table plus
// one or more zones. Allocation requests name a preferred zone and fall
// back to the others in order, like Linux zonelists.
type Machine struct {
	Frames *frame.Table
	Zones  []*Zone

	// Tracing state: the machine owns the per-zone free-list depth and
	// fragmentation gauges so TraceDepths can snapshot them in one call
	// from the machine's own driver thread (tracers are shared across
	// threads; machines are not).
	tr         *trace.Tracer
	depthGauge [][]int
	fragGauge  []int

	// geom keys the construction pool; empty for machines that must not
	// be pooled (shard views, which do not own their zones).
	geom string
}

// Config describes machine geometry.
type Config struct {
	// ZonePages is the page count of each zone (must be a multiple of
	// the MAX_ORDER block size).
	ZonePages []uint64
	// SortedMaxOrder enables the CA anti-fragmentation sorted list in
	// every zone.
	SortedMaxOrder bool
}

// pool holds recycled machines per geometry. Experiment grids build
// hundreds of identical host machines back to back; reusing the frame
// table and buddy link arrays turns construction from allocate-and-zero
// into one fill pass. Pristine state is history-independent — every
// byte a simulation can observe is rewritten by reset — so a pooled
// machine is indistinguishable from a fresh one (pinned by the golden
// tables, which exercise recycled machines on every grid driver).
var pool = struct {
	sync.Mutex
	machines map[string][]*Machine
}{machines: make(map[string][]*Machine)}

// key canonicalises the construction-relevant geometry.
func (cfg Config) key() string {
	var sb strings.Builder
	if cfg.SortedMaxOrder {
		sb.WriteByte('s')
	}
	for _, n := range cfg.ZonePages {
		fmt.Fprintf(&sb, ",%d", n)
	}
	return sb.String()
}

// NewMachine builds a machine with consecutive zones starting at PFN 0,
// reusing a recycled machine of identical geometry when one is pooled.
func NewMachine(cfg Config) *Machine {
	if len(cfg.ZonePages) == 0 {
		panic("zone: machine needs at least one zone")
	}
	key := cfg.key()
	pool.Lock()
	if ms := pool.machines[key]; len(ms) > 0 {
		m := ms[len(ms)-1]
		ms[len(ms)-1] = nil
		pool.machines[key] = ms[:len(ms)-1]
		pool.Unlock()
		m.reset()
		return m
	}
	pool.Unlock()

	var total uint64
	for _, n := range cfg.ZonePages {
		total += n
	}
	// Uninitialised table: the per-zone fills below cover every frame,
	// with the zone tag baked into the fill record instead of a second
	// per-frame pass.
	ft := frame.NewTableUninit(0, total)
	m := &Machine{Frames: ft, geom: key}
	base := addr.PFN(0)
	for i, n := range cfg.ZonePages {
		zoneFill(ft, base, n)
		b := buddy.NewPrefilled(ft, base, n)
		b.SetSorted(cfg.SortedMaxOrder)
		z := &Zone{
			ID:     i,
			Base:   base,
			Pages:  n,
			Buddy:  b,
			Contig: contigmap.New(b),
		}
		m.Zones = append(m.Zones, z)
		base += addr.PFN(n)
	}
	return m
}

// zoneFill resets a zone's frame records to pristine free state.
func zoneFill(ft *frame.Table, base addr.PFN, n uint64) {
	frame.Fill(ft.Slice(base, n), frame.Frame{State: frame.Free, BuddyOrder: -1, AllocOrder: -1})
}

// reset rebuilds pristine machine state in place.
func (m *Machine) reset() {
	for _, z := range m.Zones {
		zoneFill(m.Frames, z.Base, z.Pages)
		z.Buddy.Reset()
		z.Contig = contigmap.New(z.Buddy)
	}
	m.tr = nil
	m.depthGauge, m.fragGauge = nil, nil
}

// Recycle returns the machine to the construction pool. The caller must
// drop every reference to the machine, its zones, and its frame table:
// the next NewMachine of the same geometry receives them reset. View
// machines and hand-assembled machines are silently not pooled.
func (m *Machine) Recycle() {
	if m.geom == "" {
		return
	}
	pool.Lock()
	pool.machines[m.geom] = append(pool.machines[m.geom], m)
	pool.Unlock()
}

// View returns a machine exposing only the named zones, sharing the
// frame table and the zone objects themselves with the parent. A shard
// that owns a zone subset outright steps through a view: the view's
// zonelist scopes every allocation, free, and fit search to the owned
// zones, so concurrently stepped shards with disjoint views never
// touch the same buddy, contiguity map, or frame records. Views are
// never pooled (geom stays empty; Recycle is a no-op): the parent owns
// the substrate and must outlive every view.
func (m *Machine) View(zoneIdx ...int) *Machine {
	if len(zoneIdx) == 0 {
		panic("zone: view needs at least one zone")
	}
	v := &Machine{Frames: m.Frames}
	for _, i := range zoneIdx {
		if i < 0 || i >= len(m.Zones) {
			panic(fmt.Sprintf("zone: view index %d out of range [0,%d)", i, len(m.Zones)))
		}
		v.Zones = append(v.Zones, m.Zones[i])
	}
	return v
}

// SetTracer attaches (or, with nil, detaches) an event tracer to the
// machine and every zone's buddy allocator, and registers the per-zone
// free-list depth and fragmentation gauges ("buddy.z<id>.o<order>",
// "buddy.z<id>.frag"). When several machines share one tracer the
// gauge names collide by design: the last machine sampled wins, while
// the per-event streams (EvBuddyDepth/EvBuddyFrag carry the zone ID)
// stay distinct.
func (m *Machine) SetTracer(t *trace.Tracer) {
	m.tr = t
	for _, z := range m.Zones {
		z.Buddy.SetTracer(t, z.ID)
	}
	if t == nil {
		m.depthGauge, m.fragGauge = nil, nil
		return
	}
	m.depthGauge = make([][]int, len(m.Zones))
	m.fragGauge = make([]int, len(m.Zones))
	for i, z := range m.Zones {
		m.depthGauge[i] = make([]int, addr.MaxOrder+1)
		for o := 0; o <= addr.MaxOrder; o++ {
			m.depthGauge[i][o] = t.Gauge(fmt.Sprintf("buddy.z%d.o%d", z.ID, o))
		}
		m.fragGauge[i] = t.Gauge(fmt.Sprintf("buddy.z%d.frag", z.ID))
	}
}

// TraceDepths emits one free-list depth event per (zone, order) plus a
// fragmentation-score event per zone, and refreshes the matching
// gauges. No-op without a tracer. Callers own the cadence — the
// daemons call it per epoch, sim.Run per access batch — and must be
// the thread driving this machine.
func (m *Machine) TraceDepths() {
	if m.tr == nil {
		return
	}
	for i, z := range m.Zones {
		for o := 0; o <= addr.MaxOrder; o++ {
			n := z.Buddy.FreeBlocks(o)
			m.tr.Emit(trace.EvBuddyDepth, uint64(z.ID), uint64(o), n)
			m.tr.SetGauge(m.depthGauge[i][o], n)
		}
		fs := z.Buddy.FragScore()
		m.tr.Emit(trace.EvBuddyFrag, uint64(z.ID), fs, 0)
		m.tr.SetGauge(m.fragGauge[i], fs)
	}
}

// TotalPages returns the machine's total page count.
func (m *Machine) TotalPages() uint64 {
	var n uint64
	for _, z := range m.Zones {
		n += z.Pages
	}
	return n
}

// FreePages returns the machine-wide free page count.
func (m *Machine) FreePages() uint64 {
	var n uint64
	for _, z := range m.Zones {
		n += z.FreePages()
	}
	return n
}

// Mutations sums the zones' buddy mutation counters. On a shard view it
// covers exactly the owned zones: equal readings bracket a window with
// no free-pool changes visible to this machine.
func (m *Machine) Mutations() uint64 {
	var n uint64
	for _, z := range m.Zones {
		n += z.Buddy.Mutations()
	}
	return n
}

// ZoneOf returns the zone owning pfn, or nil.
func (m *Machine) ZoneOf(pfn addr.PFN) *Zone {
	for _, z := range m.Zones {
		if z.Contains(pfn) {
			return z
		}
	}
	return nil
}

// zonelist visits zones in allocation preference order starting from
// the preferred zone, stopping early when fn returns true. Allocation
// sits on the fault hot path, so the walk materialises no slice.
func (m *Machine) zonelist(preferred int, fn func(z *Zone) bool) {
	n := len(m.Zones)
	if preferred < 0 || preferred >= n {
		preferred = 0
	}
	// Step the index with compare-and-wrap: (preferred+i)%n would
	// cost a division per candidate on the allocation path.
	for i, j := 0, preferred; i < n; i++ {
		if fn(m.Zones[j]) {
			return
		}
		if j++; j == n {
			j = 0
		}
	}
}

// AllocBlock allocates a 2^order block, preferring the given zone and
// falling back across the zonelist.
func (m *Machine) AllocBlock(preferred, order int) (addr.PFN, error) {
	var out addr.PFN
	err := buddy.ErrNoMemory
	m.zonelist(preferred, func(z *Zone) bool {
		pfn, e := z.Buddy.AllocBlock(order)
		if e != nil {
			return false
		}
		out, err = pfn, nil
		return true
	})
	return out, err
}

// AllocN fills out with 4 KiB frames, preferring the given zone and
// moving down the zonelist as each zone runs dry (buddy.AllocN), and
// returns how many it placed. The state is that of len(out)
// AllocBlock(preferred, 0) calls: a zone the loop finds empty stays
// empty for the rest of it.
func (m *Machine) AllocN(preferred int, out []addr.PFN) int {
	done := 0
	m.zonelist(preferred, func(z *Zone) bool {
		done += z.Buddy.AllocN(out[done:])
		return done == len(out)
	})
	return done
}

// AllocBlockAt performs a targeted allocation wherever pfn lives.
func (m *Machine) AllocBlockAt(pfn addr.PFN, order int) error {
	z := m.ZoneOf(pfn)
	if z == nil {
		return buddy.ErrNotFree
	}
	return z.Buddy.AllocBlockAt(pfn, order)
}

// AllocRunAt claims up to n consecutive frames starting at pfn, one
// free block at a time (buddy.AllocRunAt), and stops at the first frame
// that is busy or owned by no zone. It returns how many it claimed; the
// state is that of as many ascending AllocBlockAt(pfn+i, 0) calls.
func (m *Machine) AllocRunAt(pfn addr.PFN, n uint64) uint64 {
	var done uint64
	for done < n {
		z := m.ZoneOf(pfn + addr.PFN(done))
		if z == nil {
			break
		}
		got := z.Buddy.AllocRunAt(pfn+addr.PFN(done), n-done)
		if got == 0 {
			break
		}
		done += got
	}
	return done
}

// FreeBlock returns a block to its owning zone.
func (m *Machine) FreeBlock(pfn addr.PFN, order int) {
	z := m.ZoneOf(pfn)
	if z == nil {
		panic(fmt.Sprintf("zone: freeing unowned PFN %d", pfn))
	}
	z.Buddy.FreeBlock(pfn, order)
}

// FreeRange returns an arbitrary run to its owning zone(s).
func (m *Machine) FreeRange(pfn addr.PFN, npages uint64) {
	for npages > 0 {
		z := m.ZoneOf(pfn)
		if z == nil {
			panic(fmt.Sprintf("zone: freeing unowned PFN %d", pfn))
		}
		n := npages
		if end := uint64(z.Base) + z.Pages; uint64(pfn)+n > end {
			n = end - uint64(pfn)
		}
		z.Buddy.FreeRange(pfn, n)
		pfn += addr.PFN(n)
		npages -= n
	}
}

// Reserve pins an arbitrary free run (hog / firmware holes).
func (m *Machine) Reserve(pfn addr.PFN, npages uint64) error {
	z := m.ZoneOf(pfn)
	if z == nil {
		return buddy.ErrNotFree
	}
	return z.Buddy.Reserve(pfn, npages)
}

// FindFit runs next-fit placement over the preferred zone's contiguity
// map, falling back across the zonelist when a zone's map is empty.
// It returns the zone chosen along with the placement.
func (m *Machine) FindFit(preferred int, pages uint64) (z *Zone, start addr.PFN, avail uint64, ok bool) {
	m.zonelist(preferred, func(cand *Zone) bool {
		s, a, found := cand.Contig.FindFit(pages)
		if !found {
			return false
		}
		z, start, avail, ok = cand, s, a, true
		return true
	})
	return z, start, avail, ok
}

// FreeBlockHistogram buckets the machine's free contiguity by size: the
// contiguity maps provide the >= MAX_ORDER unaligned clusters, and the
// buddy free lists provide the sub-MAX_ORDER blocks. Keys are sizes in
// pages (clusters use their exact page size; buddy blocks use
// 2^order). Used for the paper's Fig. 9.
func (m *Machine) FreeBlockHistogram() map[uint64]uint64 {
	h := make(map[uint64]uint64)
	for _, z := range m.Zones {
		z.Contig.Visit(func(c *contigmap.Cluster) { h[c.Pages()]++ })
		for o := 0; o < addr.MaxOrder; o++ {
			if n := z.Buddy.FreeBlocks(o); n > 0 {
				h[addr.OrderPages(o)] += n
			}
		}
	}
	return h
}
