package check

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/contigmap"
	"repro/internal/mem/frame"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
	"repro/internal/workloads"
)

// firstMappedPFN returns a leaf-mapped frame whose MapCount is exactly
// want, so corruption tests can pick a frame with known reference count.
func firstMappedPFN(t *testing.T, ks []*osim.Kernel, want int32) addr.PFN {
	t.Helper()
	for _, k := range ks {
		for _, p := range k.Processes() {
			var found addr.PFN
			ok := false
			p.PT.Visit(func(l pagetable.Leaf) {
				if !ok && k.Machine.Frames.Get(l.PTE.PFN).MapCount == want {
					found, ok = l.PTE.PFN, true
				}
			})
			if ok {
				return found
			}
		}
	}
	t.Fatalf("no mapped frame with MapCount %d", want)
	return 0
}

// TestAuditCorruptionBranches drives every externally reachable failure
// branch of the flat-array audit engine — the per-frame merged sweep,
// the per-process gather, and the per-zone structural checks it wraps —
// on the two-zone sharded fixture, so each corruption is detected under
// the parallel per-zone fan-out, through both the package-level wrapper
// and a reused campaign-style Auditor.
//
// Three branches are deliberately absent because no public-API
// corruption can reach them without tripping an earlier check first:
// "leaf sweep counts ... MappedPages says" (the page table's counters
// are private and its Map/Unmap APIs keep them consistent by
// construction), "leaf-bearing VMAs missing from the VMA set" (Find and
// Visit read the same slice, so they cannot disagree), and "frame table
// has N free frames, buddy says M" (the buddy's own invariants pin
// state-Free frames to listed coverage and listed coverage to the
// counter, so any drift fires a buddy error first).
func TestAuditCorruptionBranches(t *testing.T) {
	// located, when a corruption sets it, is the frame the error must
	// name ("frame N "), for messages whose fixed text does not.
	var located string
	tests := []struct {
		name    string
		corrupt func(t *testing.T, m *zone.Machine, ks []*osim.Kernel, envs []*workloads.Env) []Extent
		want    string
	}{
		{"mapcount-drift", func(t *testing.T, m *zone.Machine, ks []*osim.Kernel, _ []*workloads.Env) []Extent {
			m.Frames.Get(firstMappedPFN(t, ks, 1)).MapCount++
			return nil
		}, "live references"},
		{"free-but-referenced", func(t *testing.T, m *zone.Machine, ks []*osim.Kernel, _ []*workloads.Env) []Extent {
			// Free a still-mapped frame behind the mapping's back, then
			// restore MapCount so only the state cross-check can catch it.
			pfn := firstMappedPFN(t, ks, 1)
			m.FreeBlock(pfn, 0)
			m.Frames.Get(pfn).MapCount = 1
			return nil
		}, "free but referenced"},
		{"pinned-but-free", func(t *testing.T, m *zone.Machine, _ []*osim.Kernel, _ []*workloads.Env) []Extent {
			pfn, err := m.AllocBlock(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			m.FreeBlock(pfn, 0)
			return []Extent{{PFN: uint64(pfn), Pages: 1}}
		}, "declared pinned but free"},
		{"leaked-frame", func(t *testing.T, m *zone.Machine, _ []*osim.Kernel, _ []*workloads.Env) []Extent {
			if _, err := m.AllocBlock(0, 0); err != nil {
				t.Fatal(err)
			}
			return nil
		}, "leaked frame"},
		{"pinned-but-referenced", func(t *testing.T, m *zone.Machine, ks []*osim.Kernel, _ []*workloads.Env) []Extent {
			return []Extent{{PFN: uint64(firstMappedPFN(t, ks, 1)), Pages: 1}}
		}, "declared pinned but referenced"},
		{"reserved-inside-zone", func(t *testing.T, m *zone.Machine, _ []*osim.Kernel, _ []*workloads.Env) []Extent {
			pfn, err := m.AllocBlock(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			m.Frames.Get(pfn).State = frame.Reserved
			located = fmt.Sprintf("frame %d ", pfn)
			return nil
		}, "Reserved state inside a zone"},
		{"pfn-outside-machine", func(t *testing.T, m *zone.Machine, _ []*osim.Kernel, envs []*workloads.Env) []Extent {
			envs[0].Proc.PT.Map4K(0x7F00_0000_0000, addr.PFN(1)<<40, 0)
			return nil
		}, "outside the machine"},
		{"mapping-outside-any-vma", func(t *testing.T, m *zone.Machine, _ []*osim.Kernel, envs []*workloads.Env) []Extent {
			pfn, err := m.AllocBlock(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			envs[0].Proc.PT.Map4K(0x7F00_0000_0000, pfn, 0)
			return nil
		}, "mapped outside any VMA"},
		{"vma-removed-under-leaves", func(t *testing.T, m *zone.Machine, _ []*osim.Kernel, envs []*workloads.Env) []Extent {
			p := envs[0].Proc
			var v *vma.VMA
			p.VMAs.Visit(func(c *vma.VMA) {
				if v == nil && c.MappedPages > 0 {
					v = c
				}
			})
			p.VMAs.Remove(v)
			return nil
		}, "mapped outside any VMA"},
		{"huge-leaf-overhangs-vma", func(t *testing.T, m *zone.Machine, _ []*osim.Kernel, envs []*workloads.Env) []Extent {
			// A 1 MiB VMA with a 2 MiB leaf mapped at its start: the
			// leaf's last 256 pages overhang the VMA end.
			p := envs[0].Proc
			const va = addr.VirtAddr(0x6000_0000_0000)
			if _, err := p.VMAs.Insert(new(vma.Pool), va, 256*addr.PageSize, vma.Anonymous); err != nil {
				t.Fatal(err)
			}
			pfn, err := m.AllocBlock(0, addr.HugeOrder)
			if err != nil {
				t.Fatal(err)
			}
			p.PT.Map2M(va, pfn, 0)
			return nil
		}, "overhangs its VMA end"},
		{"rss-drift", func(t *testing.T, m *zone.Machine, _ []*osim.Kernel, envs []*workloads.Env) []Extent {
			envs[0].Proc.RSSPages++
			return nil
		}, "RSS charges"},
		{"vma-mapped-pages-drift", func(t *testing.T, m *zone.Machine, _ []*osim.Kernel, envs []*workloads.Env) []Extent {
			var v *vma.VMA
			envs[0].Proc.VMAs.Visit(func(c *vma.VMA) {
				if v == nil && c.MappedPages > 0 {
					v = c
				}
			})
			v.MappedPages++
			return nil
		}, "leaf pages inside it"},
		{"buddy-structural-error", func(t *testing.T, m *zone.Machine, _ []*osim.Kernel, _ []*workloads.Env) []Extent {
			// Clear a listed MAX_ORDER head's marking: the buddy's own
			// invariants fire, wrapped with the zone prefix.
			var head addr.PFN
			found := false
			m.Zones[0].Buddy.VisitMaxOrder(func(p addr.PFN) {
				if !found {
					head, found = p, true
				}
			})
			if !found {
				t.Fatal("no free MAX_ORDER block")
			}
			m.Frames.Get(head).BuddyOrder = -1
			return nil
		}, "buddy: "},
		{"contigmap-structural-error", func(t *testing.T, m *zone.Machine, _ []*osim.Kernel, _ []*workloads.Env) []Extent {
			var c0 *contigmap.Cluster
			m.Zones[0].Contig.Visit(func(c *contigmap.Cluster) {
				if c0 == nil {
					c0 = c
				}
			})
			if c0 == nil {
				t.Fatal("no cluster in zone 0")
			}
			// Grow the cluster over a block the buddy does not list.
			c0.Blocks++
			return nil
		}, "contigmap: "},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m, ks, envs := shardedFixture(t)
			located = ""
			pinned := tc.corrupt(t, m, ks, envs)
			err := AuditKernels(m, ks, pinned)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("AuditKernels = %v, want error containing %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), located) {
				t.Fatalf("AuditKernels = %v, want it to name %q", err, located)
			}
			// The campaign shape — a held, reused Auditor — must report
			// the identical error.
			a := NewAuditor(m)
			if err2 := a.AuditKernels(m, ks, pinned); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("reused Auditor reported %v, wrapper reported %v", err2, err)
			}
			// And the same arena, its scratch now dirty from the failed
			// audit, must still pass a clean machine.
			m2, ks2, _ := shardedFixture(t)
			if err := a.AuditKernels(m2, ks2, nil); err != nil {
				t.Fatalf("dirty arena failed clean machine: %v", err)
			}
		})
	}
}

// TestAuditParallelErrorDeterministic corrupts both zones at once and
// requires the parallel per-zone sweep to report the zone-0 error every
// time: error selection is by zone index, not goroutine finish order.
func TestAuditParallelErrorDeterministic(t *testing.T) {
	m, ks, _ := shardedFixture(t)
	if _, err := m.AllocBlock(0, 0); err != nil { // leak in zone 0
		t.Fatal(err)
	}
	if _, err := m.AllocBlock(1, 0); err != nil { // leak in zone 1
		t.Fatal(err)
	}
	first := ""
	for i := 0; i < 25; i++ {
		err := AuditKernels(m, ks, nil)
		if err == nil {
			t.Fatal("audit missed double corruption")
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("run %d reported %q, first run reported %q", i, err.Error(), first)
		}
	}
	if !strings.Contains(first, "leaked frame") {
		t.Fatalf("unexpected error %q", first)
	}
	// The reported frame must be zone 0's: its PFN is below zone 1's base.
	var pfn uint64
	if _, err := fmt.Sscanf(first, "frame %d:", &pfn); err != nil {
		t.Fatalf("cannot parse frame number from %q: %v", first, err)
	}
	if pfn >= uint64(m.Zones[1].Base) {
		t.Fatalf("error %q names a zone-1 frame; want the zone-0 one", first)
	}
}
