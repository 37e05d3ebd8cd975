// Churn lifecycle regression tests: the bugs here were flushed out by
// the aging campaigns (internal/aging), which arrive/touch/exit tenants
// for long logical horizons. Both tests fail on the pre-fix code.
package daemon_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/osim/pagetable"
)

func churnKernel(blocks uint64) *osim.Kernel {
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{blocks * addr.MaxOrderPages}})
	return osim.NewKernel(m, osim.DefaultPolicy{})
}

// TestIngensPromoteSkipsCoWRegions is the fork-then-promote pin: a
// fully-populated huge region downgraded to CoW by Fork must NOT be
// promoted (khugepaged skips shared pages the same way), because
// promotion maps the copy Writable and would silently break the
// sharing with no CoW fault accounting. Once write faults privatise
// the parent's region, promotion must proceed again.
func TestIngensPromoteSkipsCoWRegions(t *testing.T) {
	k := churnKernel(16)
	ing := daemon.NewIngens(k) // disables THP: population maps 4K pages

	parent := k.NewProcess(0)
	v, err := parent.MMap(addr.HugeSize)
	if err != nil {
		t.Fatal(err)
	}
	for pg := uint64(0); pg < addr.HugePages; pg++ {
		if _, err := parent.Touch(v.Start.Add(pg*addr.PageSize), true); err != nil {
			t.Fatal(err)
		}
	}
	child := parent.Fork()

	ing.Scan()
	if n := k.Stats.Promotions; n != 0 {
		t.Fatalf("scan promoted %d CoW-shared regions, want 0", n)
	}
	pte, pages, ok := parent.PT.Lookup(v.Start)
	if !ok || pages != 1 {
		t.Fatalf("parent mapping rewritten: pages=%d ok=%v, want 4K leaf", pages, ok)
	}
	if !pte.Flags.Has(pagetable.CoW) || pte.Flags.Has(pagetable.Writable) {
		t.Fatalf("parent flags %b lost CoW protection", pte.Flags)
	}

	// CoW semantics survive: the child's first write still faults.
	faulted, err := child.Touch(v.Start, true)
	if err != nil {
		t.Fatal(err)
	}
	if !faulted {
		t.Fatal("child write did not CoW-fault — sharing was broken")
	}
	if err := check.Audit(k, nil); err != nil {
		t.Fatalf("post-scan audit: %v", err)
	}

	// Privatise the parent's whole region; promotion must now happen.
	for pg := uint64(0); pg < addr.HugePages; pg++ {
		if _, err := parent.Touch(v.Start.Add(pg*addr.PageSize), true); err != nil {
			t.Fatal(err)
		}
	}
	ing.Scan()
	if n := k.Stats.Promotions; n != 1 {
		t.Fatalf("private region promoted %d times, want exactly 1", n)
	}
	if _, pages, ok := parent.PT.Lookup(v.Start); !ok || pages != addr.HugePages {
		t.Fatalf("parent region not huge after promotion: pages=%d", pages)
	}
	if err := check.Audit(k, nil); err != nil {
		t.Fatalf("post-promotion audit: %v", err)
	}
}

// TestNewProcessValidatesHomeZone pins the constructor-time check that
// replaced zonelist's silent clamp-to-zone-0 for bogus home zones.
func TestNewProcessValidatesHomeZone(t *testing.T) {
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{
		4 * addr.MaxOrderPages, 4 * addr.MaxOrderPages,
	}})
	k := osim.NewKernel(m, osim.DefaultPolicy{})
	for _, bad := range []int{-1, 2, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewProcess(%d) did not panic on a 2-zone machine", bad)
				}
			}()
			k.NewProcess(bad)
		}()
	}
	if p := k.NewProcess(1); p.HomeZone != 1 {
		t.Fatalf("valid home zone rejected: got %d", p.HomeZone)
	}
}
