package experiments

import (
	"testing"

	"repro/internal/mem/addr"
)

// TestFiveLevelCellDeepensBothDimensions pins the depth extra-5level
// measures: a 5-level virtual cell must build 5-level tables for the
// guest process and for the host process backing the VM, so a walk
// over 4 KiB pages in both dimensions costs (5+1)x(5+1)-1 = 35
// references, against 24 at 4 levels.
func TestFiveLevelCellDeepensBothDimensions(t *testing.T) {
	for _, tc := range []struct{ levels, refs int }{{4, 24}, {5, 35}} {
		env, recycle, err := goldenParams().boot(simCell{
			workload: "pagerank", policy: PolicyCA, virtual: true, noTHP: true, levels: tc.levels,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := env.Proc.PT.Levels(); got != tc.levels {
			t.Errorf("levels %d: guest table is %d levels deep", tc.levels, got)
		}
		if got := env.VM.HostProc.PT.Levels(); got != tc.levels {
			t.Errorf("levels %d: host backing table is %d levels deep", tc.levels, got)
		}
		v, err := env.MMap(4 * addr.HugeSize)
		if err != nil {
			t.Fatal(err)
		}
		va := v.Start.Add(addr.HugeSize + 3*addr.PageSize)
		if err := env.Touch(va, true); err != nil {
			t.Fatal(err)
		}
		w := env.VM.Walk(env.Proc, va)
		if !w.OK {
			t.Fatalf("levels %d: touched page does not walk", tc.levels)
		}
		if w.Refs != tc.refs {
			t.Errorf("levels %d: nested walk takes %d references, want %d", tc.levels, w.Refs, tc.refs)
		}
		recycle()
	}
}
