package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestNativeSystemQuickPath(t *testing.T) {
	sys, err := NewNativeSystem(Config{Policy: "ca"})
	if err != nil {
		t.Fatal(err)
	}
	env := sys.NewEnv()
	w := workloads.NewPageRank()
	if err := Setup(env, w, 1); err != nil {
		t.Fatal(err)
	}
	rep := Contiguity(env)
	if rep.Maps99 > 5 {
		t.Fatalf("CA native maps99 = %d, want few", rep.Maps99)
	}
	if rep.Cov32 < 0.99 {
		t.Fatalf("cov32 = %f", rep.Cov32)
	}
	if rep.TotalPages == 0 || len(rep.Mappings) == 0 {
		t.Fatal("empty report")
	}
}

func TestNativeDefaultVsCA(t *testing.T) {
	maps := map[string]int{}
	for _, p := range []string{"default", "ca"} {
		sys, err := NewNativeSystem(Config{Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		env := sys.NewEnv()
		if err := Setup(env, workloads.NewPageRank(), 1); err != nil {
			t.Fatal(err)
		}
		maps[p] = Contiguity(env).Maps99
	}
	if maps["default"] < maps["ca"]*10 {
		t.Fatalf("default %d should need >>10x CA %d", maps["default"], maps["ca"])
	}
}

func TestVirtualSystemSimulate(t *testing.T) {
	sys, err := NewVirtualSystem(VirtualConfig{Host: Config{Policy: "ca"}})
	if err != nil {
		t.Fatal(err)
	}
	env := sys.NewEnv()
	w := workloads.NewPageRank()
	if err := Setup(env, w, 1); err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(env, w, 2, 200_000, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineOverhead <= 0 {
		t.Fatal("no baseline overhead measured")
	}
	if rep.SpotOverhead >= rep.BaselineOverhead/3 {
		t.Fatalf("SpOT %f should slash baseline %f", rep.SpotOverhead, rep.BaselineOverhead)
	}
	if rep.Correct < 0.9 {
		t.Fatalf("correct = %f", rep.Correct)
	}
	// 2D contiguity report works too.
	if Contiguity(env).Maps99 > 5 {
		t.Fatal("2D contiguity unexpectedly fragmented")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewNativeSystem(Config{Policy: "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := NewVirtualSystem(VirtualConfig{Host: Config{Policy: "ca"}, GuestPolicy: "bogus"}); err == nil {
		t.Fatal("bogus guest policy accepted")
	}
	// Daemon policies construct natively.
	for _, p := range []string{"ingens", "ranger"} {
		sys, err := NewNativeSystem(Config{Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		if len(sys.Daemons) != 1 {
			t.Fatalf("%s daemons = %d", p, len(sys.Daemons))
		}
	}
	// A VM polls no daemons, so a daemon policy is refused in either
	// dimension rather than silently dropping its daemon.
	for _, c := range []VirtualConfig{
		{Host: Config{Policy: "ingens"}},
		{Host: Config{Policy: "ranger"}},
		{Host: Config{Policy: "ingens"}, GuestPolicy: "ca"},
		{Host: Config{Policy: "ca"}, GuestPolicy: "ranger"},
	} {
		_, err := NewVirtualSystem(c)
		if err == nil || !strings.Contains(err.Error(), "a VM runs no daemons") {
			t.Fatalf("%+v: err = %v, want the no-daemons error", c, err)
		}
	}
}

// TestPolicyTable pins every row of the configuration table — the
// placement each name builds ("thp" the same as "default"), the
// free-list order its machine gets, and the daemon it runs — and that
// unknown names are refused.
func TestPolicyTable(t *testing.T) {
	for _, tc := range []struct {
		name, placement string
		sorted          bool
		daemon          string // "" for none
	}{
		{"", "default", false, ""},
		{"default", "default", false, ""},
		{"thp", "default", false, ""},
		{"ca", "ca", true, ""},
		{"eager", "eager", false, ""},
		{"ideal", "ideal", false, ""},
		{"ingens", "default", false, "*daemon.Ingens"},
		{"ranger", "default", false, "*daemon.Ranger"},
	} {
		sys, err := NewNativeSystem(Config{ZonesMiB: []int{64, 64}, Policy: tc.name})
		if err != nil {
			t.Fatalf("%q: %v", tc.name, err)
		}
		k := sys.Kernel
		if got := k.Policy.Name(); got != tc.placement {
			t.Errorf("%q: placement %q, want %q", tc.name, got, tc.placement)
		}
		for _, z := range k.Machine.Zones {
			if z.Buddy.Sorted() != tc.sorted {
				t.Errorf("%q: zone %d sorted = %v, want %v", tc.name, z.ID, z.Buddy.Sorted(), tc.sorted)
			}
		}
		var daemons, want []string
		for _, d := range sys.Daemons {
			daemons = append(daemons, fmt.Sprintf("%T", d))
		}
		if tc.daemon != "" {
			want = []string{tc.daemon}
		}
		if !slices.Equal(daemons, want) {
			t.Errorf("%q: daemons %v, want %v", tc.name, daemons, want)
		}
		if k.BootBlocks() != bootReserveBlocks {
			t.Errorf("%q: %d boot blocks, want %d", tc.name, k.BootBlocks(), bootReserveBlocks)
		}

		pl, sorted, err := Placement(tc.name)
		if tc.daemon != "" {
			if err == nil {
				t.Errorf("Placement(%q) accepted a daemon policy", tc.name)
			}
			continue
		}
		if err != nil || pl.Name() != tc.placement || sorted != tc.sorted {
			t.Errorf("Placement(%q) = %v, %v, %v; want %s, %v", tc.name, pl, sorted, err, tc.placement, tc.sorted)
		}
	}
	if _, _, err := Placement("bogus"); err == nil {
		t.Error("Placement accepted an unknown name")
	}
	if _, _, err := NewKernel(nil, "bogus"); err == nil {
		t.Error("NewKernel accepted an unknown name")
	}

	// The table builds a fresh IdealPolicy per kernel: its plans live
	// behind a pointer, so kernels sharing one instance would steer
	// each other's placements.
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{4 * addr.MaxOrderPages}})
	a, _, err := NewKernel(m, "ideal")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := NewKernel(m, "ideal")
	if err != nil {
		t.Fatal(err)
	}
	if a.Policy == b.Policy {
		t.Error("two ideal kernels share one IdealPolicy plan state")
	}
}

func TestCustomZones(t *testing.T) {
	sys, err := NewNativeSystem(Config{ZonesMiB: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Kernel.Machine.Zones) != 1 {
		t.Fatal("zone count")
	}
	if sys.Kernel.Machine.TotalPages() != 64<<20/4096 {
		t.Fatalf("total pages = %d", sys.Kernel.Machine.TotalPages())
	}
}
