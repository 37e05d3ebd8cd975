package check

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/workloads"
)

// shardedFixture builds the sharded-campaign ownership shape directly:
// one two-zone machine, a parent kernel over the whole of it, and one
// shard kernel per zone view, each with a populated process.
func shardedFixture(t *testing.T) (*zone.Machine, []*osim.Kernel, []*workloads.Env) {
	t.Helper()
	m := zone.NewMachine(zone.Config{
		ZonePages: []uint64{8 * addr.MaxOrderPages, 8 * addr.MaxOrderPages},
	})
	parent := osim.NewKernel(m, osim.DefaultPolicy{})
	ks := []*osim.Kernel{parent}
	var envs []*workloads.Env
	for z := 0; z < 2; z++ {
		sk := osim.NewKernel(m.View(z), osim.DefaultPolicy{})
		ks = append(ks, sk)
		env := workloads.NewNativeEnv(sk, 0)
		v, err := env.MMap(64 << 12)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Populate(v); err != nil {
			t.Fatal(err)
		}
		envs = append(envs, env)
	}
	return m, ks, envs
}

// TestAuditKernelsCleanAcrossShards checks that a consistent machine
// whose software state is split across several kernels audits clean —
// the per-kernel gather must union processes and caches before the
// frame sweep, or every shard's pages look leaked to the others.
func TestAuditKernelsCleanAcrossShards(t *testing.T) {
	m, ks, _ := shardedFixture(t)
	if err := AuditKernels(m, ks, nil); err != nil {
		t.Fatalf("clean sharded machine failed audit: %v", err)
	}
	// A shard kernel also self-audits clean: its machine is the zone
	// view, so the frame sweep never crosses into zones it doesn't own.
	if err := Audit(ks[1], nil); err != nil {
		t.Fatalf("shard kernel failed to self-audit within its view: %v", err)
	}
}

// TestAuditKernelsDetectsLeak checks the sweep still bites with the
// union gather: a frame allocated behind every kernel's back is leaked.
func TestAuditKernelsDetectsLeak(t *testing.T) {
	m, ks, _ := shardedFixture(t)
	if _, err := m.AllocBlock(0, 0); err != nil {
		t.Fatal(err)
	}
	err := AuditKernels(m, ks, nil)
	if err == nil || !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("audit missed leaked frame: %v", err)
	}
}

// TestAuditKernelsDetectsCrossShardDrift corrupts one shard's RSS
// accounting and expects the multi-kernel audit to attribute it.
func TestAuditKernelsDetectsCrossShardDrift(t *testing.T) {
	m, ks, envs := shardedFixture(t)
	envs[1].Proc.RSSPages++
	if err := AuditKernels(m, ks, nil); err == nil {
		t.Fatal("audit missed RSS drift on a shard kernel")
	}
	envs[1].Proc.RSSPages--
	if err := AuditKernels(m, ks, nil); err != nil {
		t.Fatalf("fixture no longer clean after revert: %v", err)
	}
}

// TestAuditAccountsBootReserve checks that the audit takes a kernel's
// boot reservation from the kernel itself: after BootReserve(1) the
// machine audits clean with no pinned extents listed, the recorded
// extents are exactly the first MAX_ORDER block of each zone, and a
// frame allocated behind the kernel's back is still reported leaked.
func TestAuditAccountsBootReserve(t *testing.T) {
	m := zone.NewMachine(zone.Config{
		ZonePages: []uint64{4 * addr.MaxOrderPages, 4 * addr.MaxOrderPages},
	})
	k := osim.NewKernel(m, osim.DefaultPolicy{})
	if got := bootExtents(nil, k); len(got) != 0 {
		t.Fatalf("unreserved kernel has boot extents %v", got)
	}
	k.BootReserve(1)
	if err := Audit(k, nil); err != nil {
		t.Fatalf("booted kernel failed audit with pinned == nil: %v", err)
	}
	want := []Extent{
		{PFN: 0, Pages: addr.MaxOrderPages},
		{PFN: 4 * addr.MaxOrderPages, Pages: addr.MaxOrderPages},
	}
	if got := bootExtents(nil, k); !slices.Equal(got, want) {
		t.Fatalf("boot extents %v, want %v", got, want)
	}
	// A kernel over a zone view reserved nothing itself; the audit of
	// the union machine takes the parent's reservation.
	view := osim.NewKernel(m.View(1), osim.DefaultPolicy{})
	if got := bootExtents(nil, view); len(got) != 0 {
		t.Fatalf("view kernel has boot extents %v", got)
	}
	if err := AuditKernels(m, []*osim.Kernel{k, view}, nil); err != nil {
		t.Fatalf("parent+view audit: %v", err)
	}
	if _, err := m.AllocBlock(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := Audit(k, nil); err == nil || !strings.Contains(err.Error(), "leaked") {
		t.Fatalf("audit missed leaked frame next to the boot pins: %v", err)
	}
}
