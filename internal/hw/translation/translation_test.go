package translation

import (
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/virt"
	"repro/internal/workloads"
)

func nativeEnv(t testing.TB) *workloads.Env {
	t.Helper()
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{
		16 * addr.MaxOrderPages, 16 * addr.MaxOrderPages,
	}})
	k := osim.NewKernel(m, osim.CAPolicy{})
	return workloads.NewNativeEnv(k, 0)
}

func nestedEnv(t testing.TB) *workloads.Env {
	t.Helper()
	host := osim.NewKernel(zone.NewMachine(zone.Config{ZonePages: []uint64{
		32 * addr.MaxOrderPages,
	}}), osim.CAPolicy{})
	vm, err := virt.New(host, virt.Config{MemBytes: 64 << 20, GuestPolicy: osim.CAPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	return workloads.NewVirtEnv(vm, 0)
}

// frontOf returns the shared front a backend embeds.
func frontOf(t *testing.T, be Backend) *core {
	t.Helper()
	switch b := be.(type) {
	case *pagedBackend:
		return &b.core
	case *hashedBackend:
		return &b.core
	case *rmmBackend:
		return &b.core
	case *dsBackend:
		return &b.core
	}
	t.Fatalf("unknown backend type %T", be)
	return nil
}

// TestNewUnknownBackend pins New's registry and the shared front's
// defaults: every backend, native and nested, answers to its name and
// sits behind a 32-entry 4-way TLB by default, and a TLB geometry the
// TLB model cannot build is an error, not a panic.
func TestNewUnknownBackend(t *testing.T) {
	if _, err := New("no-such", nativeEnv(t), Config{}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	be, err := New("", nativeEnv(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	if be.Name() != BackendPaged {
		t.Fatalf("empty name resolved to %q, want paged", be.Name())
	}

	for _, tc := range []struct {
		kind string
		env  *workloads.Env
	}{{"native", nativeEnv(t)}, {"nested", nestedEnv(t)}} {
		kind, env := tc.kind, tc.env
		for _, name := range Names() {
			be, err := New(name, env, Config{})
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, name, err)
			}
			if be.Name() != name {
				t.Errorf("%s/%s: Name() = %q", kind, name, be.Name())
			}
			if tl := frontOf(t, be).tlb; tl.Entries() != 32 || tl.Ways() != 4 {
				t.Errorf("%s/%s: default TLB %d entries %d ways, want 32/4", kind, name, tl.Entries(), tl.Ways())
			}
			be.Close()
			for _, bad := range []Config{{TLBWays: 3}, {TLBEntries: -4}, {TLBEntries: -32, TLBWays: -4}} {
				if _, err := New(name, env, bad); err == nil {
					t.Errorf("%s/%s: bad geometry %+v accepted", kind, name, bad)
				}
			}
		}
	}
}

// TestDSFallbackAgreement is the Direct-Segments property: outside the
// segment's coverage the backend *is* the paged backend — Resolve must
// agree with a reference paged backend on ok, physical address, and
// cycle cost for every probe — while covered addresses translate to
// the same physical address by base+offset at zero cost. The layout
// forces all three probe classes (covered, mapped-but-uncovered,
// unmapped), and the second half unmaps the segment's backing VMA so
// agreement must also hold across the dirty/rebuild transition.
func TestDSFallbackAgreement(t *testing.T) {
	env := nativeEnv(t)
	env.Kernel.THPEnabled = false

	// VMA A: fully populated — under CA placement this yields one large
	// contiguous mapping, which becomes the segment. VMA B: every third
	// page touched, so its mappings stay small and uncovered.
	a, err := env.MMap(512 * addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Populate(a); err != nil {
		t.Fatal(err)
	}
	b, err := env.MMap(256 * addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 256; i += 3 {
		if err := env.Touch(b.Start.Add(i*addr.PageSize), true); err != nil {
			t.Fatal(err)
		}
	}

	dsBE, err := New(BackendDS, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dsBE.Close()
	pagedBE, err := New(BackendPaged, env, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pagedBE.Close()
	d := dsBE.(*dsBackend)

	var probes []addr.VirtAddr
	for i := uint64(0); i < 512; i += 7 {
		probes = append(probes, a.Start.Add(i*addr.PageSize))
	}
	for i := uint64(0); i < 256; i++ {
		probes = append(probes, b.Start.Add(i*addr.PageSize))
	}
	probes = append(probes, addr.VirtAddr(1)<<40)

	agree := func(stage string) (covered, uncoveredMapped int) {
		t.Helper()
		for _, va := range probes {
			dpa, dcost, dok := dsBE.Resolve(va)
			ppa, pcost, pok := pagedBE.Resolve(va)
			if !d.watch.dirty && d.seg.Covers(va) {
				if !dok || !pok {
					t.Fatalf("%s: covered %s not resolvable (ds ok=%v paged ok=%v)", stage, va, dok, pok)
				}
				if dpa != ppa {
					t.Fatalf("%s: covered %s: segment says %s, paged walk says %s", stage, va, dpa, ppa)
				}
				if dcost != 0 {
					t.Fatalf("%s: covered %s charged %v cycles, want 0", stage, va, dcost)
				}
				covered++
				continue
			}
			if dok != pok || dpa != ppa || dcost != pcost {
				t.Fatalf("%s: uncovered %s: ds (pa %s cost %v ok %v) != paged (pa %s cost %v ok %v)",
					stage, va, dpa, dcost, dok, ppa, pcost, pok)
			}
			if pok {
				uncoveredMapped++
			}
		}
		return covered, uncoveredMapped
	}

	covered, uncovered := agree("initial")
	if covered == 0 || uncovered == 0 {
		t.Fatalf("layout vacuous: %d covered, %d uncovered-mapped probes", covered, uncovered)
	}

	// Unmap the segment's backing VMA: the watch goes dirty, Resolve
	// must fall back to the live tables immediately, and the next
	// Translate rebuilds the segment over what remains.
	env.Proc.MUnmap(a)
	if !d.watch.dirty {
		t.Fatal("unmap did not dirty the segment watch")
	}
	agree("dirty")
	rebuilds := d.Rebuilds
	d.Translate(b.Start)
	if d.Rebuilds != rebuilds+1 {
		t.Fatalf("Translate after churn did not rebuild the segment (rebuilds %d)", d.Rebuilds)
	}
	if covered, _ := agree("rebuilt"); covered == 0 {
		t.Fatal("rebuilt segment covers nothing mapped")
	}
	for _, va := range probes[:8] {
		if d.seg.Covers(va) {
			t.Fatalf("rebuilt segment still covers unmapped %s", va)
		}
	}
}
