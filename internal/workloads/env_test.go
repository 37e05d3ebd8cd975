package workloads

import (
	"reflect"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/metrics"
	"repro/internal/osim"
	"repro/internal/virt"
)

// TestEnvTablesAndMappings: Env.Tables and Env.Mappings answer with the
// process's own table and page-table extents natively, and with the
// VM's nested tables and composed 2D extents inside a VM.
func TestEnvTablesAndMappings(t *testing.T) {
	small := func() *zone.Machine {
		return zone.NewMachine(zone.Config{ZonePages: []uint64{16 * addr.MaxOrderPages}})
	}
	native := NewNativeEnv(osim.NewKernel(small(), osim.CAPolicy{}), 0)
	host := osim.NewKernel(small(), osim.CAPolicy{})
	host.BootReserve(1) // so host frames do not coincide with guest frames
	vm, err := virt.New(host, virt.Config{
		MemBytes:    32 << 20,
		GuestPolicy: osim.CAPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	nested := NewVirtEnv(vm, 0)

	for _, env := range []*Env{native, nested} {
		v, err := env.MMap(4 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := env.PopulatePrefix(v, 3<<20); err != nil {
			t.Fatal(err)
		}
	}

	if g, h := native.Tables(); g != native.Proc.PT || h != nil {
		t.Errorf("native Tables = (%p, %p), want (%p, nil)", g, h, native.Proc.PT)
	}
	wantG, wantH := vm.NestedTables(nested.Proc)
	if g, h := nested.Tables(); g != wantG || h != wantH {
		t.Errorf("nested Tables = (%p, %p), want (%p, %p)", g, h, wantG, wantH)
	}

	if reflect.DeepEqual(vm.Mappings2D(nested.Proc), metrics.FromPageTable(nested.Proc.PT)) {
		t.Fatal("layout vacuous: 2D extents equal the guest table's")
	}
	for _, tc := range []struct {
		name string
		got  []metrics.Mapping
		want []metrics.Mapping
	}{
		{"native", native.Mappings(), metrics.FromPageTable(native.Proc.PT)},
		{"nested", nested.Mappings(), vm.Mappings2D(nested.Proc)},
	} {
		if len(tc.want) == 0 {
			t.Fatalf("%s: no mappings after populate", tc.name)
		}
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s Mappings = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}
