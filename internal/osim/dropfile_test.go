package osim_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
)

// TestDropMappedFileFreesAtUnmap pins the teardown of a file dropped
// from the page cache while a process still maps it: DropFile releases
// the cache's reference, the mapping keeps the frames, and the unmap
// that drops the last reference frees them. Afterwards the machine
// passes the audit, with no frame allocated, unmapped and uncached, and
// every page the file took is free again. A second file, unmapped
// before it is dropped, covers the other order.
func TestDropMappedFileFreesAtUnmap(t *testing.T) {
	k := osim.NewKernel(zone.NewMachine(zone.Config{ZonePages: []uint64{16 * addr.MaxOrderPages}}), osim.DefaultPolicy{})
	p := k.NewProcess(0)
	free := k.Machine.FreePages()
	for _, dropFirst := range []bool{true, false} {
		f := k.Cache.CreateFile(40 * addr.PageSize)
		if err := k.Cache.Read(f, 0, f.Bytes/2); err != nil {
			t.Fatal(err)
		}
		v, err := p.MMapFile(f, 0, f.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		for off := uint64(0); off < v.Size(); off += 3 * addr.PageSize {
			if _, err := p.Touch(v.Start.Add(off), false); err != nil {
				t.Fatal(err)
			}
		}
		if k.Machine.FreePages() == free {
			t.Fatal("vacuous: the file took no frames")
		}
		if dropFirst {
			k.Cache.DropFile(f)
			if err := check.Audit(k, nil); err != nil {
				t.Fatalf("dropped while mapped: %v", err)
			}
			p.MUnmap(v)
		} else {
			p.MUnmap(v)
			k.Cache.DropFile(f)
		}
		if err := check.Audit(k, nil); err != nil {
			t.Fatalf("drop first %v: %v", dropFirst, err)
		}
		if got := k.Machine.FreePages(); got != free {
			t.Fatalf("drop first %v: %d free pages after unmap and drop, want %d", dropFirst, got, free)
		}
	}
}
