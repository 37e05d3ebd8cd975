package osim_test

import (
	"testing"

	"repro/internal/aging"
	"repro/internal/core"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/workloads"
)

// TestCampaignReleasesEvictedFiles runs a 3600-step aging campaign of
// the figAging shape (16 MiB dataset files every five steps, two
// zone-owning shards) and then checks every file it ever created: a
// file holds a slot array exactly when it has cached pages, and
// VisitFiles visits exactly those files, in ascending ID order, whose
// cached pages sum to ResidentPages. Before the cache released a
// dropped file's slots, every file created stayed at 32 KiB.
func TestCampaignReleasesEvictedFiles(t *testing.T) {
	const policy = "ranger"
	sys, err := core.NewNativeSystem(core.Config{ZonesMiB: []int{192, 192}, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	cfg := aging.Config{
		Seed:              1,
		Steps:             3600,
		SnapshotEvery:     100,
		AuditEvery:        -1,
		MaxTenants:        6,
		MaxFootprintPages: 4096,
		FilePages:         4096,
		CacheChurnEvery:   5,
		Shards:            2,
		NewShardKernel: func(view *zone.Machine, _ int) (*osim.Kernel, []workloads.Daemon) {
			k, ds, err := core.NewKernel(view, policy)
			if err != nil {
				panic(err)
			}
			return k, ds
		},
	}
	if _, err := aging.New(sys.Kernel, sys.Daemons, cfg).Run(); err != nil {
		t.Fatal(err)
	}

	c := sys.Kernel.Cache
	var resident []int
	for id := 1; c.File(id) != nil; id++ {
		f := c.File(id)
		if f.HoldsSlots() != (f.CachedPages() != 0) {
			t.Fatalf("file %d: %d cached pages, holds slots %v", id, f.CachedPages(), f.HoldsSlots())
		}
		if f.CachedPages() != 0 {
			resident = append(resident, id)
		}
	}
	if want := 3600 / 5; c.File(want) == nil || c.File(want+1) != nil {
		t.Fatalf("campaign did not create exactly %d files", want)
	}
	if len(resident) == 0 {
		t.Fatal("no file is resident at the end of the campaign")
	}
	var visited int
	var pages uint64
	c.VisitFiles(func(slots []addr.PFN) {
		if visited < len(resident) {
			if f := c.File(resident[visited]); uint64(len(slots)) != f.Pages() {
				t.Errorf("visit %d: %d slots, want file %d's %d", visited, len(slots), f.ID, f.Pages())
			}
		}
		visited++
		for _, v := range slots {
			if v != 0 {
				pages++
			}
		}
	})
	if visited != len(resident) || pages != c.ResidentPages {
		t.Fatalf("VisitFiles saw %d files and %d pages; %d files are resident holding %d pages", visited, pages, len(resident), c.ResidentPages)
	}
}
