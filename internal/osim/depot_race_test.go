package osim_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
)

// TestConcurrentKernelRecycle has goroutines build kernels over pooled
// machines, churn them (tenants with 2 MiB and 4 KiB leaves, CoW
// forks, exits, page-cache files read, mapped, and dropped whether
// mapped or not), audit them
// and recycle them, round after round, so every kernel fills its
// tables and cache from nodes and slot arrays the others left in the
// shared depots. Under -race it checks the depots are safe to share;
// the audits check that nothing drawn from them carries state of its
// last kernel.
func TestConcurrentKernelRecycle(t *testing.T) {
	const workers, rounds = 4, 6
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for r := 0; r < rounds && errs[w] == nil; r++ {
				errs[w] = churnAndRecycle(rng)
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}

// churnAndRecycle runs one kernel's life: 60 random churn operations,
// an audit, and Recycle with some tenants and files still live.
func churnAndRecycle(rng *rand.Rand) error {
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{32 * addr.MaxOrderPages}})
	k := osim.NewKernel(m, osim.DefaultPolicy{})
	var procs []*osim.Process
	var files []*osim.File
	for op := 0; op < 60; op++ {
		switch roll := rng.Intn(10); {
		case roll < 4 || len(procs) == 0:
			k.THPEnabled = rng.Intn(2) == 0
			p := k.NewProcess(0)
			v, err := p.MMap(uint64(1+rng.Intn(1024)) * addr.PageSize)
			if err != nil {
				return err
			}
			for off := uint64(0); off < v.Size(); off += addr.PageSize * uint64(1+rng.Intn(4)) {
				if _, err := p.Touch(v.Start.Add(off), true); err != nil {
					return err
				}
			}
			procs = append(procs, p)
		case roll < 5:
			procs = append(procs, procs[rng.Intn(len(procs))].Fork())
		case roll < 7:
			i := rng.Intn(len(procs))
			procs[i].Exit()
			procs = append(procs[:i], procs[i+1:]...)
		case roll < 8:
			f := k.Cache.CreateFile(uint64(16+rng.Intn(512)) * addr.PageSize)
			if err := k.Cache.Read(f, 0, f.Bytes/2); err != nil {
				return err
			}
			files = append(files, f)
		case roll < 9:
			// A mapped file may be dropped later, while still mapped:
			// its frames are then freed when the last mapping goes.
			f := k.Cache.CreateFile(uint64(16+rng.Intn(512)) * addr.PageSize)
			p := procs[rng.Intn(len(procs))]
			v, err := p.MMapFile(f, 0, f.Bytes)
			if err != nil {
				return err
			}
			for off := uint64(0); off < v.Size(); off += 3 * addr.PageSize {
				if _, err := p.Touch(v.Start.Add(off), false); err != nil {
					return err
				}
			}
			files = append(files, f)
		default:
			if len(files) > 0 {
				i := rng.Intn(len(files))
				k.Cache.DropFile(files[i])
				files = append(files[:i], files[i+1:]...)
			}
		}
	}
	if err := check.Audit(k, nil); err != nil {
		return fmt.Errorf("audit before recycle: %w", err)
	}
	k.Recycle()
	return nil
}
