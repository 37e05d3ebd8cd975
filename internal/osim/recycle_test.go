package osim_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hw/translation"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/osim/daemon"
	"repro/internal/osim/pagetable"
	"repro/internal/osim/vma"
	"repro/internal/workloads"
)

// shellWorld is one CA kernel with Translation Ranger, churned so that
// every process and VMA it made has exited or been unmapped.
type shellWorld struct {
	k     *osim.Kernel
	d     *daemon.Ranger
	procs []*osim.Process // every process the churn made
	vmas  []*vma.VMA      // every VMA the churn made
}

// churnShells leaves every kind of per-shell state on processes and
// VMAs and then drops them all: CA offsets, touched bits, a file
// mapping, a 5-level and a 4-level table, a CoW fork with a broken
// share, Ranger's plans and watches, and a hashed backend subscribed
// to a table and never closed.
func churnShells(t *testing.T) *shellWorld {
	t.Helper()
	m := zone.NewMachine(zone.Config{ZonePages: []uint64{64 * addr.MaxOrderPages}})
	w := &shellWorld{k: osim.NewKernel(m, osim.CAPolicy{})}
	w.d = daemon.NewRanger(w.k)
	mmap := func(p *osim.Process, pages uint64) *vma.VMA {
		v, err := p.MMap(pages * addr.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		w.vmas = append(w.vmas, v)
		return v
	}
	touch := func(p *osim.Process, v *vma.VMA, first, n, stride uint64) {
		for pg := first; pg < first+n; pg += stride {
			if _, err := p.Touch(v.Start.Add(pg*addr.PageSize), true); err != nil {
				t.Fatal(err)
			}
		}
	}

	w.k.PageTableLevels = 5
	p1 := w.k.NewProcess(0)
	a := mmap(p1, 700)
	b := mmap(p1, 96)
	f := w.k.Cache.CreateFile(64 * addr.PageSize)
	fv, err := p1.MMapFile(f, 8*addr.PageSize, 32*addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	w.vmas = append(w.vmas, fv)
	touch(p1, a, 3, 600, 5)
	touch(p1, b, 0, 96, 1)
	touch(p1, fv, 0, 32, 3)
	env := &workloads.Env{Kernel: w.k, Proc: p1}
	if _, err := translation.New(translation.BackendHashed, env, translation.Config{}); err != nil {
		t.Fatal(err)
	}

	w.k.PageTableLevels = 4
	p2 := w.k.NewProcess(0)
	c := mmap(p2, 600)
	touch(p2, c, 0, 600, 2)
	child := p2.Fork()
	w.procs = append(w.procs, p1, p2, child)
	child.VMAs.Visit(func(v *vma.VMA) { w.vmas = append(w.vmas, v) })
	touch(child, child.VMAs.Find(c.Start), 10, 1, 1) // CoW fault
	planned := func() bool { return a.Plan != nil && b.Plan != nil && c.Plan != nil }
	for i := 0; i < 100 && !planned(); i++ {
		w.d.Epoch() // each epoch moves at most pagesPerEpoch pages
	}
	if !planned() {
		t.Fatal("Ranger did not plan every churn VMA")
	}

	p1.MUnmap(b)
	child.Exit()
	p1.Exit()
	p2.Exit()
	if n := len(w.k.Processes()); n != 0 {
		t.Fatalf("churn left %d live processes", n)
	}
	return w
}

// tenant is what each world does after the churn: a new process at the
// given table depth maps an anonymous VMA of the given size and faults
// in part of it, and maps a second VMA it faults in more sparsely.
func (w *shellWorld) tenant(t *testing.T, levels int, pages uint64) *osim.Process {
	t.Helper()
	w.k.PageTableLevels = levels
	p := w.k.NewProcess(0)
	for i, n := range []uint64{pages, 40} {
		v, err := p.MMap(n * addr.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		for pg := uint64(i); pg < n; pg += uint64(3 + i) {
			if _, err := p.Touch(v.Start.Add(pg*addr.PageSize), pg%2 == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p
}

// TestRecycledShellsMatchFresh pins the recycled-shell contract: a
// process, page table and VMAs that NewProcess and mmap build from an
// exited process's and unmapped VMAs' shells equal, field by field,
// the ones a kernel with the same history but no shells left builds
// from scratch; only slice capacities may differ. Two worlds run the
// same churn; the fresh one then forgets its shells. Each then starts
// the same two tenants, whose tables are 5 and 4 levels deep: the
// churn's last exits left a 4-level and a 5-level shell, so each
// recycled table changes depth. Exiting a process twice panics.
func TestRecycledShellsMatchFresh(t *testing.T) {
	recycled, fresh := churnShells(t), churnShells(t)
	fresh.k.ForgetShells()
	for _, tc := range []struct {
		levels int
		pages  uint64
	}{{5, 300}, {4, 900}} {
		rp := recycled.tenant(t, tc.levels, tc.pages)
		fp := fresh.tenant(t, tc.levels, tc.pages)
		if !slices.Contains(recycled.procs, rp) || slices.Contains(fresh.procs, fp) {
			t.Fatalf("%d-level tenant: the recycled world's process is not a shell, or the fresh world's is", tc.levels)
		}
		rp.VMAs.Visit(func(v *vma.VMA) {
			if !slices.Contains(recycled.vmas, v) {
				t.Errorf("%d-level tenant: VMA %v is not a recycled shell", tc.levels, v)
			}
		})
		fp.VMAs.Visit(func(v *vma.VMA) {
			if slices.Contains(fresh.vmas, v) {
				t.Errorf("%d-level tenant: fresh world's VMA %v is a recycled shell", tc.levels, v)
			}
		})
		if rp.PT.Levels() != tc.levels {
			t.Fatalf("recycled table has %d levels, want %d", rp.PT.Levels(), tc.levels)
		}
		sameShell(t, fmt.Sprintf("%d-level tenant", tc.levels), recycled.k, fresh.k, rp, fp)
	}

	p := recycled.k.Processes()[0]
	p.Exit()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a second Exit did not panic")
			}
		}()
		p.Exit()
	}()
	if q, r := recycled.k.NewProcess(0), recycled.k.NewProcess(0); q == r || (q != p && r != p) {
		t.Fatal("a second Exit pushed the shell twice, or not at all")
	}
}

// sameShell compares two processes field by field, following pointers
// (page-table nodes, VMAs, plans, observers) and ignoring slice
// capacity. A process's kernel and a table's node pool are compared
// by identity instead: each must be its own world's.
func sameShell(t *testing.T, what string, ka, kb *osim.Kernel, a, b *osim.Process) {
	t.Helper()
	c := shellCmp{
		seen:  map[[2]uintptr]bool{},
		pairs: map[reflect.Type][2]uintptr{reflect.TypeOf(ka): {reflect.ValueOf(ka).Pointer(), reflect.ValueOf(kb).Pointer()}},
	}
	c.walk(what, reflect.ValueOf(a), reflect.ValueOf(b))
	for _, d := range c.diffs[:min(len(c.diffs), 10)] {
		t.Error(d)
	}
}

type shellCmp struct {
	seen  map[[2]uintptr]bool
	pairs map[reflect.Type][2]uintptr // identity-compared pointer types
	diffs []string
}

var poolType = reflect.TypeOf((*pagetable.Pool)(nil))

func (c *shellCmp) diff(path string, a, b any) {
	c.diffs = append(c.diffs, fmt.Sprintf("%s: recycled %v, fresh %v", path, a, b))
}

func (c *shellCmp) walk(path string, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Pointer:
		pa, pb := a.Pointer(), b.Pointer()
		if (pa == 0) != (pb == 0) {
			c.diff(path, pa != 0, pb != 0)
			return
		}
		if pa == 0 {
			return
		}
		if a.Type() == poolType {
			// A table's pool is its kernel's; the first one seen fixes
			// the pair.
			if _, ok := c.pairs[poolType]; !ok {
				c.pairs[poolType] = [2]uintptr{pa, pb}
			}
		}
		if want, ok := c.pairs[a.Type()]; ok {
			if want != [2]uintptr{pa, pb} {
				c.diff(path, "a foreign "+a.Type().String(), "")
			}
			return
		}
		if c.seen[[2]uintptr{pa, pb}] {
			return
		}
		c.seen[[2]uintptr{pa, pb}] = true
		c.walk(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				c.diff(path, a.IsNil(), b.IsNil())
			}
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			c.diff(path, a.Elem().Type(), b.Elem().Type())
			return
		}
		c.walk(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			c.walk(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			c.diff(path+" length", a.Len(), b.Len())
			return
		}
		for i := range a.Len() {
			c.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			c.diff(path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			c.diff(path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			c.diff(path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			c.diff(path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			c.diff(path, a.String(), b.String())
		}
	default:
		c.diff(path, "an uncompared kind "+a.Kind().String(), "")
	}
}
