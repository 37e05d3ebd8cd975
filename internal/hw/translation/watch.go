package translation

import (
	"repro/internal/mem/addr"
	"repro/internal/osim/pagetable"
	"repro/internal/workloads"
)

// mapWatch subscribes to the mapping-change events of an environment's
// translation table(s) — both dimensions in a VM — and latches a dirty
// flag. Backends whose derived state is a pure function of the current
// mappings (range table, segment) check the flag on the slow path and
// rebuild lazily: exact invalidation at rebuild-on-next-miss cost.
type mapWatch struct {
	guest, host *pagetable.Table // host nil when native
	dirty       bool
}

func watchTables(env *workloads.Env) *mapWatch {
	w := &mapWatch{}
	w.guest, w.host = env.Tables()
	w.guest.AddObserver(w)
	if w.host != nil {
		w.host.AddObserver(w)
	}
	return w
}

func (w *mapWatch) Mapped(va addr.VirtAddr, pages uint64)     { w.dirty = true }
func (w *mapWatch) Unmapped(va addr.VirtAddr, pages uint64)   { w.dirty = true }
func (w *mapWatch) Redirected(va addr.VirtAddr, pages uint64) { w.dirty = true }

func (w *mapWatch) close() {
	w.guest.RemoveObserver(w)
	if w.host != nil {
		w.host.RemoveObserver(w)
	}
}
