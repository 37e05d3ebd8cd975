package osim

import "repro/internal/osim/vma"

// HoldsSlots reports whether f holds a page-slot array, for the
// external tests that check the cache releases it.
func (f *File) HoldsSlots() bool { return f.pages != nil }

// ForgetShells drops the kernel's free lists of exited processes and
// unmapped VMAs, so NewProcess and mmap build fresh objects: the fresh
// twin TestRecycledShellsMatchFresh compares recycled shells against.
func (k *Kernel) ForgetShells() { k.procFree, k.vmaFree = nil, vma.Pool{} }
