package osim

// HoldsSlots reports whether f holds a page-slot array, for the
// external tests that check the cache releases it.
func (f *File) HoldsSlots() bool { return f.pages != nil }
