package ds

import (
	"testing"

	"repro/internal/mem/addr"
)

func TestSegmentCovers(t *testing.T) {
	base := addr.VirtAddr(0x10_0000_0000)
	off := addr.OffsetOf(base, 0x4000_0000)
	s := NewSegment(base, 1<<30, off)
	if !s.Covers(base) || s.Offset.Target(base) != 0x4000_0000 {
		t.Fatalf("base: covered %v, target %v", s.Covers(base), s.Offset.Target(base))
	}
	// Linear inside.
	in := base.Add(0x1234567)
	if !s.Covers(in) || s.Offset.Target(in) != 0x4000_0000+0x1234567 {
		t.Fatalf("interior: covered %v, target %v", s.Covers(in), s.Offset.Target(in))
	}
	// Limit exclusive; below base excluded.
	if s.Covers(base.Add(1 << 30)) {
		t.Fatal("limit should be exclusive")
	}
	if s.Covers(base - 1) {
		t.Fatal("below base should not be covered")
	}
}

func TestEmptySegmentCoversNothing(t *testing.T) {
	s := NewSegment(0, 0, 0)
	if s.Covers(0) || s.Covers(4096) {
		t.Fatal("empty segment covers an address")
	}
}
