package contigmap

import (
	"testing"

	"repro/internal/mem/addr"
)

func TestFirstFitRestartsAtZero(t *testing.T) {
	m, _ := newMapped(t, 4)
	m.SetFirstFit(true)
	// Successive equal requests keep returning the same start: no
	// deferral — the behaviour the next-fit rover exists to avoid.
	s1, _, _ := m.FindFit(addr.MaxOrderPages)
	s2, _, _ := m.FindFit(addr.MaxOrderPages)
	if s1 != 0 || s2 != 0 {
		t.Fatalf("first-fit placements = %d, %d; want both 0", s1, s2)
	}
	// Switching back restores next-fit deferral.
	m.SetFirstFit(false)
	s3, _, _ := m.FindFit(addr.MaxOrderPages)
	if s3 == 0 {
		t.Fatalf("next-fit after first-fit should advance, got %d", s3)
	}
}
