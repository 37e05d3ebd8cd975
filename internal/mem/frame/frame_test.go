package frame

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/mem/addr"
)

func TestNewTableStartsReserved(t *testing.T) {
	tab := NewTable(0, 128)
	if tab.Len() != 128 {
		t.Fatalf("Len = %d, want 128", tab.Len())
	}
	if got := tab.CountState(Reserved); got != 128 {
		t.Fatalf("reserved = %d, want 128", got)
	}
	f := tab.Get(0)
	if f.BuddyOrder != -1 || f.AllocOrder != -1 {
		t.Fatal("orders should start at -1")
	}
}

// TestFrameRecordIs8Bytes pins the packed record size: boot fills and
// audit passes stream the whole table, so every byte of the record is
// paid once per physical page.
func TestFrameRecordIs8Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Frame{}); n != 8 {
		t.Fatalf("sizeof(Frame) = %d, want 8", n)
	}
}

func TestContainsAndBase(t *testing.T) {
	tab := NewTable(100, 50)
	if tab.Base() != 100 {
		t.Fatalf("Base = %d", tab.Base())
	}
	if tab.Contains(99) || !tab.Contains(100) || !tab.Contains(149) || tab.Contains(150) {
		t.Fatal("Contains boundaries wrong")
	}
}

func TestGetPanicsOutOfRange(t *testing.T) {
	tab := NewTable(0, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range PFN")
		}
	}()
	tab.Get(4)
}

func TestIsFreeAndRangeFree(t *testing.T) {
	tab := NewTable(0, 16)
	for i := addr.PFN(0); i < 16; i++ {
		tab.Get(i).State = Free
	}
	if !tab.RangeFree(0, 16) {
		t.Fatal("all frames free, RangeFree false")
	}
	tab.Get(7).State = Allocated
	if tab.IsFree(7) {
		t.Fatal("frame 7 allocated but IsFree true")
	}
	if tab.RangeFree(0, 16) {
		t.Fatal("RangeFree should see allocated frame 7")
	}
	if !tab.RangeFree(0, 7) || !tab.RangeFree(8, 8) {
		t.Fatal("sub-ranges around 7 should be free")
	}
	// Ranges that fall off the table are not free.
	if tab.RangeFree(10, 100) {
		t.Fatal("out-of-range RangeFree should be false")
	}
	if tab.IsFree(99) {
		t.Fatal("out-of-range IsFree should be false")
	}
}

func TestStateString(t *testing.T) {
	if Free.String() != "free" || Allocated.String() != "allocated" || Reserved.String() != "reserved" {
		t.Fatal("State strings wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should still stringify")
	}
}

func TestCountState(t *testing.T) {
	tab := NewTable(0, 10)
	for i := addr.PFN(0); i < 4; i++ {
		tab.Get(i).State = Free
	}
	for i := addr.PFN(4); i < 7; i++ {
		tab.Get(i).State = Allocated
	}
	if tab.CountState(Free) != 4 || tab.CountState(Allocated) != 3 || tab.CountState(Reserved) != 3 {
		t.Fatal("CountState wrong")
	}
}

// foldFields is Fold written field by field.
func foldFields(fw *[64]Frame) (or, and Frame) {
	and = Frame{State: ^State(0), BuddyOrder: -1, AllocOrder: -1, MapCount: -1}
	for _, f := range fw {
		or.State |= f.State
		or.BuddyOrder |= f.BuddyOrder
		or.AllocOrder |= f.AllocOrder
		or.MapCount |= f.MapCount
		and.State &= f.State
		and.BuddyOrder &= f.BuddyOrder
		and.AllocOrder &= f.AllocOrder
		and.MapCount &= f.MapCount
	}
	return or, and
}

// TestFoldMatchesFieldwise checks Fold against field-wise OR and AND
// over random words whose records set every field of the record —
// every state, buddy and allocation orders -1 to 10, and map counts
// from negative to large — and over uniform words: all
// Free, all Allocated, and one record differing from the rest.
func TestFoldMatchesFieldwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mapCounts := []int32{0, 1, 2, -1, -2, 511, 1 << 20, math.MaxInt32, math.MinInt32}
	random := func() Frame {
		f := Frame{
			State:      State(rng.Intn(3)),
			BuddyOrder: int8(rng.Intn(12) - 1),
			AllocOrder: int8(rng.Intn(12) - 1),
			MapCount:   mapCounts[rng.Intn(len(mapCounts))],
		}
		if rng.Intn(4) == 0 {
			f.MapCount = int32(rng.Uint32())
		}
		return f
	}
	check := func(name string, fw *[64]Frame) {
		t.Helper()
		or, and := Fold(fw)
		wantOr, wantAnd := foldFields(fw)
		if or != wantOr || and != wantAnd {
			t.Fatalf("%s: Fold = %+v, %+v; field-wise %+v, %+v", name, or, and, wantOr, wantAnd)
		}
	}
	var fw [64]Frame
	for round := 0; round < 2000; round++ {
		for i := range fw {
			fw[i] = random()
		}
		check("random", &fw)
	}
	for _, f := range []Frame{
		{State: Free, BuddyOrder: -1, AllocOrder: -1},
		{State: Free, BuddyOrder: 10, AllocOrder: -1},
		{State: Allocated, BuddyOrder: -1, AllocOrder: 0, MapCount: 1},
		{State: Allocated, BuddyOrder: -1, AllocOrder: 9, MapCount: 0},
	} {
		Fill(fw[:], f)
		check("uniform", &fw)
		if or, and := Fold(&fw); or != f || and != f {
			t.Fatalf("uniform %+v folds to %+v, %+v", f, or, and)
		}
		for k := 0; k < 64; k += 21 {
			Fill(fw[:], f)
			fw[k] = random()
			check("one differs", &fw)
		}
	}
}
