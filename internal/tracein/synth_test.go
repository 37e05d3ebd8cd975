package tracein

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSynthMatchesGoldenTrace pins the generator's event sequence: the
// committed golden trace was encoded from Synth(goldenSynth), so any
// change to the rng draws or their order shows up as a diff here.
func TestSynthMatchesGoldenTrace(t *testing.T) {
	wire, err := os.ReadFile(filepath.Join("testdata", "golden.trace"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if got := Synth(goldenSynth); !reflect.DeepEqual(got, want) {
		t.Fatal("Synth(goldenSynth) no longer reproduces the golden trace")
	}
}

// TestSynthesizerZeroAlloc pins that a warm Next allocates nothing, so
// a streamed synthetic input costs constant memory however long it is.
func TestSynthesizerZeroAlloc(t *testing.T) {
	s := NewSynth(SynthConfig{Seed: 1, Events: 1 << 30, Tenants: 4})
	var ev Event
	for i := 0; i < 1000; i++ {
		if err := s.Next(&ev); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.Next(&ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Synthesizer.Next allocates %.1f times per event, want 0", allocs)
	}
}

func TestSynthEmpty(t *testing.T) {
	var ev Event
	if err := NewSynth(SynthConfig{Seed: 1}).Next(&ev); !errors.Is(err, io.EOF) {
		t.Fatalf("Events 0: Next = %v, want io.EOF", err)
	}
	if evs := Synth(SynthConfig{Seed: 1}); len(evs) != 0 {
		t.Fatalf("Events 0: Synth returned %d events", len(evs))
	}
}

// TestSynthTenantBounds pins the tenant-space edges: a single tenant,
// and a request past MaxTenant+1 that withDefaults clamps.
func TestSynthTenantBounds(t *testing.T) {
	for _, tenants := range []int{1, MaxTenant + 5} {
		evs := Synth(SynthConfig{Seed: 3, Events: 200, Tenants: tenants})
		if len(evs) != 200 {
			t.Fatalf("tenants=%d: generated %d events, want 200", tenants, len(evs))
		}
		for _, ev := range evs {
			if ev.Tenant > MaxTenant || (tenants == 1 && ev.Tenant != 0) {
				t.Fatalf("tenants=%d: event for tenant %d", tenants, ev.Tenant)
			}
		}
	}
}
