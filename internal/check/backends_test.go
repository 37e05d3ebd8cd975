package check

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hw/translation"
)

// runDiffer drives nops random ops (the same weighted stream
// Machine.Run uses) through a BackendDiffer and returns it.
func runDiffer(t *testing.T, cfg Config, nops int, names ...string) *BackendDiffer {
	t.Helper()
	d, err := NewBackendDiffer(cfg, names...)
	if err != nil {
		t.Fatal(err)
	}
	rr := rand.New(rand.NewSource(int64(cfg.Seed)))
	for i := 0; i < nops; i++ {
		op := RandomOp(rr)
		if err := d.Step(op); err != nil {
			t.Fatalf("op %d (%s A=%#x B=%#x C=%#x): %v", i, op.Kind, op.A, op.B, op.C, err)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBackendDifferential is the cross-backend differential net: every
// backend rides the same 10k-op machine run (all four attached to one
// machine, so each backend sees every op) under two seeds, native
// mode, with daemons supplying promotions and migrations. Every op is
// followed by Resolve-vs-oracle and protocol-drive cross-checks; the
// vacuity asserts make sure the probe machinery actually ran.
func TestBackendDifferential(t *testing.T) {
	const nops = 10_000
	for _, seed := range []uint64{1, 2} {
		cfg := Config{Policy: PolicyCA, Daemons: true, Seed: seed, CheckEvery: 512}
		d := runDiffer(t, cfg, nops)
		if d.m.Stats.Ops != nops {
			t.Fatalf("seed %d: ran %d ops, want %d", seed, d.m.Stats.Ops, nops)
		}
		if min := uint64(nops); d.Probes < min || d.Drives < min || d.RunDrives < min {
			t.Fatalf("seed %d: only %d probes / %d drives / %d LookupRun misses — differ barely exercised",
				seed, d.Probes, d.Drives, d.RunDrives)
		}
		for _, s := range d.backends {
			if c := s.be.Counters(); c.Misses == 0 || c.Hits == 0 {
				t.Fatalf("seed %d: backend %s never exercised both paths: %+v", seed, s.be.Name(), c)
			}
		}
	}
}

// TestBackendDifferentialNested runs the same net inside a VM: backend
// translations are composed guest→host physical addresses, checked
// against the oracle's recorded 2D composition. Shorter stream — every
// nested op costs ~3x — but still two seeds across all backends.
func TestBackendDifferentialNested(t *testing.T) {
	for _, seed := range []uint64{3, 4} {
		cfg := Config{Nested: true, Policy: PolicyCA, Seed: seed, CheckEvery: 256}
		d := runDiffer(t, cfg, 2_000)
		if d.Probes == 0 || d.Drives == 0 {
			t.Fatalf("seed %d: nested differ vacuous", seed)
		}
	}
}

// TestBackendDifferCatchesStaleTranslations proves the net is not
// vacuous: with invalidation detached mid-run (DetachInvalidation —
// the backends stop hearing mapping-change events while the kernel
// keeps promoting, migrating, remapping and CoW-copying), every
// derived-state backend must eventually serve a translation the oracle
// disproves, and the differ must report it. The paged backend carries
// no derived state — every miss walks the live tables — so it has
// nothing to go stale and is left out.
func TestBackendDifferCatchesStaleTranslations(t *testing.T) {
	const (
		cleanOps = 500
		dirtyOps = 4_000
	)
	for _, name := range []string{translation.BackendHashed, translation.BackendRMM, translation.BackendDS} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Policy: PolicyCA, Daemons: true, Seed: 7, CheckEvery: 512}
			d, err := NewBackendDiffer(cfg, name)
			if err != nil {
				t.Fatal(err)
			}
			rr := rand.New(rand.NewSource(int64(cfg.Seed)))
			for i := 0; i < cleanOps; i++ {
				if err := d.Step(RandomOp(rr)); err != nil {
					t.Fatalf("clean op %d: %v", i, err)
				}
			}
			d.DetachInvalidation()
			for i := 0; i < dirtyOps; i++ {
				err := d.Step(RandomOp(rr))
				if err == nil {
					continue
				}
				if !strings.Contains(err.Error(), "backend "+name) {
					t.Fatalf("divergence blamed elsewhere: %v", err)
				}
				t.Logf("stale translation caught after %d detached ops: %v", i+1, err)
				return
			}
			t.Fatalf("%d ops with invalidation detached and the differ never diverged — net is vacuous", dirtyOps)
		})
	}
}
