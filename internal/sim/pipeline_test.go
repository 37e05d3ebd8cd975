package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hw/translation"
	"repro/internal/mem/addr"
	"repro/internal/osim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// perAccessRun is the reference Run is checked against: one goroutine
// that fills an accessBatch span from the stream, steps each access of
// it through step (one backend Lookup per access) before asking the
// stream for more, and traces each span as Run does.
func perAccessRun(t *testing.T, env *workloads.Env, s workloads.Stream, cfg Config) Result {
	t.Helper()
	m, err := newMachine(env, cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer m.be.Close()
	buf := make([]workloads.Access, accessBatch)
	for {
		n := 0
		for n < len(buf) {
			k := s.Fill(buf[n:])
			if k == 0 {
				break
			}
			n += k
		}
		if n == 0 {
			return m.finish()
		}
		start := m.tr.Start()
		for _, a := range buf[:n] {
			if err := m.step(a); err != nil {
				t.Fatal(err)
			}
		}
		if m.tr != nil {
			m.tr.EmitSpan(trace.EvSimBatch, start, uint64(n), m.res.Misses, m.res.Faults)
			m.env.TraceSample()
		}
	}
}

// TestGenerateAheadMatchesLockStep runs every workload through Run and
// through the lock-step, per-access reference, on the native and nested paged
// stacks with every scheme and on each alternate backend, at stream
// lengths that put block and span boundaries on both sides of the
// end: the two Results must be identical field for field.
func TestGenerateAheadMatchesLockStep(t *testing.T) {
	lengths := []uint64{0, 1, accessBatch - 1, blockLen, blockLen + 1, 30_001}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			native := nativeEnv(t, osim.CAPolicy{})
			virt := virtEnv(t, osim.CAPolicy{}, osim.CAPolicy{})
			for _, env := range []*workloads.Env{native, virt} {
				if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
					t.Fatal(err)
				}
			}
			cells := []struct {
				name string
				env  *workloads.Env
				cfg  Config
			}{
				{"native/paged", native, Config{EnableSchemes: true}},
				{"nested/paged", virt, Config{EnableSchemes: true}},
				{"nested/hashed", virt, Config{Backend: translation.BackendHashed}},
				{"nested/rmm", virt, Config{Backend: translation.BackendRMM}},
				{"nested/ds", virt, Config{Backend: translation.BackendDS}},
			}
			for _, c := range cells {
				for _, n := range lengths {
					want := perAccessRun(t, c.env, w.Stream(rand.New(rand.NewSource(2)), n), c.cfg)
					got, err := Run(c.env, w.Stream(rand.New(rand.NewSource(2)), n), c.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got != want || got.Accesses != n {
						t.Fatalf("%s, %d accesses: Run diverged from lock-step:\n%+v\n%+v", c.name, n, got, want)
					}
				}
			}
		})
	}
}

// faultingStream sweeps a populated region but puts an address outside
// every VMA at index bad, and counts its Fill calls.
type faultingStream struct {
	start, badVA addr.VirtAddr
	pages        uint64
	i, n, bad    uint64
	fills        atomic.Int64
}

func (s *faultingStream) Fill(buf []workloads.Access) int {
	s.fills.Add(1)
	k := 0
	for ; k < len(buf) && s.i < s.n; k++ {
		va := s.start.Add((s.i % s.pages) * addr.PageSize)
		if s.i == s.bad {
			va = s.badVA
		}
		buf[k] = workloads.Access{VA: va}
		s.i++
	}
	return k
}

// TestRunErrorLeaksNothing pins Run's shutdown on a step error raised
// inside the second block: Run returns the fault error unchanged, the
// producer never touches the stream again, and no goroutine outlives
// the call.
func TestRunErrorLeaksNothing(t *testing.T) {
	const pages = 64
	env := nativeEnv(t, osim.CAPolicy{})
	v, err := env.MMap(pages * addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Populate(v); err != nil {
		t.Fatal(err)
	}
	s := &faultingStream{start: v.Start, badVA: v.End.Add(1 << 30), pages: pages, n: 1 << 22, bad: 5000}
	before := runtime.NumGoroutine()
	_, err = Run(env, s, Config{})
	want := fmt.Sprintf("sim: fault at %v: %v", s.badVA, osim.ErrSegfault)
	if err == nil || err.Error() != want || !errors.Is(err, osim.ErrSegfault) {
		t.Fatalf("Run error = %v, want %q", err, want)
	}
	fills := s.fills.Load()
	// The producer may still be unwinding after its last send; poll
	// until the goroutine count settles. Once it has, no Fill can follow.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Run, %d before: the producer outlived Run", got, before)
	}
	if got := s.fills.Load(); got != fills {
		t.Fatalf("stream filled %d times after Run returned", got-fills)
	}
	if fills*blockLen >= int64(s.n) {
		t.Fatalf("stream drained to its end (%d fills): Run did not stop the producer", fills)
	}
}

// TestRunTraceCadence pins the trace spans of a traced Run: one
// EvSimBatch span and one counter row per accessBatch accesses, the
// last span holding the remainder, whatever the block size.
func TestRunTraceCadence(t *testing.T) {
	env := nativeEnv(t, osim.CAPolicy{})
	w := workloads.NewPageRank()
	if err := w.Setup(env, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	env.SetTracer(tr)
	if _, err := Run(env, w.Stream(rand.New(rand.NewSource(2)), 20_000), Config{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	var spans []uint64
	for _, e := range tr.Events() {
		if e.Kind == trace.EvSimBatch {
			spans = append(spans, e.A)
		}
	}
	if len(spans) != 20 {
		t.Fatalf("%d sim.batch spans, want 20", len(spans))
	}
	for i, n := range spans {
		want := uint64(accessBatch)
		if i == len(spans)-1 {
			want = 20_000 - 19*accessBatch
		}
		if n != want {
			t.Fatalf("span %d covers %d accesses, want %d", i, n, want)
		}
	}
	var csv bytes.Buffer
	if err := tr.WriteCounterCSV(&csv); err != nil {
		t.Fatal(err)
	}
	// Header, one row per span, and the final row.
	if rows := bytes.Count(csv.Bytes(), []byte("\n")); rows != 1+len(spans)+1 {
		t.Fatalf("counter CSV has %d lines, want %d", rows, 1+len(spans)+1)
	}
}
