package tracein

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/trace"
)

// TestDifferentialReplay is the replay net's anchor: one synthesized
// trace drains through the real sharded machine at several shard
// counts — whole-machine audit at drain, byte-identical trajectories
// (digest) for jobs=1 vs jobs=4 — and through check.Machine via the
// canonical Event→Op mapping, with the differential oracles
// cross-checking every op.
func TestDifferentialReplay(t *testing.T) {
	evs := Synth(SynthConfig{Seed: 1, Events: 6000, Tenants: 4})

	for _, tc := range []struct {
		shards  int
		policy  string
		daemons bool
	}{
		{shards: 1, policy: check.PolicyDefault},
		{shards: 2, policy: check.PolicyCA, daemons: true},
		{shards: 3, policy: check.PolicyEager},
	} {
		var digests []string
		var last Result
		for _, jobs := range []int{1, 4} {
			e, err := NewEngine(ReplayConfig{
				Shards: tc.shards, Jobs: jobs,
				Policy: tc.policy, Daemons: tc.daemons,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ReplayEvents(evs); err != nil {
				t.Fatalf("shards=%d jobs=%d: replay: %v", tc.shards, jobs, err)
			}
			if err := e.Audit(); err != nil {
				t.Fatalf("shards=%d jobs=%d: audit at drain: %v", tc.shards, jobs, err)
			}
			last = e.Result()
			digests = append(digests, last.Digest())
			e.Close()
		}
		if digests[0] != digests[1] {
			t.Fatalf("shards=%d: jobs=1 and jobs=4 trajectories diverge", tc.shards)
		}
		// Non-vacuity: the trace must actually have exercised the
		// machinery on every variant.
		if last.Events != uint64(len(evs)) {
			t.Fatalf("shards=%d: applied %d events, want %d", tc.shards, last.Events, len(evs))
		}
		if last.Faults == 0 || last.Accesses == 0 || last.Misses == 0 {
			t.Fatalf("shards=%d: vacuous replay: %+v", tc.shards, last)
		}
		if len(last.Rows) == 0 {
			t.Fatalf("shards=%d: no trajectory rows", tc.shards)
		}
	}

	// The same trace through the differential machine: per-op oracle
	// cross-checks plus its own audits (CheckEvery), one machine per
	// policy variant the replay ran.
	for _, policy := range []string{check.PolicyDefault, check.PolicyCA} {
		m, err := check.NewMachine(check.Config{Policy: policy, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ApplyOps(Ops(evs)); err != nil {
			t.Fatalf("policy=%s: check.Machine replay: %v", policy, err)
		}
		if err := m.CheckAll(); err != nil {
			t.Fatalf("policy=%s: final check: %v", policy, err)
		}
		if m.Stats.Ops != len(evs) {
			t.Fatalf("policy=%s: machine applied %d ops, want %d", policy, m.Stats.Ops, len(evs))
		}
	}
}

// TestReplayDeterministicAcrossRuns pins run-to-run stability of the
// digest (fresh engine, same trace, same config).
func TestReplayDeterministicAcrossRuns(t *testing.T) {
	evs := Synth(SynthConfig{Seed: 5, Events: 3000, Tenants: 3})
	var digests []string
	for run := 0; run < 2; run++ {
		e, err := NewEngine(ReplayConfig{Shards: 2, Jobs: 2, Policy: check.PolicyCA})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ReplayEvents(evs); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, e.Result().Digest())
		e.Close()
	}
	if digests[0] != digests[1] {
		t.Fatal("same trace, same config, different digest across runs")
	}
}

// TestReplayFreesExitedTenants pins that a shard's tenant table holds
// only live tenants: slots are freed on exit, so a stream of many
// short-lived distinct tenant IDs cannot grow it without bound.
func TestReplayFreesExitedTenants(t *testing.T) {
	const tenants = 600
	var evs []Event
	live := map[uint32]bool{}
	for id := uint32(0); id < tenants; id++ {
		evs = append(evs, Event{Kind: KindMMap, Tenant: id, Arg0: uint64(id)})
		if id%7 == 0 {
			live[id] = true
			continue
		}
		evs = append(evs, Event{Kind: KindExit, Tenant: id})
	}
	e, err := NewEngine(ReplayConfig{Shards: 3, Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ReplayEvents(evs); err != nil {
		t.Fatal(err)
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range e.shards {
		for id, rt := range s.tenants {
			if !live[id] || rt.env == nil {
				t.Fatalf("shard %d holds exited tenant %d", s.idx, id)
			}
			if int(id)%len(e.shards) != s.idx {
				t.Fatalf("shard %d holds tenant %d of another shard", s.idx, id)
			}
		}
		total += len(s.tenants)
	}
	if total != len(live) {
		t.Fatalf("shards hold %d tenants, want the %d live ones", total, len(live))
	}
}

// TestReplayStreaming pins that decoding straight off the wire gives
// the same outcome as replaying a decoded slice.
func TestReplayStreaming(t *testing.T) {
	evs := Synth(SynthConfig{Seed: 8, Events: 2000, Tenants: 4})
	var buf strings.Builder
	if err := Encode(&buf, evs, true); err != nil {
		t.Fatal(err)
	}

	e1, err := NewEngine(ReplayConfig{Shards: 2, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.ReplayEvents(evs); err != nil {
		t.Fatal(err)
	}
	want := e1.Result().Digest()
	e1.Close()

	d, err := NewDecoder(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(ReplayConfig{Shards: 2, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Replay(d); err != nil {
		t.Fatal(err)
	}
	if got := e2.Result().Digest(); got != want {
		t.Fatalf("streamed replay digest %s, want %s", got, want)
	}
	if err := e2.Audit(); err != nil {
		t.Fatal(err)
	}
	e2.Close()
}

// TestAuditCatchesCorruption keeps the drain-then-audit gate honest:
// a deliberately damaged frame refcount must fail the audit.
func TestAuditCatchesCorruption(t *testing.T) {
	e, err := NewEngine(ReplayConfig{Shards: 2, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ReplayEvents(Synth(SynthConfig{Seed: 2, Events: 500, Tenants: 2})); err != nil {
		t.Fatal(err)
	}
	if err := e.Audit(); err != nil {
		t.Fatalf("clean audit failed: %v", err)
	}
	if !e.CorruptForTest() {
		t.Fatal("no mapped frame to corrupt")
	}
	if err := e.Audit(); err == nil {
		t.Fatal("audit passed on a corrupted frame table")
	}
}

// TestReplayStop pins the drain contract: Stop ends the replay without
// error mid-stream and the machine still audits clean.
func TestReplayStop(t *testing.T) {
	e, err := NewEngine(ReplayConfig{Shards: 2, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Stop()
	if err := e.ReplayEvents(Synth(SynthConfig{Seed: 4, Events: 1000})); err != nil {
		t.Fatal(err)
	}
	if got := e.Result().Events; got != 0 {
		t.Fatalf("stopped replay applied %d events", got)
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayGauges pins the tracer integration: EvReplayBatch spans
// and replay.* gauges appear, and attaching a tracer does not change
// the digest.
func TestReplayGauges(t *testing.T) {
	evs := Synth(SynthConfig{Seed: 6, Events: 3000, Tenants: 4})
	bare, err := NewEngine(ReplayConfig{Shards: 2, Jobs: 1, SampleEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.ReplayEvents(evs); err != nil {
		t.Fatal(err)
	}
	want := bare.Result().Digest()
	bare.Close()

	tr := trace.New()
	e, err := NewEngine(ReplayConfig{Shards: 2, Jobs: 1, SampleEvery: 256, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ReplayEvents(evs); err != nil {
		t.Fatal(err)
	}
	e.SampleGauges()
	if got := e.Result().Digest(); got != want {
		t.Fatal("tracer changed the replay digest")
	}
	if tr.Count(trace.EvReplayBatch) == 0 {
		t.Fatal("no EvReplayBatch spans emitted")
	}
	if v, ok := tr.GaugeValue("replay.events"); !ok || v != uint64(len(evs)) {
		t.Fatalf("replay.events gauge = %d,%v; want %d", v, ok, len(evs))
	}
}

// TestReplayBadPolicy pins config validation.
func TestReplayBadPolicy(t *testing.T) {
	if _, err := NewEngine(ReplayConfig{Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestReplayArbitraryEvents pins that the replay path tolerates
// arbitrary decodable events (clamping, skipping, OOM-counting) and
// still audits clean — the property FuzzTraceReplay explores.
func TestReplayArbitraryEvents(t *testing.T) {
	evs := randomEvents(rand.New(rand.NewSource(99)), 400)
	e, err := NewEngine(ReplayConfig{Shards: 2, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ReplayEvents(evs); err != nil {
		t.Fatal(err)
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
}
