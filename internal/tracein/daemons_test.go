package tracein

import (
	"testing"

	"repro/internal/check"
)

// daemonsDigest is the replay digest of daemonsSynth under
// daemonsReplay: Ingens and Translation Ranger on every shard kernel.
// No golden replays with daemons, so this pins what they do to a
// replay; any change to their epochs, plans or watermarks trips it.
const daemonsDigest = "1def486da967bf19382173fe0b46025e7c5d71cf874d454282134382ad4656e7"

var daemonsSynth = SynthConfig{Seed: 7, Events: 10000, Tenants: 4}

// plannedUnmaps wraps a source replayed at one job, so each event is
// applied before the next is pulled, and counts the munmap events
// about to drop a VMA that carries a Ranger plan while its tenant
// lives.
type plannedUnmaps struct {
	src Source
	e   *Engine
	n   int
}

func (s *plannedUnmaps) Next(ev *Event) error {
	if err := s.src.Next(ev); err != nil {
		return err
	}
	if ev.Kind != KindMUnmap {
		return nil
	}
	// The VMA apply's KindMUnmap case picks.
	if t := s.e.shards[int(ev.Tenant)%len(s.e.shards)].tenants[ev.Tenant]; t != nil && len(t.vmas) > 0 {
		if t.vmas[ev.Arg0%uint64(len(t.vmas))].Plan != nil {
			s.n++
		}
	}
	return nil
}

// TestDaemonsReplayDigest pins the digest of a replay with daemons at
// one and at two jobs, and checks that the trace exercised what the
// digest is meant to cover: Ranger migrated pages, and planned VMAs
// were unmapped from live tenants.
func TestDaemonsReplayDigest(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		e, err := NewEngine(ReplayConfig{Shards: 2, Jobs: jobs, Policy: check.PolicyCA, Daemons: true})
		if err != nil {
			t.Fatal(err)
		}
		// At two jobs the shards apply concurrently with the feed, so
		// only the one-job replay is inspected.
		src := &plannedUnmaps{src: NewSynth(daemonsSynth), e: e}
		var in Source = src
		if jobs > 1 {
			in = NewSynth(daemonsSynth)
		}
		if err := e.Replay(in); err != nil {
			t.Fatal(err)
		}
		if err := e.Audit(); err != nil {
			t.Fatalf("jobs=%d: audit at drain: %v", jobs, err)
		}
		if got := e.Result().Digest(); got != daemonsDigest {
			t.Errorf("jobs=%d: digest %s, want %s", jobs, got, daemonsDigest)
		}
		if jobs == 1 {
			var migrations uint64
			for _, s := range e.shards {
				migrations += s.Kernel.Stats.Migrations
			}
			t.Logf("%d migrations, %d planned VMAs unmapped from live tenants", migrations, src.n)
			if migrations == 0 {
				t.Error("Ranger migrated nothing")
			}
			if src.n == 0 {
				t.Error("no planned VMA was unmapped while its tenant lived")
			}
		}
		e.Close()
	}
}
