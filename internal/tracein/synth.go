package tracein

import (
	"io"
	"math/rand"

	"repro/internal/aging"
)

// SynthConfig parameterizes the deterministic trace generator.
type SynthConfig struct {
	// Seed makes the trace fully deterministic.
	Seed int64
	// Events is the record count to generate.
	Events int
	// Tenants is the tenant ID space (default 4). Tenants arrive and
	// exit over the trace; IDs are reused across generations like real
	// serving slots.
	Tenants int
}

// synthZipfS and synthZipfV shape the tenant-popularity skew for
// steady-state events: a few hot tenants take most of the traffic, the
// tail stays warm.
const synthZipfS, synthZipfV = 1.2, 1

func (c SynthConfig) withDefaults() SynthConfig {
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Tenants > MaxTenant+1 {
		c.Tenants = MaxTenant + 1
	}
	return c
}

// Synthesizer generates a multi-tenant churn trace one event at a
// time, deterministic per config: a Source with the Decoder's Next
// shape, so a serving replay streams a synthetic input in constant
// memory. Tenant lifecycle follows the aging campaigns' fixed churn
// mix (aging.ChurnRoll: arrive 30 %, touch 50 %, exit 20 %, adjusted
// at the population bounds), so the serving traces age kernels the
// same way the fragmentation campaigns do; within a live tenant's
// steady state, event kinds follow a fixed weighted mix dominated by
// touches and translation bursts. Argument words are drawn small
// (16-bit) — consumers clamp them anyway, and small args keep the
// encoded stream around a dozen bytes per record. Next is
// allocation-free; not safe for concurrent use.
type Synthesizer struct {
	cfg       SynthConfig
	rng       *rand.Rand
	zipf      *rand.Zipf
	live      []bool
	liveCount int
	ts        uint64
	left      int // events still to generate
}

// NewSynth returns a generator for cfg's trace.
func NewSynth(cfg SynthConfig) *Synthesizer {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Synthesizer{
		cfg:  cfg,
		rng:  rng,
		zipf: rand.NewZipf(rng, synthZipfS, synthZipfV, uint64(cfg.Tenants-1)),
		live: make([]bool, cfg.Tenants),
		left: max(cfg.Events, 0),
	}
}

// Next generates the next event into ev, or returns io.EOF once
// cfg.Events events have been generated.
func (s *Synthesizer) Next(ev *Event) error {
	if s.left == 0 {
		return io.EOF
	}
	s.left--
	rng := s.rng
	s.ts += uint64(rng.Intn(4))
	*ev = Event{TS: s.ts}
	switch aging.ChurnRoll(rng, s.liveCount, s.cfg.Tenants) {
	case aging.ChurnArrive:
		ev.Kind = KindMMap
		ev.Tenant = s.pick(rng.Intn(s.cfg.Tenants), false)
		s.live[ev.Tenant] = true
		s.liveCount++
	case aging.ChurnExit:
		ev.Kind = KindExit
		ev.Tenant = s.pick(rng.Intn(s.cfg.Tenants), true)
		s.live[ev.Tenant] = false
		s.liveCount--
	default: // steady-state traffic on a Zipf-hot live tenant
		ev.Tenant = s.pick(int(s.zipf.Uint64()), true)
		roll := rng.Intn(100)
		switch {
		case roll < 22:
			ev.Kind = KindTouch
		case roll < 40:
			ev.Kind = KindTouchRange
		case roll < 70:
			ev.Kind = KindAccess
		case roll < 78:
			ev.Kind = KindMMap
		case roll < 84:
			ev.Kind = KindMUnmap
		case roll < 89:
			ev.Kind = KindFork
		case roll < 92:
			ev.Kind = KindHog
		case roll < 96:
			ev.Kind = KindUnhog
		default:
			ev.Kind = KindDaemonTick
		}
	}
	ev.Arg0, ev.Arg1, ev.Arg2 = s.arg(), s.arg(), s.arg()
	return nil
}

func (s *Synthesizer) arg() uint64 { return uint64(s.rng.Intn(1 << 16)) }

// pick scans cyclically from start for a tenant in the wanted liveness
// state; the churn roll guarantees one exists.
func (s *Synthesizer) pick(start int, wantLive bool) uint32 {
	for i := 0; i < s.cfg.Tenants; i++ {
		t := (start + i) % s.cfg.Tenants
		if s.live[t] == wantLive {
			return uint32(t)
		}
	}
	panic("tracein: synth pick with no candidate")
}

// Synth collects NewSynth's whole trace into a slice, for callers that
// encode one trace or replay it several times.
func Synth(cfg SynthConfig) []Event {
	s := NewSynth(cfg)
	out := make([]Event, 0, s.left)
	var ev Event
	for s.Next(&ev) == nil {
		out = append(out, ev)
	}
	return out
}
