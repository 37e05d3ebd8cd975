package tracein

import (
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
	// ZipfS/ZipfV shape the tenant-popularity skew for steady-state
	// events (defaults 1.2/1): a few hot tenants take most of the
	// traffic, the tail stays warm.
	ZipfS, ZipfV float64
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Tenants > MaxTenant+1 {
		c.Tenants = MaxTenant + 1
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.ZipfV < 1 {
		c.ZipfV = 1
	}
	return c
}

// Synth generates a multi-tenant churn trace, deterministic per
// config. Tenant lifecycle follows the aging campaigns' fixed churn
// mix (aging.ChurnRoll: arrive 30 %, touch 50 %, exit 20 %, adjusted
// at the population bounds), so the serving traces age kernels the
// same way the fragmentation campaigns do; within a live tenant's
// steady state, event kinds follow a fixed weighted mix dominated by
// touches and translation bursts. Argument words are drawn small
// (16-bit) — consumers clamp them anyway, and small args keep the
// encoded stream around a dozen bytes per record.
func Synth(cfg SynthConfig) []Event {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.Tenants-1))
	live := make([]bool, cfg.Tenants)
	liveCount := 0
	var ts uint64
	arg := func() uint64 { return uint64(rng.Intn(1 << 16)) }
	// pick scans cyclically from a random start for a tenant in the
	// wanted liveness state; the caller guarantees one exists.
	pick := func(start int, wantLive bool) uint32 {
		for i := 0; i < cfg.Tenants; i++ {
			t := (start + i) % cfg.Tenants
			if live[t] == wantLive {
				return uint32(t)
			}
		}
		panic("tracein: synth pick with no candidate")
	}
	out := make([]Event, 0, cfg.Events)
	for len(out) < cfg.Events {
		ts += uint64(rng.Intn(4))
		ev := Event{TS: ts}
		switch aging.ChurnRoll(rng, liveCount, cfg.Tenants) {
		case aging.ChurnArrive:
			ev.Kind = KindMMap
			ev.Tenant = pick(rng.Intn(cfg.Tenants), false)
			live[ev.Tenant] = true
			liveCount++
		case aging.ChurnExit:
			ev.Kind = KindExit
			ev.Tenant = pick(rng.Intn(cfg.Tenants), true)
			live[ev.Tenant] = false
			liveCount--
		default: // steady-state traffic on a Zipf-hot live tenant
			ev.Tenant = pick(int(zipf.Uint64()), true)
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
		ev.Arg0, ev.Arg1, ev.Arg2 = arg(), arg(), arg()
		out = append(out, ev)
	}
	return out
}
