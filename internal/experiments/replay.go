package experiments

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/shard"
	"repro/internal/tracein"
)

// FigReplay drives the trace-replay serving path (DESIGN.md §14) as an
// experiment: one synthesized multi-tenant trace, generated afresh by
// each cell, drained through the sharded replay engine across a
// shards × policy grid. Every cell
// audits the whole machine at drain and reports only deterministic
// counters — event/fault/access totals, translate-cost percentiles,
// and the trajectory digest prefix — so the table is golden-hashable
// and identical at any Jobs setting.
func FigReplay(p Params) (*Table, error) {
	// The trace scales with StreamLen so golden runs stay cheap; the
	// fixed divisor keeps the full-size table (-exp figReplay) at a
	// few hundred thousand events.
	events := int(p.StreamLen / 5)
	if events < 1000 {
		events = 1000
	}
	synth := tracein.SynthConfig{Seed: p.Seed, Events: events, Tenants: 4}

	type cell struct {
		shards int
		policy string
	}
	grid := []cell{
		{1, check.PolicyDefault},
		{1, check.PolicyCA},
		{2, check.PolicyDefault},
		{2, check.PolicyCA},
	}
	results := make([]tracein.Result, len(grid))
	if err := shard.Each(len(grid), p.Jobs, func(i int) error {
		c := grid[i]
		e, err := tracein.NewEngine(tracein.ReplayConfig{
			Shards: c.shards, Jobs: 1, Policy: c.policy, Tracer: p.Tracer,
		})
		if err != nil {
			return fmt.Errorf("figReplay %d/%s: %w", c.shards, c.policy, err)
		}
		defer e.Close()
		if err := e.Replay(tracein.NewSynth(synth)); err != nil {
			return fmt.Errorf("figReplay %d/%s: replay: %w", c.shards, c.policy, err)
		}
		if err := e.Audit(); err != nil {
			return fmt.Errorf("figReplay %d/%s: drain audit: %w", c.shards, c.policy, err)
		}
		results[i] = e.Result()
		return nil
	}); err != nil {
		return nil, err
	}

	t := &Table{
		Title: "figReplay: trace replay across zone shards and policies",
		Header: []string{"shards", "policy", "events", "skipped", "ooms",
			"faults", "accesses", "misses", "p50cyc", "p99cyc", "digest"},
		Notes: []string{
			fmt.Sprintf("one Synth trace (seed %d, %d events, 4 tenants) drained per cell; audit passes at drain", p.Seed, events),
			"digest = trajectory sha256 prefix; identical at any replay Jobs (pinned by the differential replay test)",
		},
	}
	for i, c := range grid {
		r := results[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.shards),
			c.policy,
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%d", r.Skipped),
			fmt.Sprintf("%d", r.OOMs),
			fmt.Sprintf("%d", r.Faults),
			fmt.Sprintf("%d", r.Accesses),
			fmt.Sprintf("%d", r.Misses),
			fmt.Sprintf("%d", r.P50Cycles),
			fmt.Sprintf("%d", r.P99Cycles),
			r.Digest()[:12],
		})
	}
	return t, nil
}
