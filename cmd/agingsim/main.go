// Command agingsim runs one fragmentation-aging campaign — long
// logical-time tenant churn with page-cache pressure and periodic
// daemon epochs — under a chosen policy, and writes the per-snapshot
// trajectory (FragScore-style permille, Gorman unusable free index,
// RSS) as CSV. Whole-machine audits run throughout; an audit failure
// exits non-zero, which is what the CI aging-smoke step gates on.
//
// The campaign splits the machine into -shards zone-owning shards
// (default 1: one shard owning every zone) stepped concurrently by
// the -shardjobs workers of the campaign's shard team (which also
// sweep the audit's zones) and merged at a deterministic epoch
// barrier; the trajectory depends on -shards but never on -shardjobs.
//
//	agingsim -policy ranger -steps 360 -csv traj.csv -trace trace.json
//	agingsim -policy ca -shards 2 -shardjobs 2 -audit 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/aging"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool behind an exit code, so tests can drive it.
// Exit codes: 0 clean, 1 campaign failure (a failed audit), 2 usage (a
// bad flag, an unknown policy, or a campaign config aging rejects).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("agingsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policy    = fs.String("policy", "thp", "policy: thp, ingens, ca, eager, ranger, ideal")
		steps     = fs.Int("steps", 240, "churn-step horizon")
		snapshot  = fs.Int("snapshot", 10, "snapshot every N steps")
		audit     = fs.Int("audit", 4, "audit every N snapshots (-1 disables mid-run audits)")
		seed      = fs.Int64("seed", 1, "campaign seed")
		shards    = fs.Int("shards", 1, "split the campaign into N zone-owning shards (clamped to the zone count)")
		shardJobs = fs.Int("shardjobs", 0, "workers that step shards and sweep audit zones (the campaign's shard team): 0 = GOMAXPROCS, 1 = serial; trajectory is identical at any value")
		csvOut    = fs.String("csv", "", "write the trajectory CSV to `file` (default stdout)")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON of the campaign to `file`")
		counters  = fs.String("counters", "", "write the traced counter time series as CSV to `file`")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "agingsim:", err)
		return code
	}

	pol := experiments.PolicyName(*policy)
	known := false
	for _, p := range experiments.AllPolicies() {
		if p == pol {
			known = true
		}
	}
	if !known {
		return fail(2, fmt.Errorf("unknown policy %q (have %v)", *policy, experiments.AllPolicies()))
	}

	params := experiments.Params{Seed: *seed}
	var tr *trace.Tracer
	if *traceOut != "" || *counters != "" {
		tr = trace.New()
		params.Tracer = tr
	}
	cfg := aging.Config{
		Seed:          *seed,
		Steps:         *steps,
		SnapshotEvery: *snapshot,
		AuditEvery:    *audit,
		Shards:        *shards,
		ShardJobs:     *shardJobs,
	}
	traj, err := experiments.RunAgingCampaign(params, pol, cfg)
	if errors.Is(err, aging.ErrConfig) {
		return fail(2, err)
	}

	// Emit whatever trajectory exists even when the campaign failed:
	// the snapshots leading up to a bad audit are the debugging trail.
	writeCSV := func() error {
		if *csvOut == "" {
			return traj.WriteCSV(stdout)
		}
		f, cerr := os.Create(*csvOut)
		if cerr != nil {
			return cerr
		}
		if werr := traj.WriteCSV(f); werr != nil {
			f.Close()
			return werr
		}
		return f.Close()
	}
	if traj != nil {
		if werr := writeCSV(); werr != nil {
			return fail(1, werr)
		}
	}
	writeOut := func(path string, fn func(*os.File) error) error {
		if path == "" {
			return nil
		}
		f, oerr := os.Create(path)
		if oerr != nil {
			return oerr
		}
		if oerr := fn(f); oerr != nil {
			f.Close()
			return oerr
		}
		return f.Close()
	}
	if oerr := writeOut(*traceOut, func(f *os.File) error { return tr.WriteChromeTrace(f) }); oerr != nil {
		return fail(1, oerr)
	}
	if oerr := writeOut(*counters, func(f *os.File) error { return tr.WriteCounterCSV(f) }); oerr != nil {
		return fail(1, oerr)
	}
	if err != nil {
		return fail(1, err)
	}
	f := traj.Final()
	fmt.Fprintf(stderr, "agingsim: %s ok: %d snapshots, final frag %d permille, ufi2m %.3f, rss %d pages, %d faults\n",
		traj.Policy, len(traj.Snapshots), f.FragPermille, f.UFI2M, f.RSSPages, f.Faults)
	return 0
}
