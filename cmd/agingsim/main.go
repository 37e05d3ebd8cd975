// Command agingsim runs one fragmentation-aging campaign — long
// logical-time tenant churn with page-cache pressure and periodic
// daemon epochs — under a chosen policy, and writes the per-snapshot
// trajectory (FragScore-style permille, Gorman unusable free index,
// RSS) as CSV. Whole-machine audits run throughout; an audit failure
// exits non-zero, which is what the CI aging-smoke step gates on.
//
// The campaign splits the machine into -shards zone-owning shards
// (default 1: one shard owning every zone) stepped concurrently by
// -shardjobs workers and merged at a deterministic epoch barrier; the
// trajectory depends on -shards but never on -shardjobs.
//
//	agingsim -policy ranger -steps 360 -csv traj.csv -trace trace.json
//	agingsim -policy ca -shards 2 -shardjobs 2 -audit 1
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/aging"
	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	var (
		policy    = flag.String("policy", "thp", "policy: thp, ingens, ca, eager, ranger, ideal")
		steps     = flag.Int("steps", 240, "churn-step horizon")
		snapshot  = flag.Int("snapshot", 10, "snapshot every N steps")
		audit     = flag.Int("audit", 4, "audit every N snapshots (-1 disables mid-run audits)")
		seed      = flag.Int64("seed", 1, "campaign seed")
		shards    = flag.Int("shards", 1, "split the campaign into N zone-owning shards (clamped to the zone count)")
		shardJobs = flag.Int("shardjobs", 0, "workers stepping shards concurrently: 0 = GOMAXPROCS, 1 = serial; trajectory is identical at any value")
		csvOut    = flag.String("csv", "", "write the trajectory CSV to `file` (default stdout)")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the campaign to `file`")
		counters  = flag.String("counters", "", "write the traced counter time series as CSV to `file`")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "agingsim:", err)
		os.Exit(1)
	}

	pol := experiments.PolicyName(*policy)
	known := false
	for _, p := range experiments.AllPolicies() {
		if p == pol {
			known = true
		}
	}
	if !known {
		fail(fmt.Errorf("unknown policy %q (have %v)", *policy, experiments.AllPolicies()))
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

	// Emit whatever trajectory exists even when the campaign failed:
	// the snapshots leading up to a bad audit are the debugging trail.
	writeCSV := func() error {
		w := os.Stdout
		if *csvOut != "" {
			f, cerr := os.Create(*csvOut)
			if cerr != nil {
				return cerr
			}
			defer f.Close()
			w = f
		}
		return traj.WriteCSV(w)
	}
	if traj != nil {
		if werr := writeCSV(); werr != nil {
			fail(werr)
		}
	}
	writeOut := func(path string, fn func(*os.File) error) {
		if path == "" {
			return
		}
		f, oerr := os.Create(path)
		if oerr != nil {
			fail(oerr)
		}
		if oerr := fn(f); oerr != nil {
			f.Close()
			fail(oerr)
		}
		if oerr := f.Close(); oerr != nil {
			fail(oerr)
		}
	}
	writeOut(*traceOut, func(f *os.File) error { return tr.WriteChromeTrace(f) })
	writeOut(*counters, func(f *os.File) error { return tr.WriteCounterCSV(f) })
	if err != nil {
		fail(err)
	}
	f := traj.Final()
	fmt.Fprintf(os.Stderr, "agingsim: %s ok: %d snapshots, final frag %d permille, ufi2m %.3f, rss %d pages, %d faults\n",
		traj.Policy, len(traj.Snapshots), f.FragPermille, f.UFI2M, f.RSSPages, f.Faults)
}
