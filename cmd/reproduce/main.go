// Command reproduce regenerates the paper's evaluation tables and
// figures from the simulator. Each experiment prints the same
// rows/series the paper reports (scaled; see DESIGN.md).
//
// Usage:
//
//	reproduce -list
//	reproduce -exp fig7
//	reproduce -exp table1,fig10
//	reproduce -exp all [-jobs 8] [-stream 1000000] [-settle 400] [-seed 1]
//	reproduce -exp all -cpuprofile cpu.prof -memprofile mem.prof -timing timing.json
//	reproduce -exp table1 -trace trace.json -counters counters.csv
//
// Experiments are mutually independent and deterministic in their
// parameters, so -exp all fans them out on a worker pool; tables print
// in stable registry order with per-experiment wall-clock timing, and
// -jobs 1 reproduces the sequential behaviour byte-for-byte.
//
// The profiling flags feed the performance work tracked in DESIGN.md
// §7: -cpuprofile/-memprofile write standard pprof profiles around the
// sweep, and -timing writes the per-experiment wall-clock breakdown as
// JSON (the format committed as BENCH_*.json trajectory points).
//
// The tracing flags (DESIGN.md §9) attach a process-wide tracer to
// every experiment in the run: -trace writes Chrome trace-event JSON
// (load it at ui.perfetto.dev or summarize with cmd/tracestat), and
// -counters writes the counter time series as CSV. Tables are
// byte-identical with tracing on or off.
//
// The figBackends experiment runs every workload across the pluggable
// translation backends (DESIGN.md §13) — the paper's paged stack plus
// the hashed, rmm, and ds alternates — and -backend restricts the
// matrix to a single backend for quick comparisons.
//
// Beyond the paper's own figures, the registry carries the
// fragmentation-aging experiments (DESIGN.md §10): figAging ages every
// policy across two tenant-churn horizons and figAgingTraj records the
// full per-snapshot trajectories; cmd/agingsim runs a single campaign
// with finer control. The aging campaigns run sharded — one shard per
// host zone (DESIGN.md §11) — and -shardjobs sizes each campaign's
// shard team, the workers that step its shards and sweep its audit
// zones; tables never depend on it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/trace"
)

// timingReport is the -timing JSON schema: enough provenance (params,
// host shape, date) to compare trajectory points across commits.
type timingReport struct {
	Date      string         `json:"date"`
	GoVersion string         `json:"go_version"`
	NumCPU    int            `json:"num_cpu"`
	Jobs      int            `json:"jobs"`
	StreamLen uint64         `json:"stream_len"`
	Settle    int            `json:"settle_epochs"`
	Seed      int64          `json:"seed"`
	TotalMS   float64        `json:"total_ms"`
	PerExp    []timingResult `json:"experiments"`
}

type timingResult struct {
	ID string  `json:"id"`
	MS float64 `json:"ms"`
}

// writeTraceOutputs flushes the tracer's exporters; it also runs on the
// partial-failure path so a crashed sweep still yields its trace.
func writeTraceOutputs(tr *trace.Tracer, tracePath, countersPath string) {
	if tr == nil {
		return
	}
	write := func(path string, export func(*os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := export(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	write(tracePath, func(f *os.File) error { return tr.WriteChromeTrace(f) })
	write(countersPath, func(f *os.File) error { return tr.WriteCounterCSV(f) })
	if tr.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "trace: event buffer full, %d events dropped (counters stay exact)\n", tr.Dropped())
	}
}

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (see -list) or 'all'")
		list       = flag.Bool("list", false, "list experiment ids")
		jobs       = flag.Int("jobs", runtime.NumCPU(), "max concurrent experiments (1 = sequential)")
		shardJobs  = flag.Int("shardjobs", 0, "workers that step each sharded aging campaign's shards and sweep its audit zones: 0 = GOMAXPROCS, 1 = serial; tables are identical at any value")
		stream     = flag.Uint64("stream", 1_000_000, "measured-phase accesses for translation experiments")
		backend    = flag.String("backend", "", "restrict figBackends to one translation backend (paged, hashed, rmm, ds); empty = full matrix")
		settle     = flag.Int("settle", 400, "daemon-settle epochs for contiguity experiments")
		seed       = flag.Int64("seed", 1, "base workload seed")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to `file`")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile after the sweep to `file`")
		timing     = flag.String("timing", "", "write per-experiment wall-clock JSON to `file`")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of the run to `file`")
		counters   = flag.String("counters", "", "write the traced counter time series as CSV to `file`")
	)
	flag.Parse()
	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}
	params := experiments.Params{
		StreamLen:    *stream,
		SettleEpochs: *settle,
		Seed:         *seed,
		Jobs:         *jobs,
		ShardJobs:    *shardJobs,
		Backend:      *backend,
	}
	var tr *trace.Tracer
	if *traceOut != "" || *counters != "" {
		tr = trace.New()
		params.Tracer = tr
	}
	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	results, err := runner.Run(context.Background(), ids, params, *jobs)
	total := time.Since(start)
	if err != nil {
		// Render whatever completed before the failure, then report it:
		// a 21-experiment sweep should not discard 20 good tables.
		for _, r := range results {
			if r.Err == nil && r.Table != nil {
				r.Table.Render(os.Stdout)
			}
		}
		writeTraceOutputs(tr, *traceOut, *counters)
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, r := range results {
		r.Table.Render(os.Stdout)
		fmt.Printf("(%s took %s)\n\n", r.ID, r.Elapsed.Round(1e6))
	}
	writeTraceOutputs(tr, *traceOut, *counters)
	if *timing != "" {
		rep := timingReport{
			Date:      time.Now().UTC().Format(time.RFC3339),
			GoVersion: runtime.Version(),
			NumCPU:    runtime.NumCPU(),
			Jobs:      *jobs,
			StreamLen: *stream,
			Settle:    *settle,
			Seed:      *seed,
			TotalMS:   float64(total.Microseconds()) / 1e3,
		}
		for _, r := range results {
			rep.PerExp = append(rep.PerExp, timingResult{
				ID: r.ID, MS: float64(r.Elapsed.Microseconds()) / 1e3,
			})
		}
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*timing, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
