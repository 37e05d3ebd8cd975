// Command perfbench is the repository benchmark. It runs one workload
// per process as a closed loop with one client: each request (a whole
// trace replay, a set of sim.Run streams, or a whole aging campaign)
// starts only after the previous one finished, on fresh machines with
// empty TLBs and walk caches. Inputs are generated from --seed during
// set-up, before anything is timed.
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the serial traced passes that time calls into each layer from
// this package and prints the per-layer metrics. Every run gates its
// outputs: audits must pass and the hashes of the modelled outputs must
// match the values pinned for the default seed, or, for another seed,
// the serial reference run. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload replay-churn --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// defaultSeed is the seed the pinned digests belong to. README.md names
// the held-out seed kept for confirming later claims.
const defaultSeed = 1

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 5

// sample is the outcome of one closed-loop request.
type sample struct {
	ops     uint64
	elapsed time.Duration
	digest  string
}

// workload is one benchmark input family.
type workload interface {
	// setup generates the inputs from the seed, replacing any earlier
	// set-up.
	setup() error
	// iterate runs one timed request on the set-up inputs.
	iterate() (sample, error)
	// reference runs the request serially and returns its digest.
	reference() (string, error)
	// traced runs the serial traced passes, fills l, and returns the
	// serial run's digest and the operations it performed. setupS is
	// the median set-up time.
	traced(l layers, setupS float64) (string, uint64, error)
	// close releases the set-up state.
	close()
}

// sizes fixes how much work one request does.
type sizes struct {
	replayEvents int
	streamLen    uint64
	agingSteps   int
	warmSteps    int
}

// fullSizes are the benchmark's sizes; the tests use smaller ones.
var fullSizes = sizes{
	replayEvents: 150_000,
	streamLen:    400_000,
	agingSteps:   360,
	warmSteps:    40,
}

var workloadNames = []string{"replay-churn", "translate-stream", "aging-churn"}

func newWorkload(name string, seed int64, sz sizes, dir string) (workload, error) {
	switch name {
	case "replay-churn":
		return &replayBench{seed: seed, events: sz.replayEvents, path: filepath.Join(dir, fmt.Sprintf("replay-%d.mtrc", seed))}, nil
	case "translate-stream":
		return &translateBench{seed: seed, streamLen: sz.streamLen}, nil
	case "aging-churn":
		return &agingBench{seed: seed, steps: sz.agingSteps, warmSteps: sz.warmSteps}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: replay-churn, translate-stream, aging-churn")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 10, "how long the timed phase runs")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the serial traced run")
	workdir := fs.String("workdir", ".bench_build/work", "directory for generated input files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w, err := newWorkload(*name, *seed, fullSizes, *workdir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer w.close()

	fmt.Fprintln(stdout, provenanceLine(*name, *seed, *traceFlag))
	res, err := measure(w, *name, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// errGate labels output-gate failures. Like any other error from a
// request, one marks the run incorrect; the run still prints its result.
var errGate = errors.New("output gate")

// measure sets the workload up, runs its timed or traced phase, gates
// the outputs, and assembles the result. Only set-up and I/O failures
// return an error; gate failures mark the result incorrect.
func measure(w workload, name string, seed int64, budget time.Duration, traced bool, log io.Writer) (result, error) {
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
	}
	setupS := medianDur(setups)

	res := result{Metrics: map[string]metricValue{}}
	var digests []string
	var gateErr error
	if traced {
		// Repeat the traced passes for the budget: host times report
		// their median, and counts must repeat exactly.
		var passes []layers
		deadline := time.Now().Add(budget)
		for len(passes) == 0 || time.Now().Before(deadline) {
			l := layers{}
			digest, ops, err := w.traced(l, setupS)
			res.Attempted += ops
			if err != nil {
				gateErr = err
				break
			}
			digests = append(digests, digest)
			passes = append(passes, l)
		}
		for _, s := range perLayerSpecs() {
			vals := make([]float64, len(passes))
			for i, l := range passes {
				vals[i] = l[s.Name]
				if countMetrics[s.Name] && vals[i] != vals[0] && gateErr == nil {
					gateErr = fmt.Errorf("%w: count %s is %v in pass 0 but %v in pass %d", errGate, s.Name, vals[0], vals[i], i)
				}
			}
			res.Metrics[s.Name] = metricValue{Value: median(vals), Unit: s.Unit}
		}
		fmt.Fprintf(log, "perfbench: %s seed %d: %d traced passes, %d ops\n", name, seed, len(passes), res.Attempted)
	} else {
		var rates []float64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		deadline := time.Now().Add(budget)
		for len(rates) == 0 || time.Now().Before(deadline) {
			s, err := w.iterate()
			if err != nil {
				gateErr = err
				break
			}
			res.Attempted += s.ops
			rates = append(rates, float64(s.ops)/s.elapsed.Seconds())
			digests = append(digests, s.digest)
		}
		runtime.ReadMemStats(&after)
		fmt.Fprintf(log, "perfbench: %s seed %d: %d requests, %d ops, median %.0f ops/s\n",
			name, seed, len(rates), res.Attempted, median(rates))
		res.Metrics["setup_s"] = metricValue{setupS, "s"}
		res.Metrics["ops_per_s"] = metricValue{median(rates), "1/s"}
		res.Metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
		res.Metrics["alloc_bytes_per_op"] = metricValue{
			ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(res.Attempted)), "B"}
	}
	if gateErr == nil {
		gateErr = checkDigests(w, name, seed, digests)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	res.Correct = gateErr == nil
	if gateErr != nil {
		fmt.Fprintln(log, "perfbench: FAILED:", gateErr)
		res.Failed = res.Attempted
	}
	return res, nil
}

// checkDigests compares every request's digest with the expected one:
// the pinned value for the default seed, else the serial reference run.
func checkDigests(w workload, name string, seed int64, digests []string) error {
	want := pinned[name]
	if seed != defaultSeed {
		var err error
		if want, err = w.reference(); err != nil {
			return err
		}
	}
	for i, d := range digests {
		if d != want {
			return fmt.Errorf("%w: request %d digest %s, want %s", errGate, i, d, want)
		}
	}
	return nil
}

// peakRSSMB is the process's peak resident set (getrusage maxrss) in
// MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
