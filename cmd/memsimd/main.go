// Command memsimd is the trace-driven serving mode (DESIGN.md §14): a
// long-running process that drains one or more workload trace streams
// through the sharded replay engine, exposes live counters over an
// HTTP status endpoint and a periodic counter CSV, and on shutdown
// drains the streams and runs the whole-machine cross-kernel audit
// before exiting.
//
// Input is either positional trace files (each file is one concurrent
// tenant stream) or -synth N synthetic events split across -streams
// generated streams. Both kinds are tracein.Sources: the replay pulls
// the merge, and the merge pulls each input inline on the replaying
// goroutine, so no input has a goroutine or channel of its own and a
// synthetic stream is generated as it is consumed. Concurrent streams
// are merged deterministically by (timestamp, stream index), so a given
// set of inputs replays to one canonical digest at any -jobs setting.
// A failing input is reported as "<stream>: record <n>: <cause>".
//
// Usage:
//
//	memsimd -synth 1000000 -tenants 4 -shards 2 -oneshot -digest
//	memsimd -status :8080 -csv counters.csv trace1.mtrc trace2.mtrc
//
// Exit codes: 0 clean drain + audit pass, 1 replay or audit failure,
// 2 usage, 3 throughput below -mineps.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/trace"
	"repro/internal/tracein"
)

// input is one workload stream: a trace-file decoder or a synthesizer.
// Tenant IDs are remapped to tenant*streams+idx so concurrent streams
// never collide on a tenant; a tenant whose remapped ID would pass
// tracein.MaxTenant is a located error.
type input struct {
	name string
	src  tracein.Source
	file *os.File // nil for a synthesizer
	n    int      // records pulled so far
	head tracein.Event
	ok   bool // head holds a pending event
	done bool
}

// merged is the deterministic k-way merge of the inputs by
// (timestamp, stream index), itself a Source. Each Next refills only
// the heads that are empty by calling that input's own Next inline, so
// the merged order is a pure function of the inputs.
type merged struct{ ins []input }

// openStreams builds the input set: one decoder per trace file, or
// -streams synthesizers. On error every file opened so far is closed;
// otherwise the caller closes them with merged.Close.
func openStreams(files []string, synth, streams, tenants int, seed int64) (*merged, error) {
	m := &merged{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			m.Close()
			return nil, err
		}
		d, err := tracein.NewDecoder(f)
		if err != nil {
			f.Close()
			m.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		m.ins = append(m.ins, input{name: path, src: d, file: f})
	}
	if len(files) > 0 {
		return m, nil
	}
	per := synth / streams
	for i := 0; i < streams; i++ {
		n := per
		if i == streams-1 {
			n = synth - per*(streams-1)
		}
		m.ins = append(m.ins, input{
			name: fmt.Sprintf("synth[%d]", i),
			src:  tracein.NewSynth(tracein.SynthConfig{Seed: seed + int64(i), Events: n, Tenants: tenants}),
		})
	}
	return m, nil
}

// Close closes the inputs' trace files.
func (m *merged) Close() {
	for _, in := range m.ins {
		if in.file != nil {
			in.file.Close()
		}
	}
}

// Next fills ev with the earliest pending event, its tenant remapped
// to tenant*k+idx to keep concurrent streams' tenants disjoint. A
// failing input's error names the stream and the 1-based record.
func (m *merged) Next(ev *tracein.Event) error {
	k := uint64(len(m.ins))
	best := -1
	for i := range m.ins {
		in := &m.ins[i]
		if !in.ok && !in.done {
			switch err := in.src.Next(&in.head); {
			case err == nil:
				in.ok = true
				in.n++
			case errors.Is(err, io.EOF):
				in.done = true
			default:
				in.done = true
				return fmt.Errorf("%s: record %d: %w", in.name, in.n+1, err)
			}
		}
		if in.ok && (best < 0 || in.head.TS < m.ins[best].head.TS) {
			best = i
		}
	}
	if best < 0 {
		return io.EOF
	}
	in := &m.ins[best]
	in.ok = false
	tenant := uint64(in.head.Tenant)*k + uint64(best)
	if tenant > tracein.MaxTenant {
		in.done = true
		return fmt.Errorf("%s: record %d: tenant %d does not fit %d streams", in.name, in.n, in.head.Tenant, k)
	}
	*ev = in.head
	ev.Tenant = uint32(tenant)
	return nil
}

// status is the -status endpoint's JSON document: the engine snapshot
// plus serving-mode throughput.
type status struct {
	tracein.Snapshot
	Shards       int     `json:"shards"`
	Streams      int     `json:"streams"`
	Draining     bool    `json:"draining"`
	UptimeMS     int64   `json:"uptime_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	FaultsPerSec float64 `json:"faults_per_sec"`
}

// server owns the live view the HTTP handler and CSV ticker read while
// the replay drains on other goroutines.
type server struct {
	eng      *tracein.Engine
	streams  int
	start    time.Time
	draining atomic.Bool
}

func (sv *server) status() status {
	snap := sv.eng.Snapshot()
	up := time.Since(sv.start)
	secs := up.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	return status{
		Snapshot:     snap,
		Shards:       sv.eng.Shards(),
		Streams:      sv.streams,
		Draining:     sv.draining.Load(),
		UptimeMS:     up.Milliseconds(),
		EventsPerSec: float64(snap.Events) / secs,
		FaultsPerSec: float64(snap.Faults) / secs,
	}
}

func (sv *server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sv.status())
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("memsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	synth := fs.Int("synth", 0, "generate N synthetic events instead of reading trace files")
	streams := fs.Int("streams", 1, "number of concurrent synthetic streams (-synth mode)")
	tenants := fs.Int("tenants", 4, "tenants per synthetic stream")
	seed := fs.Int64("seed", 1, "synthetic trace seed (stream i uses seed+i)")
	shards := fs.Int("shards", 2, "zone shards (one kernel per shard)")
	jobs := fs.Int("jobs", 0, "concurrent shard streams (0 = GOMAXPROCS; digest-identical at any value)")
	policy := fs.String("policy", "ca", "placement policy: default, ca, eager")
	daemons := fs.Bool("daemons", false, "attach Ingens+Ranger daemons to every shard kernel")
	sample := fs.Int("sample", 4096, "per-shard trajectory row cadence in events")
	statusAddr := fs.String("status", "", "serve GET /status JSON on this address (e.g. :8080)")
	csvPath := fs.String("csv", "", "write the periodic counter CSV here at drain")
	interval := fs.Duration("interval", time.Second, "gauge sampling interval for -csv")
	oneshot := fs.Bool("oneshot", false, "exit after draining the inputs instead of waiting for SIGTERM")
	mineps := fs.Float64("mineps", 0, "fail (exit 3) if replay throughput is below this many events/sec")
	digest := fs.Bool("digest", false, "print the replay digest at drain")
	corrupt := fs.Bool("corrupt", false, "damage one frame before the drain audit (failure-path testing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *synth > 0 && fs.NArg() > 0 {
		fmt.Fprintln(stderr, "memsimd: -synth and trace file arguments are mutually exclusive")
		return 2
	}
	if *synth <= 0 && fs.NArg() == 0 {
		fmt.Fprintln(stderr, "memsimd: need trace files or -synth N")
		fs.Usage()
		return 2
	}
	if *streams < 1 {
		fmt.Fprintln(stderr, "memsimd: -streams must be at least 1")
		return 2
	}
	if *tenants < 1 || *tenants > tracein.MaxTenant+1 {
		fmt.Fprintf(stderr, "memsimd: -tenants must be in [1, %d]\n", tracein.MaxTenant+1)
		return 2
	}
	if *shards < 1 {
		fmt.Fprintln(stderr, "memsimd: -shards must be at least 1")
		return 2
	}
	if *sample < 1 {
		fmt.Fprintln(stderr, "memsimd: -sample must be at least 1")
		return 2
	}
	if *interval <= 0 {
		fmt.Fprintln(stderr, "memsimd: -interval must be positive")
		return 2
	}

	var tr *trace.Tracer
	if *csvPath != "" {
		tr = trace.New()
	}
	eng, err := tracein.NewEngine(tracein.ReplayConfig{
		Shards: *shards, Jobs: *jobs, Policy: *policy, Daemons: *daemons,
		SampleEvery: *sample, Tracer: tr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "memsimd:", err)
		return 2
	}
	defer eng.Close()

	src, err := openStreams(fs.Args(), *synth, *streams, *tenants, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "memsimd:", err)
		return 2
	}
	defer src.Close()

	sv := &server{eng: eng, streams: len(src.ins), start: time.Now()}

	// Graceful drain: first signal stops the replay at the next event
	// boundary; the drain-then-audit path below still runs.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigc)
	stopc := make(chan struct{})
	// done releases the signal watcher on every return path.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigc:
		case <-done:
			return
		}
		fmt.Fprintln(stderr, "memsimd: signal received, draining")
		sv.draining.Store(true)
		eng.Stop()
		close(stopc)
	}()

	var httpSrv *http.Server
	if *statusAddr != "" {
		ln, err := net.Listen("tcp", *statusAddr)
		if err != nil {
			fmt.Fprintln(stderr, "memsimd:", err)
			return 2
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/status", sv.handleStatus)
		httpSrv = &http.Server{Handler: mux}
		go httpSrv.Serve(ln)
		fmt.Fprintf(stderr, "memsimd: status on http://%s/status\n", ln.Addr())
		defer httpSrv.Close()
	}

	csvStop := make(chan struct{})
	csvDone := make(chan struct{})
	if tr != nil {
		go func() {
			defer close(csvDone)
			t := time.NewTicker(*interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					eng.SampleGauges()
				case <-csvStop:
					return
				}
			}
		}()
	}

	replayErr := eng.Replay(src)
	elapsed := time.Since(sv.start)
	sv.draining.Store(true)

	if !*oneshot && replayErr == nil {
		// Serving mode: inputs drained, keep the status endpoint live
		// until the operator signals shutdown (unless one already came
		// in and stopped the replay).
		select {
		case <-stopc:
		default:
			fmt.Fprintln(stderr, "memsimd: inputs drained, serving until SIGTERM")
			<-stopc
		}
	}

	if tr != nil {
		close(csvStop)
		<-csvDone
		eng.SampleGauges() // final row: every drain leaves a series
		f, err := os.Create(*csvPath)
		if err == nil {
			err = tr.WriteCounterCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "memsimd: counter csv:", err)
			return 1
		}
	}

	if replayErr != nil {
		fmt.Fprintln(stderr, "memsimd: replay:", replayErr)
		return 1
	}

	if *corrupt {
		if !eng.CorruptForTest() {
			fmt.Fprintln(stderr, "memsimd: -corrupt: no mapped frame to damage")
			return 1
		}
	}
	if err := eng.Audit(); err != nil {
		fmt.Fprintln(stderr, "memsimd: drain audit FAILED:", err)
		return 1
	}

	r := eng.Result()
	eps := float64(r.Events) / elapsed.Seconds()
	fmt.Fprintf(stdout, "drained %d events (%d skipped, %d ooms) in %v: %.0f events/sec, %d faults, p50/p99 translate %d/%d cycles, audit clean\n",
		r.Events, r.Skipped, r.OOMs, elapsed.Round(time.Millisecond), eps, r.Faults, r.P50Cycles, r.P99Cycles)
	if *digest {
		fmt.Fprintf(stdout, "digest %s\n", r.Digest())
	}
	if *mineps > 0 && eps < *mineps {
		fmt.Fprintf(stderr, "memsimd: throughput %.0f events/sec below floor %.0f\n", eps, *mineps)
		return 3
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
