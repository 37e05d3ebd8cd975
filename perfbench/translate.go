package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/hw/translation"
	"repro/internal/mem/addr"
	"repro/internal/mem/zone"
	"repro/internal/osim"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/virt"
	"repro/internal/workloads"
)

// translate-stream is the measured phase of Fig 13 and of figBackends'
// virtualized cells: long sim.Run streams over populated pagerank and
// xsbench footprints. The machine geometry mirrors internal/experiments:
// a 2 x 640 MiB host and a 768 MiB guest with 2 x 384 MiB zones, one
// MAX_ORDER block boot-reserved per zone.
const (
	hostZoneBlocks  = 160
	guestZoneBlocks = 96
	vmBytes         = 768 << 20
	probeVAs        = 4096 // miss-path probe set
	hotVAs          = 8    // hit-path probe set, well inside TLB reach
	probeRounds     = 5
)

var translateWorkloads = []string{"pagerank", "xsbench"}

// The three populated environments per workload. The four nested-ca
// configurations share one: sim.Run only reads a populated environment
// (the gate requires zero demand faults), and each run builds its own
// TLB, walk cache, and backend.
const (
	envNativeTHP = iota
	envNestedTHP
	envNestedCA
	numEnvs
)

// Indexes into translateConfigs of the configurations the paper's model
// quantities are read from.
const (
	cfgNestedTHP    = 1
	cfgNestedCASpot = 2
)

type translateConfig struct {
	name    string
	env     int
	backend string
	schemes bool
}

type translateBench struct {
	seed      int64
	streamLen uint64
	envs      [][numEnvs]tenv // per workload
	pages     uint64          // pages populated by set-up
}

// tenv is one populated environment with the workload instance that
// populated it; the instance's streams address that footprint.
type tenv struct {
	env *workloads.Env
	wl  workloads.Workload
}

func hostMachine(sorted bool) *zone.Machine {
	return zone.NewMachine(zone.Config{
		ZonePages:      []uint64{hostZoneBlocks * addr.MaxOrderPages, hostZoneBlocks * addr.MaxOrderPages},
		SortedMaxOrder: sorted,
	})
}

// newTranslateEnv builds one empty environment: a native THP kernel, or
// a VM with default (THP) or CA placement in both dimensions.
func newTranslateEnv(kind int, tr *trace.Tracer) (*workloads.Env, error) {
	if kind == envNativeTHP {
		k := osim.NewKernel(hostMachine(false), osim.DefaultPolicy{})
		k.BootReserve(1)
		k.SetTracer(tr)
		return workloads.NewNativeEnv(k, 0), nil
	}
	ca := kind == envNestedCA
	var pol osim.Placement = osim.DefaultPolicy{}
	if ca {
		pol = osim.CAPolicy{}
	}
	hk := osim.NewKernel(hostMachine(ca), pol)
	hk.BootReserve(1)
	vm, err := virt.New(hk, virt.Config{
		MemBytes:         vmBytes,
		GuestZones:       []uint64{guestZoneBlocks * addr.MaxOrderPages, guestZoneBlocks * addr.MaxOrderPages},
		GuestPolicy:      pol,
		GuestSorted:      ca,
		GuestBootReserve: 1,
	})
	if err != nil {
		return nil, err
	}
	vm.SetTracer(tr)
	return workloads.NewVirtEnv(vm, 0), nil
}

// recycleEnv returns an environment's machines to the zone pool.
func recycleEnv(env *workloads.Env) {
	env.Kernel.Machine.Recycle()
	if env.VM != nil {
		env.VM.Host.Machine.Recycle()
	}
}

// populate builds and sets up every environment, returning them and the
// pages the workloads populated.
func (b *translateBench) populate(tr *trace.Tracer) ([][numEnvs]tenv, uint64, error) {
	var out [][numEnvs]tenv
	var pages uint64
	for _, name := range translateWorkloads {
		out = append(out, [numEnvs]tenv{})
		envs := &out[len(out)-1]
		for kind := range envs {
			env, err := newTranslateEnv(kind, tr)
			if err != nil {
				return out, 0, err
			}
			wl := workloads.ByName(name)
			envs[kind] = tenv{env, wl}
			if err := wl.Setup(env, rand.New(rand.NewSource(b.seed))); err != nil {
				return out, 0, fmt.Errorf("%s setup: %w", name, err)
			}
			pages += env.Proc.RSSPages
		}
	}
	return out, pages, nil
}

// recycleAll returns every populated environment's machines to the
// zone pool.
func recycleAll(envs [][numEnvs]tenv) {
	for _, e := range envs {
		for _, t := range e {
			if t.env != nil {
				recycleEnv(t.env)
			}
		}
	}
}

func (b *translateBench) setup() error {
	b.close()
	envs, pages, err := b.populate(nil)
	b.envs, b.pages = envs, pages
	return err
}

func (b *translateBench) close() {
	recycleAll(b.envs)
	b.envs = nil
}

// stream is the measured access stream over one populated environment.
func (b *translateBench) stream(t tenv) workloads.Stream {
	return t.wl.Stream(rand.New(rand.NewSource(b.seed+1)), b.streamLen)
}

// translateRun is one request: every configuration's result and sim.Run
// time, indexed [workload][config].
type translateRun struct {
	res  [][]sim.Result
	took [][]time.Duration
}

// runAll runs every configuration of every workload once, serially, and
// digests every sim.Result counter.
func (b *translateBench) runAll() (translateRun, sample, error) {
	var tr translateRun
	var s sample
	h := sha256.New()
	for wi, name := range translateWorkloads {
		res := make([]sim.Result, len(translateConfigs))
		took := make([]time.Duration, len(translateConfigs))
		for ci, c := range translateConfigs {
			t := b.envs[wi][c.env]
			stream := b.stream(t)
			start := time.Now()
			r, err := sim.Run(t.env, stream, sim.Config{Backend: c.backend, EnableSchemes: c.schemes})
			took[ci] = time.Since(start)
			if err != nil {
				return tr, s, fmt.Errorf("%s/%s: %w", name, c.name, err)
			}
			if r.Faults != 0 {
				return tr, s, fmt.Errorf("%w: %s/%s demand-faulted %d times on a populated footprint", errGate, name, c.name, r.Faults)
			}
			res[ci] = r
			s.ops += r.Accesses
			s.elapsed += took[ci]
			fmt.Fprintf(h, "%s/%s %+v\n", name, c.name, r)
		}
		tr.res = append(tr.res, res)
		tr.took = append(tr.took, took)
	}
	s.digest = hex.EncodeToString(h.Sum(nil))
	return tr, s, nil
}

func (b *translateBench) iterate() (sample, error) {
	_, s, err := b.runAll()
	return s, err
}

// reference is one more request: translate-stream has no parallel
// variant, so serial and timed requests are the same code.
func (b *translateBench) reference() (string, error) {
	_, s, err := b.runAll()
	return s.digest, err
}

// traced runs two requests, probes each backend's hit and miss paths,
// times stream generation alone, and counts set-up's fault and buddy
// events on a second, tracer-attached set-up. Per-run timers are the
// only instrumentation of a request, and every request has them, so
// bench.trace_overhead_pct here is the difference between two identical
// requests: run-to-run noise.
func (b *translateBench) traced(l layers, setupS float64) (string, uint64, error) {
	_, plain, err := b.runAll()
	if err != nil {
		return "", 0, err
	}
	run, timed, err := b.runAll()
	ops := plain.ops + timed.ops
	if err != nil {
		return "", ops, err
	}
	if timed.digest != plain.digest {
		return "", ops, fmt.Errorf("%w: traced request digest %s differs from untraced %s", errGate, timed.digest, plain.digest)
	}
	l["bench.trace_overhead_pct"] = (timed.elapsed.Seconds()/plain.elapsed.Seconds() - 1) * 100

	var vthp, spotO, correct, mispredict, misses float64
	for ci, c := range translateConfigs {
		var ns, acc, miss float64
		for wi := range translateWorkloads {
			r := run.res[wi][ci]
			ns += float64(run.took[wi][ci].Nanoseconds())
			acc += float64(r.Accesses)
			miss += float64(r.Misses)
		}
		l["sim.ns_per_access."+c.name] = ns / acc
		l["translation.miss_ratio."+c.name] = miss / acc
	}
	for wi := range translateWorkloads {
		vthp += perfmodel.PagingOverhead(run.res[wi][cfgNestedTHP]) * 100
		r := run.res[wi][cfgNestedCASpot]
		spotO += perfmodel.SpotOverhead(r) * 100
		correct += float64(r.SpotCorrect)
		mispredict += float64(r.SpotMispredict)
		misses += float64(r.Misses)
	}
	nw := float64(len(translateWorkloads))
	l["model.vthp_overhead_pct"] = vthp / nw
	l["model.spot_overhead_pct"] = spotO / nw
	l["spot.correct_frac"] = correct / misses
	l["spot.mispredict_frac"] = mispredict / misses
	l["osim.populate_ns_per_page"] = setupS * 1e9 / float64(b.pages)

	if err := b.probeBackends(l); err != nil {
		return "", ops, err
	}
	b.timeStreams(l)

	var logBytes uint64
	for _, e := range b.envs {
		for _, t := range e {
			logBytes += uint64(len(t.env.Kernel.Stats.FaultLatencies)) * 8
			if t.env.VM != nil {
				logBytes += uint64(len(t.env.VM.Host.Stats.FaultLatencies)) * 8
			}
		}
	}
	l["osim.fault_log_mb"] = float64(logBytes) / (1 << 20)

	counter := trace.NewCapped(0)
	envs, _, err := b.populate(counter)
	recycleAll(envs)
	if err != nil {
		return "", ops, err
	}
	perRequest := float64(timed.ops)
	countLayers(l, counter, perRequest)
	var faults float64
	for i := range faultKinds {
		faults += float64(counter.Count(trace.EvFault4K + trace.Kind(i)))
	}
	l["osim.faults_per_op"] = faults / perRequest
	return plain.digest, ops, nil
}

// probeBackends times each backend's hit path (Lookup on the stream's
// hottest pages, all TLB-resident once warmed) and miss path (Translate,
// which never fills) in batches, on pagerank's nested CA environment.
func (b *translateBench) probeBackends(l layers) error {
	t := b.envs[0][envNestedCA]
	s := workloads.Batched(b.stream(t))
	buf := make([]workloads.Access, probeVAs)
	vas := make([]addr.VirtAddr, 0, probeVAs)
	uses := map[addr.VirtAddr]int{}
	for _, a := range buf[:s.Fill(buf)] {
		vas = append(vas, a.VA)
		uses[a.VA&^(addr.PageSize-1)]++
	}
	hot := make([]addr.VirtAddr, 0, len(uses))
	for va := range uses {
		hot = append(hot, va)
	}
	sort.Slice(hot, func(i, j int) bool {
		if uses[hot[i]] != uses[hot[j]] {
			return uses[hot[i]] > uses[hot[j]]
		}
		return hot[i] < hot[j]
	})
	hot = hot[:hotVAs]
	var sink float64
	for _, name := range translation.Names() {
		be, err := translation.New(name, t.env, translation.Config{})
		if err != nil {
			return err
		}
		for _, va := range append(vas, hot...) {
			if w := be.Translate(va); w.OK {
				be.Insert(va, w)
			}
		}
		before := be.Counters()
		var miss, hit []float64
		for r := 0; r < probeRounds; r++ {
			start := time.Now()
			for _, va := range vas {
				sink += be.Translate(va).Cost
			}
			miss = append(miss, float64(time.Since(start).Nanoseconds())/float64(len(vas)))
			start = time.Now()
			for i := 0; i < len(vas)/hotVAs; i++ {
				for _, va := range hot {
					be.Lookup(va)
				}
			}
			hit = append(hit, float64(time.Since(start).Nanoseconds())/float64(len(vas)))
		}
		after := be.Counters()
		be.Close()
		if after.Hits-before.Hits != after.Lookups-before.Lookups {
			return fmt.Errorf("%s: %d of %d hit-path probes missed", name,
				(after.Lookups-before.Lookups)-(after.Hits-before.Hits), after.Lookups-before.Lookups)
		}
		l["translation.translate_ns."+name] = median(miss)
		l["translation.lookup_ns."+name] = median(hit)
	}
	if sink < 0 {
		return fmt.Errorf("negative translation cost")
	}
	return nil
}

// timeStreams times access-stream generation alone (Fill into a reused
// buffer) for every workload.
func (b *translateBench) timeStreams(l layers) {
	buf := make([]workloads.Access, 1024)
	var n uint64
	start := time.Now()
	for _, e := range b.envs {
		s := workloads.Batched(b.stream(e[envNestedCA]))
		for k := s.Fill(buf); k > 0; k = s.Fill(buf) {
			n += uint64(k)
		}
	}
	l["workloads.stream_ns_per_access"] = float64(time.Since(start).Nanoseconds()) / float64(n)
}
