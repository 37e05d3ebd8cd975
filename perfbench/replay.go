package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/tracein"
)

// replay-churn is the memsimd serving path: one Zipf multi-tenant churn
// trace, synthesized and encoded (with CRC) to a trace file in set-up,
// then decoded and replayed under CA paging on two zone shards.
const (
	replayTenants = 4 // memsimd's default tenants per stream
	replayShards  = 2
	replayJobs    = 2
	decodeReps    = 5
)

type replayBench struct {
	seed   int64
	events int
	path   string
	size   int64 // encoded trace bytes
}

func (b *replayBench) setup() error {
	evs := tracein.Synth(tracein.SynthConfig{Seed: b.seed, Events: b.events, Tenants: replayTenants})
	f, err := os.Create(b.path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = tracein.Encode(bw, evs, true)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	st, err := os.Stat(b.path)
	if err != nil {
		return err
	}
	b.size = st.Size()
	return nil
}

func (b *replayBench) close() { os.Remove(b.path) }

// replayRun is one drained and audited replay.
type replayRun struct {
	res            tracein.Result
	elapsed, audit time.Duration
}

func (r replayRun) sample() sample {
	return sample{ops: r.res.Events, elapsed: r.elapsed, digest: r.res.Digest()}
}

// replay builds a fresh engine, times feed up to the drain, then audits
// the machine (untimed for elapsed) and checks every event was applied.
func (b *replayBench) replay(jobs int, tr *trace.Tracer, feed func(*tracein.Engine) error) (replayRun, error) {
	eng, err := tracein.NewEngine(tracein.ReplayConfig{
		Shards: replayShards, Jobs: jobs, Policy: check.PolicyCA, Tracer: tr,
	})
	if err != nil {
		return replayRun{}, err
	}
	defer eng.Close()
	var r replayRun
	start := time.Now()
	if err := feed(eng); err != nil {
		return replayRun{}, fmt.Errorf("replay: %w", err)
	}
	r.elapsed = time.Since(start)
	start = time.Now()
	if err := eng.Audit(); err != nil {
		return replayRun{}, fmt.Errorf("%w: drain audit: %v", errGate, err)
	}
	r.audit = time.Since(start)
	r.res = eng.Result()
	if r.res.Events != uint64(b.events) {
		return replayRun{}, fmt.Errorf("%w: replayed %d of %d events", errGate, r.res.Events, b.events)
	}
	return r, nil
}

// iterate decodes the trace file into a fresh engine at Jobs 2, timed
// up to the drain as memsimd reports events/sec.
func (b *replayBench) iterate() (sample, error) {
	f, err := os.Open(b.path)
	if err != nil {
		return sample{}, err
	}
	defer f.Close()
	r, err := b.replay(replayJobs, nil, func(eng *tracein.Engine) error {
		d, err := tracein.NewDecoder(f)
		if err != nil {
			return err
		}
		return eng.Replay(d)
	})
	return r.sample(), err
}

// serial replays pre-decoded events at Jobs 1 through next.
func (b *replayBench) serial(tr *trace.Tracer, next func() (tracein.Event, error)) (replayRun, error) {
	return b.replay(1, tr, func(eng *tracein.Engine) error { return eng.ReplayStream(next) })
}

// decode reads the whole trace file into evs.
func (b *replayBench) decode(evs []tracein.Event) ([]tracein.Event, error) {
	f, err := os.Open(b.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := tracein.NewDecoder(f)
	if err != nil {
		return nil, err
	}
	evs = evs[:0]
	for {
		var ev tracein.Event
		err := d.Next(&ev)
		if errors.Is(err, io.EOF) {
			return evs, nil
		}
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
}

// sliceNext hands out evs in order, then io.EOF.
func sliceNext(evs []tracein.Event) func() (tracein.Event, error) {
	i := 0
	return func() (tracein.Event, error) {
		if i == len(evs) {
			return tracein.Event{}, io.EOF
		}
		i++
		return evs[i-1], nil
	}
}

func (b *replayBench) reference() (string, error) {
	evs, err := b.decode(nil)
	if err != nil {
		return "", err
	}
	r, err := b.serial(nil, sliceNext(evs))
	return r.res.Digest(), err
}

// traced runs four serial passes: decode timing, an untraced serial
// replay (the reference), a replay whose next() records the gap between
// consecutive calls as the apply time of the event just handed over,
// and a replay with a counts-only tracer attached. All three replays
// must digest identically.
func (b *replayBench) traced(l layers, _ float64) (string, uint64, error) {
	var evs []tracein.Event
	var decodes []time.Duration
	for i := 0; i < decodeReps; i++ {
		start := time.Now()
		var err error
		if evs, err = b.decode(evs); err != nil {
			return "", 0, err
		}
		decodes = append(decodes, time.Since(start))
	}
	n := float64(len(evs))
	dec := medianDur(decodes)
	l["tracein.decode_ns_per_event"] = dec * 1e9 / n
	l["tracein.decode_mb_per_s"] = float64(b.size) / 1e6 / dec
	l["tracein.bytes_per_event"] = float64(b.size) / n

	ref, err := b.serial(nil, sliceNext(evs))
	if err != nil {
		return "", 0, err
	}

	applyNs := make([]time.Duration, tracein.NumKinds())
	kinds := make([]uint64, tracein.NumKinds())
	inner := sliceNext(evs)
	last, kind := time.Time{}, -1
	timed, err := b.serial(nil, func() (tracein.Event, error) {
		now := time.Now()
		if kind >= 0 {
			applyNs[kind] += now.Sub(last)
			kinds[kind]++
		}
		ev, err := inner()
		kind = -1
		if err == nil {
			kind = int(ev.Kind)
		}
		last = time.Now()
		return ev, err
	})
	if err != nil {
		return "", ref.res.Events, err
	}

	counter := trace.NewCapped(0)
	counted, err := b.serial(counter, sliceNext(evs))
	ops := ref.res.Events + timed.res.Events + counted.res.Events
	if err != nil {
		return "", ops, err
	}
	want := ref.res.Digest()
	if d1, d2 := timed.res.Digest(), counted.res.Digest(); d1 != want || d2 != want {
		return "", ops, fmt.Errorf("%w: traced replay digests %s/%s differ from untraced %s", errGate, d1, d2, want)
	}

	for k := 0; k < tracein.NumKinds(); k++ {
		name := tracein.Kind(k).String()
		l["replay.apply_ns."+name] = ratio(float64(applyNs[k].Nanoseconds()), float64(kinds[k]))
		l["replay.events."+name] = float64(kinds[k])
	}
	l["replay.serial_events_per_s"] = n / ref.elapsed.Seconds()
	var perShard [replayShards]float64
	for _, ev := range evs {
		perShard[int(ev.Tenant)%replayShards]++
	}
	l["replay.shard_share_max"] = max(perShard[0], perShard[1]) / n
	l["replay.skipped_frac"] = float64(ref.res.Skipped) / n
	l["replay.ooms"] = float64(ref.res.OOMs)
	l["osim.faults_per_op"] = float64(ref.res.Faults) / n
	// Every recorded fault appends one uint64 latency to its kernel's
	// osim.Stats.FaultLatencies. The engine does not expose its kernels,
	// so the log size is derived from the fault count.
	l["osim.fault_log_mb"] = float64(ref.res.Faults) * 8 / (1 << 20)
	l["check.drain_audit_ms"] = medianDur([]time.Duration{ref.audit, timed.audit, counted.audit}) * 1e3
	countLayers(l, counter, n)
	l["bench.trace_overhead_pct"] = (timed.elapsed.Seconds()/ref.elapsed.Seconds() - 1) * 100
	return want, ops, nil
}

// countLayers fills the osim and buddy counts from a counts-only
// tracer; ops is the number of workload operations it observed.
func countLayers(l layers, t *trace.Tracer, ops float64) {
	for i, k := range faultKinds {
		l["osim.faults."+k] = float64(t.Count(trace.EvFault4K + trace.Kind(i)))
	}
	hits, falls := float64(t.Count(trace.EvCATargetHit)), float64(t.Count(trace.EvCAFallback))
	l["osim.ca_target_hit_frac"] = ratio(hits, hits+falls)
	l["osim.migrations"] = float64(t.Count(trace.EvMigrate))
	l["buddy.splits_per_kop"] = ratio(float64(t.Count(trace.EvBuddySplit))*1000, ops)
	l["buddy.coalesces_per_kop"] = ratio(float64(t.Count(trace.EvBuddyCoalesce))*1000, ops)
}
