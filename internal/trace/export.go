package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Lanes group event kinds into Chrome-trace threads (tid) so Perfetto
// renders one track per subsystem.
const (
	laneKernel = 1 + iota
	laneDaemon
	laneBuddy
	laneTLB
	laneWalker
	laneVirt
	laneSim
	lanePhase
	laneAging
	laneReplay

	// laneShardBase is where the dynamic per-shard lanes start: shard s
	// of a sharded aging campaign renders at tid laneShardBase+s, named
	// "shard<s>". Kept clear of the fixed lanes above.
	laneShardBase = 32
)

var laneNames = map[int]string{
	laneKernel: "kernel",
	laneDaemon: "daemon",
	laneBuddy:  "buddy",
	laneTLB:    "tlb",
	laneWalker: "walker",
	laneVirt:   "virt",
	laneSim:    "sim",
	lanePhase:  "phase",
	laneAging:  "aging",
	laneReplay: "replay",
}

// kindLane maps every kind to its lane.
var kindLane = [numKinds]int{
	EvFault4K: laneKernel, EvFaultHuge: laneKernel, EvFaultCoW: laneKernel,
	EvFaultFile: laneKernel, EvFaultEager: laneKernel,
	EvCAPlace: laneKernel, EvCATargetHit: laneKernel, EvCAFallback: laneKernel,
	EvPromote: laneDaemon, EvDemote: laneDaemon, EvMigrate: laneDaemon,
	EvIngensEpoch: laneDaemon, EvRangerEpoch: laneDaemon,
	EvBuddySplit: laneBuddy, EvBuddyCoalesce: laneBuddy,
	EvBuddyDepth: laneBuddy, EvBuddyFrag: laneBuddy,
	EvTLBMiss: laneTLB, EvTLBEvict: laneTLB,
	EvWalkNative: laneWalker, EvWalk2D: laneWalker,
	EvSpotPredict: laneWalker, EvSpotMispredict: laneWalker,
	EvNestedFault: laneVirt,
	EvSimBatch:    laneSim, EvPhase: lanePhase,
	EvAgingSnapshot: laneAging,
	// EvShardEpoch is re-homed per event onto laneShardBase+shard in
	// the exporter; EvShardBarrier stays on the aging lane.
	EvShardEpoch: laneAging, EvShardBarrier: laneAging,
	// EvReplayBatch is re-homed onto the shard lane too; laneReplay is
	// its static home for traces without shard metadata.
	EvReplayBatch: laneReplay,
}

// kindArgs names each kind's A/B/C arguments for the Chrome export;
// an empty name omits that argument.
var kindArgs = [numKinds][3]string{
	EvFault4K:        {"va", "lat_ns", "clock"},
	EvFaultHuge:      {"va", "lat_ns", "clock"},
	EvFaultCoW:       {"va", "lat_ns", "clock"},
	EvFaultFile:      {"va", "lat_ns", "clock"},
	EvFaultEager:     {"va", "lat_ns", "clock"},
	EvCAPlace:        {"va", "offset", "pages"},
	EvCATargetHit:    {"va", "pfn", "order"},
	EvCAFallback:     {"va", "order", ""},
	EvPromote:        {"va", "pfn", "clock"},
	EvDemote:         {"va", "pfn", "clock"},
	EvMigrate:        {"va", "pfn", "pages"},
	EvIngensEpoch:    {"promotions", "", "clock"},
	EvRangerEpoch:    {"migrated", "", "clock"},
	EvBuddySplit:     {"zone", "pfn", "order"},
	EvBuddyCoalesce:  {"zone", "pfn", "order"},
	EvBuddyDepth:     {"zone", "order", "blocks"},
	EvBuddyFrag:      {"zone", "permille", ""},
	EvTLBMiss:        {"va", "", ""},
	EvTLBEvict:       {"tag", "huge", ""},
	EvWalkNative:     {"va", "level", "refs"},
	EvWalk2D:         {"va", "refs", "levels"},
	EvSpotPredict:    {"pc", "va", ""},
	EvSpotMispredict: {"pc", "va", ""},
	EvNestedFault:    {"gva", "gpa", ""},
	EvSimBatch:       {"n", "misses", "faults"},
	EvPhase:          {"", "", ""},
	EvAgingSnapshot:  {"step", "rss_pages", "frag_permille"},
	EvShardEpoch:     {"shard", "step", "clock"},
	EvShardBarrier:   {"step", "retried", "clock"},
	EvReplayBatch:    {"shard", "events", "faults"},
}

// spanKinds are exported as Chrome "X" (complete) events with a
// duration; everything else is an instant or a counter.
var spanKinds = map[Kind]bool{
	EvIngensEpoch: true, EvRangerEpoch: true,
	EvWalkNative: true, EvWalk2D: true,
	EvSimBatch: true, EvPhase: true,
	EvShardEpoch: true, EvShardBarrier: true,
	EvReplayBatch: true,
}

// counterKinds are exported as Chrome "C" (counter) events so Perfetto
// draws them as value tracks rather than instants.
var counterKinds = map[Kind]bool{EvBuddyDepth: true, EvBuddyFrag: true}

// chromeEvent is one entry of the Chrome trace-event format's
// traceEvents array. Every event carries name/ph/ts/pid/tid — the
// schema cmd/tracestat and the exporter tests key on.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Dur  uint64         `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports the stored events as Chrome trace-event
// JSON ({"traceEvents":[...]}), loadable in Perfetto or
// chrome://tracing. Timestamps are the tracer's logical sequence
// numbers (the format nominally wants microseconds; Perfetto only
// needs monotonicity). Writes an empty document on a nil tracer.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	put := func(ev chromeEvent) error {
		buf, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if _, err := bw.WriteString("\n"); err != nil {
			return err
		}
		_, err = bw.Write(buf)
		return err
	}

	if t != nil {
		if err := put(chromeEvent{Name: "process_name", Ph: "M", PID: 1, TID: 0,
			Args: map[string]any{"name": "memsim"}}); err != nil {
			return err
		}
		for _, tid := range []int{laneKernel, laneDaemon, laneBuddy, laneTLB, laneWalker, laneVirt, laneSim, lanePhase, laneAging, laneReplay} {
			if err := put(chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": laneNames[tid]}}); err != nil {
				return err
			}
		}

		t.mu.Lock()
		events := append([]Event(nil), t.events...)
		phases := append([]string(nil), t.phases...)
		t.mu.Unlock()

		// Shard epoch spans get one dynamic lane per shard; name every
		// lane the trace actually uses before emitting events.
		shards := -1
		for _, e := range events {
			if (e.Kind == EvShardEpoch || e.Kind == EvReplayBatch) && int(e.A) > shards {
				shards = int(e.A)
			}
		}
		for s := 0; s <= shards; s++ {
			if err := put(chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: laneShardBase + s,
				Args: map[string]any{"name": fmt.Sprintf("shard%d", s)}}); err != nil {
				return err
			}
		}

		for _, e := range events {
			ce := chromeEvent{
				Name: e.Kind.String(),
				Ph:   "i",
				S:    "t",
				TS:   e.TS,
				PID:  1,
				TID:  kindLane[e.Kind],
			}
			if e.Kind == EvShardEpoch || e.Kind == EvReplayBatch {
				ce.TID = laneShardBase + int(e.A)
			}
			switch {
			case counterKinds[e.Kind]:
				// One counter track per zone; same-name counter events
				// merge into one multi-series track in Perfetto.
				ce.Ph, ce.S = "C", ""
				if e.Kind == EvBuddyDepth {
					ce.Name = fmt.Sprintf("buddy.z%d.free", e.A)
					ce.Args = map[string]any{fmt.Sprintf("o%d", e.B): e.C}
				} else {
					ce.Name = fmt.Sprintf("buddy.z%d.frag", e.A)
					ce.Args = map[string]any{"permille": e.B}
				}
			case spanKinds[e.Kind]:
				ce.Ph, ce.S = "X", ""
				ce.Dur = e.Dur
				if ce.Dur == 0 {
					ce.Dur = 1 // zero-width spans are invisible in Perfetto
				}
				if e.Kind == EvPhase {
					if e.A < uint64(len(phases)) {
						ce.Name = phases[e.A]
					}
				} else {
					ce.Args = argMap(e)
				}
			default:
				ce.Args = argMap(e)
			}
			if err := put(ce); err != nil {
				return err
			}
		}
	}

	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// argMap builds the kind-specific args object, omitting unnamed slots.
func argMap(e Event) map[string]any {
	names := kindArgs[e.Kind]
	vals := [3]uint64{e.A, e.B, e.C}
	m := make(map[string]any, 3)
	for i, n := range names {
		if n != "" {
			m[n] = vals[i]
		}
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// WriteCounterCSV exports the counter time series: one column per
// event kind (cumulative counts, prefixed "ev.") plus one per
// registered gauge, one row per Sample call, and a final row with the
// current values. Output is deterministic for a deterministic run.
func (t *Tracer) WriteCounterCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if t == nil {
		if _, err := bw.WriteString("ts\n"); err != nil {
			return err
		}
		return bw.Flush()
	}

	t.mu.Lock()
	gaugeNames := append([]string(nil), t.gaugeNames...)
	rows := append([]counterRow(nil), t.samples...)
	final := counterRow{ts: t.seq, kinds: t.kindCount}
	final.gauges = append(final.gauges, t.gauges...)
	t.mu.Unlock()
	rows = append(rows, final)

	if _, err := bw.WriteString("ts"); err != nil {
		return err
	}
	for k := Kind(0); k < numKinds; k++ {
		fmt.Fprintf(bw, ",ev.%s", k)
	}
	for _, g := range gaugeNames {
		fmt.Fprintf(bw, ",%s", g)
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}

	for _, r := range rows {
		fmt.Fprintf(bw, "%d", r.ts)
		for _, c := range r.kinds {
			fmt.Fprintf(bw, ",%d", c)
		}
		// Gauges registered after a sample was taken get zeros for the
		// old rows so every row has the full column count.
		for i := range gaugeNames {
			v := uint64(0)
			if i < len(r.gauges) {
				v = r.gauges[i]
			}
			fmt.Fprintf(bw, ",%d", v)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
