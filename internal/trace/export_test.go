package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// chromeDoc mirrors the wire schema for round-tripping through
// encoding/json, the way Perfetto's importer reads it.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   uint64         `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Dur  uint64         `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func exportChrome(t *testing.T, tr *Tracer) chromeDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter wrote invalid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

func TestChromeTraceSchema(t *testing.T) {
	tr := New()
	tr.Emit(EvFault4K, 0x1000, 600, 5000)
	start := tr.Start()
	tr.EmitSpan(EvIngensEpoch, start, 3, 0, 9000)
	tr.EmitDur(EvWalkNative, 24, 0x2000, 1, 4)
	tr.Emit(EvBuddyDepth, 0, 3, 17)
	tr.Emit(EvBuddyFrag, 1, 250, 0)
	tr.EmitPhase("xsbench/setup", tr.Start())

	doc := exportChrome(t, tr)

	byName := map[string][]int{}
	for i, e := range doc.TraceEvents {
		byName[e.Name] = append(byName[e.Name], i)
		if e.Name == "" || e.Ph == "" {
			t.Errorf("event %d missing name/ph: %+v", i, e)
		}
		if e.PID != 1 {
			t.Errorf("event %d pid = %d, want 1", i, e.PID)
		}
		if e.Ph != "M" && e.TID == 0 {
			t.Errorf("event %d has no lane tid: %+v", i, e)
		}
	}

	// Metadata names the process and every lane.
	if len(byName["process_name"]) != 1 || len(byName["thread_name"]) != len(laneNames) {
		t.Errorf("metadata events: process=%d threads=%d, want 1 and %d",
			len(byName["process_name"]), len(byName["thread_name"]), len(laneNames))
	}

	fault := doc.TraceEvents[byName["fault.4k"][0]]
	if fault.Ph != "i" {
		t.Errorf("fault ph = %q, want i", fault.Ph)
	}
	if fault.Args["va"] != float64(0x1000) || fault.Args["lat_ns"] != float64(600) || fault.Args["clock"] != float64(5000) {
		t.Errorf("fault args wrong: %v", fault.Args)
	}

	epoch := doc.TraceEvents[byName["daemon.ingens"][0]]
	if epoch.Ph != "X" || epoch.TS != start || epoch.Dur == 0 {
		t.Errorf("epoch span wrong: %+v", epoch)
	}
	if epoch.Args["promotions"] != float64(3) {
		t.Errorf("epoch args wrong: %v", epoch.Args)
	}

	walk := doc.TraceEvents[byName["walk.native"][0]]
	if walk.Ph != "X" || walk.Dur != 24 {
		t.Errorf("walk span should carry its cycle cost as dur: %+v", walk)
	}

	depth := doc.TraceEvents[byName["buddy.z0.free"][0]]
	if depth.Ph != "C" || depth.Args["o3"] != float64(17) {
		t.Errorf("depth counter wrong: %+v", depth)
	}
	frag := doc.TraceEvents[byName["buddy.z1.frag"][0]]
	if frag.Ph != "C" || frag.Args["permille"] != float64(250) {
		t.Errorf("frag counter wrong: %+v", frag)
	}

	// Phase spans export under their interned name.
	phase := doc.TraceEvents[byName["xsbench/setup"][0]]
	if phase.Ph != "X" {
		t.Errorf("phase ph = %q, want X", phase.Ph)
	}
}

func TestChromeTraceZeroDurSpanVisible(t *testing.T) {
	tr := New()
	tr.EmitSpan(EvSimBatch, tr.Start(), 0, 0, 0)
	doc := exportChrome(t, tr)
	for _, e := range doc.TraceEvents {
		if e.Name == "sim.batch" && e.Dur == 0 {
			t.Error("zero-width span exported with dur 0 (invisible in Perfetto)")
		}
	}
}

func TestChromeTraceNilTracer(t *testing.T) {
	var tr *Tracer
	doc := exportChrome(t, tr)
	if len(doc.TraceEvents) != 0 {
		t.Errorf("nil tracer exported %d events, want 0", len(doc.TraceEvents))
	}
}

func TestCounterCSVRoundTrip(t *testing.T) {
	tr := New()
	g := tr.Gauge("buddy.z0.frag")
	tr.Emit(EvFault4K, 1, 0, 0)
	tr.SetGauge(g, 111)
	tr.Sample()
	tr.Emit(EvPromote, 2, 0, 0)
	// A gauge registered after the first sample: old rows zero-fill.
	late := tr.Gauge("buddy.z1.frag")
	tr.SetGauge(late, 222)
	tr.Sample()

	var buf bytes.Buffer
	if err := tr.WriteCounterCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("exporter wrote invalid CSV: %v\n%s", err, buf.String())
	}
	// Header + 2 samples + the synthesized final row.
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4:\n%s", len(rows), buf.String())
	}
	header := rows[0]
	if header[0] != "ts" {
		t.Errorf("first column = %q, want ts", header[0])
	}
	wantCols := 1 + NumKinds() + 2
	for i, r := range rows {
		if len(r) != wantCols {
			t.Errorf("row %d has %d columns, want %d", i, len(r), wantCols)
		}
	}
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		t.Fatalf("column %q missing from header %v", name, header)
		return -1
	}
	cell := func(row, c int) uint64 {
		v, err := strconv.ParseUint(rows[row][c], 10, 64)
		if err != nil {
			t.Fatalf("row %d col %d: %v", row, c, err)
		}
		return v
	}
	f4k := col("ev.fault.4k")
	if cell(1, f4k) != 1 || cell(2, f4k) != 1 || cell(3, f4k) != 1 {
		t.Errorf("fault.4k column wrong: %v", buf.String())
	}
	prom := col("ev.promote")
	if cell(1, prom) != 0 || cell(2, prom) != 1 {
		t.Errorf("promote column should go 0 -> 1 across samples:\n%s", buf.String())
	}
	if c := col("buddy.z1.frag"); cell(1, c) != 0 || cell(2, c) != 222 {
		t.Errorf("late gauge should zero-fill old rows:\n%s", buf.String())
	}
	if c := col("buddy.z0.frag"); cell(1, c) != 111 {
		t.Errorf("gauge snapshot wrong:\n%s", buf.String())
	}

	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := tr.WriteCounterCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("repeated CSV export differs")
	}
}

func TestCounterCSVNilTracer(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteCounterCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "ts\n" {
		t.Errorf("nil CSV = %q, want header only", buf.String())
	}
}

// TestChromeTraceShardLanes checks the sharded-campaign export: each
// shard's epoch spans land on a dynamic per-shard lane with a
// "shard<N>" thread_name, while barrier spans stay on the aging lane.
func TestChromeTraceShardLanes(t *testing.T) {
	tr := New()
	for step := uint64(0); step < 2; step++ {
		for shard := uint64(0); shard < 3; shard++ {
			tr.EmitSpan(EvShardEpoch, tr.Start(), shard, step, 1000*(step+1))
		}
		tr.EmitSpan(EvShardBarrier, tr.Start(), step, 0, 1000*(step+1)+500)
	}

	doc := exportChrome(t, tr)

	names := map[int]string{} // tid -> thread_name metadata
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			names[e.TID], _ = e.Args["name"].(string)
		}
	}
	epochs, barriers := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Name {
		case "shard.epoch":
			epochs++
			shard, ok := e.Args["shard"].(float64)
			if !ok {
				t.Fatalf("shard.epoch missing shard arg: %+v", e)
			}
			wantTID := laneShardBase + int(shard)
			if e.TID != wantTID {
				t.Errorf("shard %v epoch on tid %d, want %d", shard, e.TID, wantTID)
			}
			if want := "shard" + strconv.Itoa(int(shard)); names[e.TID] != want {
				t.Errorf("tid %d named %q, want %q", e.TID, names[e.TID], want)
			}
		case "shard.barrier":
			barriers++
			if e.TID >= laneShardBase {
				t.Errorf("barrier span leaked onto a shard lane (tid %d)", e.TID)
			}
		}
	}
	if epochs != 6 || barriers != 2 {
		t.Fatalf("epochs=%d barriers=%d, want 6 and 2", epochs, barriers)
	}
}

// TestChromeTraceNoShardLanesWithoutShards pins that non-sharded
// traces emit no shard thread metadata at all.
func TestChromeTraceNoShardLanesWithoutShards(t *testing.T) {
	tr := New()
	tr.Emit(EvFault4K, 0x1000, 600, 5000)
	doc := exportChrome(t, tr)
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" && e.TID >= laneShardBase {
			t.Fatalf("unexpected shard lane metadata: %+v", e)
		}
	}
}
