package tracein

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/check"
)

var update = flag.Bool("update", false, "rewrite the golden trace, its decoded snapshot, and the replay digest")

// goldenSynth is the committed golden trace's generator config; the
// trace file itself is what is pinned — regenerating it must be a
// deliberate -update, because any byte drift is format drift.
var goldenSynth = SynthConfig{Seed: 42, Events: 400, Tenants: 3}

// goldenReplayCfg is the replay variant the digest snapshot pins.
var goldenReplayCfg = ReplayConfig{Shards: 2, Jobs: 1, Policy: check.PolicyCA}

// goldenReplay is the committed replay outcome of the golden trace.
type goldenReplay struct {
	Digest   string `json:"digest"`
	Events   uint64 `json:"events"`
	Faults   uint64 `json:"faults"`
	Accesses uint64 `json:"accesses"`
	Misses   uint64 `json:"misses"`
}

// TestGoldenTrace pins the wire format and the replay semantics at
// once: the committed golden.trace must decode to the committed event
// list byte-for-byte and replay to the committed counter digest. Any
// codec or replay-semantics change trips this test; refresh with:
//
//	go test ./internal/tracein -run TestGoldenTrace -update
func TestGoldenTrace(t *testing.T) {
	tracePath := filepath.Join("testdata", "golden.trace")
	eventsPath := filepath.Join("testdata", "golden_events.json")
	replayPath := filepath.Join("testdata", "golden_replay.json")

	if *update {
		var buf bytes.Buffer
		if err := Encode(&buf, Synth(goldenSynth), true); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	wire, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events, err := Decode(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("golden trace no longer decodes: %v", err)
	}

	// The encoder must reproduce the committed bytes exactly.
	var reenc bytes.Buffer
	if err := Encode(&reenc, events, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc.Bytes(), wire) {
		t.Fatal("re-encoding the golden trace changed its bytes (wire format drift)")
	}

	e, err := NewEngine(goldenReplayCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := replaySlice(e, events); err != nil {
		t.Fatal(err)
	}
	if err := e.Audit(); err != nil {
		t.Fatal(err)
	}
	r := e.Result()
	gotReplay := goldenReplay{
		Digest: r.Digest(), Events: r.Events, Faults: r.Faults,
		Accesses: r.Accesses, Misses: r.Misses,
	}

	if *update {
		writeJSON(t, eventsPath, events)
		writeJSON(t, replayPath, gotReplay)
	}

	var wantEvents []Event
	readJSON(t, eventsPath, &wantEvents)
	if !reflect.DeepEqual(events, wantEvents) {
		t.Fatalf("decoded event list drifted from %s (run -update deliberately)", eventsPath)
	}
	var wantReplay goldenReplay
	readJSON(t, replayPath, &wantReplay)
	if gotReplay != wantReplay {
		t.Fatalf("replay outcome drifted:\n got %+v\nwant %+v\n(run -update deliberately)", gotReplay, wantReplay)
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		t.Fatal(err)
	}
}
