package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/tracein"
)

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                   // no input at all
		{"-synth", "100", "a.mtrc"},          // synth and files are exclusive
		{"-synth", "100", "-streams", "0"},   // bad stream count
		{"-badflag"},                         // unknown flag
		{"-synth", "100", "-policy", "nope"}, // unknown policy
		{"/does/not/exist.mtrc"},             // unreadable trace
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

func TestOneshotCleanAndDeterministic(t *testing.T) {
	args := []string{"-synth", "4000", "-streams", "2", "-tenants", "3",
		"-shards", "2", "-oneshot", "-digest"}
	var digests []string
	for run2 := 0; run2 < 2; run2++ {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		if !strings.Contains(out.String(), "audit clean") {
			t.Fatalf("no audit confirmation in output: %s", out.String())
		}
		m := regexp.MustCompile(`digest ([0-9a-f]{64})`).FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("no digest in output: %s", out.String())
		}
		digests = append(digests, m[1])
	}
	if digests[0] != digests[1] {
		t.Fatal("same args, different digest across runs")
	}
}

func TestTraceFileInput(t *testing.T) {
	dir := t.TempDir()
	for i, seed := range []int64{10, 11} {
		var buf bytes.Buffer
		err := tracein.Encode(&buf, tracein.Synth(tracein.SynthConfig{
			Seed: seed, Events: 1500, Tenants: 2,
		}), true)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, []string{"a.mtrc", "b.mtrc"}[i])
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	csv := filepath.Join(dir, "counters.csv")
	var out, errb bytes.Buffer
	args := []string{"-shards", "2", "-oneshot", "-csv", csv,
		"-interval", "10ms", filepath.Join(dir, "a.mtrc"), filepath.Join(dir, "b.mtrc")}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "drained 3000 events") {
		t.Fatalf("wrong event count: %s", out.String())
	}
	buf, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(buf), "\n", 2)[0]
	for _, col := range []string{"replay.events", "replay.faults"} {
		if !strings.Contains(head, col) {
			t.Fatalf("counter CSV header missing %q: %s", col, head)
		}
	}
}

func TestCorruptedExitCode(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-synth", "2000", "-shards", "2", "-oneshot", "-corrupt"}
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "audit FAILED") {
		t.Fatalf("no audit failure report: %s", errb.String())
	}
}

func TestMinEPSFloor(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-synth", "500", "-oneshot", "-mineps", "1e18"}
	if code := run(args, &out, &errb); code != 3 {
		t.Fatalf("exit %d, want 3 (stderr: %s)", code, errb.String())
	}
}

// TestFailedStatusRunLeaksNoGoroutines pins that run releases every
// goroutine it started on an early-return path: a -status address that
// cannot be bound fails after the stream feeders and the signal watcher
// are already running, and they must all exit.
func TestFailedStatusRunLeaksNoGoroutines(t *testing.T) {
	// os/signal starts one process-wide watcher on first use and keeps
	// it; start it before taking the baseline.
	warm := make(chan os.Signal, 1)
	signal.Notify(warm, syscall.SIGUSR1)
	signal.Stop(warm)

	before := runtime.NumGoroutine()
	var out, errb bytes.Buffer
	// Port 99999 is out of range, so the listen fails without any
	// address lookup.
	args := []string{"-synth", "20000", "-streams", "3", "-oneshot", "-status", "127.0.0.1:99999"}
	if code := run(args, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the failed run, %d after", before, after)
	}
}

// TestStatusHandler pins the /status JSON shape against the handler
// directly, without binding a port.
func TestStatusHandler(t *testing.T) {
	eng, err := tracein.NewEngine(tracein.ReplayConfig{Shards: 2, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.ReplayEvents(tracein.Synth(tracein.SynthConfig{Seed: 3, Events: 2000, Tenants: 2})); err != nil {
		t.Fatal(err)
	}
	sv := &server{eng: eng, streams: 2, start: time.Now().Add(-time.Second)}
	sv.draining.Store(true)

	rec := httptest.NewRecorder()
	sv.handleStatus(rec, httptest.NewRequest("GET", "/status", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"events", "skipped", "ooms", "faults", "accesses",
		"misses", "p50_translate_cycles", "p99_translate_cycles", "shards",
		"streams", "draining", "uptime_ms", "events_per_sec", "faults_per_sec"} {
		if _, ok := got[key]; !ok {
			t.Errorf("status JSON missing %q", key)
		}
	}
	if got["events"].(float64) != 2000 {
		t.Errorf("events = %v, want 2000", got["events"])
	}
	if got["draining"] != true {
		t.Errorf("draining = %v, want true", got["draining"])
	}
	if got["events_per_sec"].(float64) <= 0 {
		t.Errorf("events_per_sec = %v, want > 0", got["events_per_sec"])
	}
}

// TestStreamMergeDeterministic pins that the same inputs merge to the
// same digest whether presented as one file or split across two.
func TestStreamMergeDeterministic(t *testing.T) {
	dir := t.TempDir()
	evs := tracein.Synth(tracein.SynthConfig{Seed: 9, Events: 2000, Tenants: 2})
	var buf bytes.Buffer
	if err := tracein.Encode(&buf, evs, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "one.mtrc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	digest := func(args ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		// Flags must precede positional trace files.
		if code := run(append([]string{"-oneshot", "-digest"}, args...), &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		m := regexp.MustCompile(`digest ([0-9a-f]{64})`).FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("no digest: %s", out.String())
		}
		return m[1]
	}
	a := digest("-shards", "2", "-jobs", "1", path)
	b := digest("-shards", "2", "-jobs", "4", path)
	if a != b {
		t.Fatal("file replay digest differs across -jobs")
	}
}
