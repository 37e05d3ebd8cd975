package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
		{"-synth", "100", "-csv", "c.csv", "-interval", "0"},   // non-positive sampling interval
		{"-synth", "100", "-csv", "c.csv", "-interval", "-1s"}, // negative sampling interval
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

// TestBadCountFlags pins that a count flag out of range is refused
// with exit 2 and a message naming the flag, rather than silently
// replaced by a default or clamped.
func TestBadCountFlags(t *testing.T) {
	for _, c := range []struct {
		flag, value string
	}{
		{"-shards", "0"},
		{"-shards", "-3"},
		{"-tenants", "0"},
		{"-tenants", "-1"},
		{"-tenants", fmt.Sprint(tracein.MaxTenant + 2)},
		{"-sample", "0"},
		{"-sample", "-4096"},
	} {
		var out, errb bytes.Buffer
		if code := run([]string{"-synth", "100", c.flag, c.value}, &out, &errb); code != 2 {
			t.Errorf("%s %s: exit %d, want 2", c.flag, c.value, code)
		}
		if !strings.Contains(errb.String(), c.flag+" ") {
			t.Errorf("%s %s: message does not name the flag: %q", c.flag, c.value, errb.String())
		}
	}
	// The largest tenant count is still accepted.
	var out, errb bytes.Buffer
	if code := run([]string{"-synth", "100", "-tenants", fmt.Sprint(tracein.MaxTenant + 1), "-oneshot"}, &out, &errb); code != 0 {
		t.Errorf("-tenants %d: exit %d, stderr: %s", tracein.MaxTenant+1, code, errb.String())
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
	a := writeTrace(t, dir, "a.mtrc", tracein.SynthConfig{Seed: 10, Events: 1500, Tenants: 2}, true)
	b := writeTrace(t, dir, "b.mtrc", tracein.SynthConfig{Seed: 11, Events: 1500, Tenants: 2}, true)
	csv := filepath.Join(dir, "counters.csv")
	var out, errb bytes.Buffer
	args := []string{"-shards", "2", "-oneshot", "-csv", csv, "-interval", "10ms", a, b}
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
// cannot be bound fails after the signal watcher is already running,
// and it must exit. The inputs themselves start no goroutines.
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
	if err := eng.Replay(tracein.NewSynth(tracein.SynthConfig{Seed: 3, Events: 2000, Tenants: 2})); err != nil {
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

// writeTrace encodes Synth(cfg) to dir/name and returns the path.
func writeTrace(t *testing.T, dir, name string, cfg tracein.SynthConfig, crc bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tracein.Encode(&buf, tracein.Synth(cfg), crc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamMergeDeterministic pins that the same inputs merge to the
// same digest whether presented as one file or split across two, and
// whether the streams come from trace files or from -synth.
func TestStreamMergeDeterministic(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, "one.mtrc", tracein.SynthConfig{Seed: 9, Events: 2000, Tenants: 2}, false)
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

	// -synth 4000 -streams 2 -seed 9 generates seeds 9 and 10, 2000
	// events each: the same two streams as these files.
	files := []string{
		writeTrace(t, dir, "s9.mtrc", tracein.SynthConfig{Seed: 9, Events: 2000, Tenants: 2}, true),
		writeTrace(t, dir, "s10.mtrc", tracein.SynthConfig{Seed: 10, Events: 2000, Tenants: 2}, true),
	}
	for _, jobs := range []string{"1", "4"} {
		synth := digest("-synth", "4000", "-streams", "2", "-tenants", "2", "-seed", "9", "-shards", "2", "-jobs", jobs)
		fromFiles := digest(append([]string{"-shards", "2", "-jobs", jobs}, files...)...)
		if synth != fromFiles {
			t.Fatalf("-jobs %s: -synth digest %s, trace files digest %s", jobs, synth, fromFiles)
		}
	}
}

// TestStreamErrorLocated pins that a failing input is reported with its
// stream name and the 1-based record that failed: record 3 of the
// second file carries a damaged CRC trailer.
func TestStreamErrorLocated(t *testing.T) {
	dir := t.TempDir()
	cfg := tracein.SynthConfig{Seed: 11, Events: 1500, Tenants: 2}
	a := writeTrace(t, dir, "a.mtrc", tracein.SynthConfig{Seed: 10, Events: 1500, Tenants: 2}, true)
	b := writeTrace(t, dir, "b.mtrc", cfg, true)

	// Records 1-3 alone end where record 3's CRC trailer ends.
	var head bytes.Buffer
	if err := tracein.Encode(&head, tracein.Synth(cfg)[:3], true); err != nil {
		t.Fatal(err)
	}
	wire, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	wire[head.Len()-1] ^= 0xff
	if err := os.WriteFile(b, wire, 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-oneshot", a, b}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if msg := errb.String(); !strings.Contains(msg, "b.mtrc: record 3:") || !strings.Contains(msg, tracein.ErrCRC.Error()) {
		t.Fatalf("stream error not located: %s", msg)
	}
}

// TestStreamTenantOverflowLocated pins that a tenant whose remapped ID
// (tenant*streams+idx) would pass tracein.MaxTenant is a located error
// rather than a wrap onto another tenant: with two streams, tenant 1<<19
// of stream 0 would land on machine tenant 0, which stream 0's tenant 0
// already owns.
func TestStreamTenantOverflowLocated(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, evs []tracein.Event) string {
		var buf bytes.Buffer
		if err := tracein.Encode(&buf, evs, true); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.mtrc", []tracein.Event{
		{Kind: tracein.KindMMap, Tenant: 0, TS: 1, Arg0: 4},
		{Kind: tracein.KindMMap, Tenant: 1 << 19, TS: 2, Arg0: 4},
	})
	b := write("b.mtrc", []tracein.Event{{Kind: tracein.KindMMap, Tenant: 0, TS: 3, Arg0: 4}})

	var out, errb bytes.Buffer
	if code := run([]string{"-oneshot", a, b}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if msg := errb.String(); !strings.Contains(msg, "a.mtrc: record 2:") {
		t.Fatalf("tenant overflow not located: %s", msg)
	}
}

// TestMergedSourceAllocs pins that the input path streams: draining the
// merge over two million-event synthesizers allocates a small constant,
// not the traces.
func TestMergedSourceAllocs(t *testing.T) {
	const events = 2_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	src, err := openStreams(nil, events, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ev tracein.Event
	n := 0
	for {
		err := src.Next(&ev)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	runtime.ReadMemStats(&after)
	if n != events {
		t.Fatalf("merged %d events, want %d", n, events)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes allocated", got)
	if got >= 64<<10 {
		t.Fatalf("draining %d merged events allocated %d bytes, want < 64 KiB", events, got)
	}
}
