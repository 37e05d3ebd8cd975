package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

// smallSizes keep every workload's passes to well under a second.
var smallSizes = sizes{replayEvents: 4000, streamLen: 20_000, agingSteps: 30, warmSteps: 10}

// testSeed is not the default seed, so gates compare against the serial
// reference run rather than the full-size pinned digests.
const testSeed = 2

func newSmall(t *testing.T, name string) workload {
	t.Helper()
	w, err := newWorkload(name, testSeed, smallSizes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTracedRunIsTransparent checks that each workload's traced run —
// the replay next() timing source, the timed daemon wrappers, the
// backend probes, the counts-only tracers — produces outputs
// byte-identical to its untraced run, and that every per-layer count
// repeats exactly across two traced runs.
func TestTracedRunIsTransparent(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := newSmall(t, name)
			s, err := w.iterate()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := w.reference()
			if err != nil {
				t.Fatal(err)
			}
			if ref != s.digest {
				t.Fatalf("serial reference digest %s, timed request %s", ref, s.digest)
			}
			var runs [2]layers
			for i := range runs {
				runs[i] = layers{}
				d, _, err := w.traced(runs[i], 0.01)
				if err != nil {
					t.Fatal(err)
				}
				if d != s.digest {
					t.Fatalf("traced run %d digest %s, untraced %s", i, d, s.digest)
				}
			}
			for m := range countMetrics {
				if a, b := runs[0][m], runs[1][m]; a != b {
					t.Errorf("%s: %v then %v", m, a, b)
				}
			}
		})
	}
}

// TestMeasureEmitsEverySpec runs the whole measurement path in both
// modes and checks the result names exactly the specified metrics,
// passes its gate, and never reports an end-to-end metric as 0.
func TestMeasureEmitsEverySpec(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			w := newSmall(t, name)
			res, err := measure(w, name, testSeed, time.Nanosecond, traced, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if traced {
				specs = perLayerSpecs()
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", name, traced, s.Name)
				case m.Unit != s.Unit:
					t.Errorf("%s: %s unit %q, want %q", name, s.Name, m.Unit, s.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v", name, s.Name, m.Value)
				}
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the
// allowed characters, uniqueness, and the caps: at most 8 end-to-end
// and fewer than 128 per-layer metrics.
func TestMetricNames(t *testing.T) {
	if n := len(endToEnd); n > 8 {
		t.Errorf("%d end-to-end metrics, cap 8", n)
	}
	if n := len(perLayerSpecs()); n >= 128 {
		t.Errorf("%d per-layer metrics, cap 127", n)
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayerSpecs()...) {
		if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) {
			t.Errorf("bad name or unit: %q %q", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("%s declared twice", s.Name)
		}
		seen[s.Name] = true
	}
	for name := range countMetrics {
		if !seen[name] {
			t.Errorf("count metric %s is not a declared metric", name)
		}
	}
}

// benchmarkFile is the part of ../BENCHMARK.json these tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSpecs checks that BENCHMARK.json declares
// exactly the workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, want %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, program has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: declared %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayerSpecs())
}
