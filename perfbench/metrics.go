package main

import (
	"sort"
	"time"

	"repro/internal/hw/translation"
	"repro/internal/tracein"
)

// metricSpec is one reported metric: its name, unit, and which
// direction is an improvement. The lists below are the source of truth
// for what a run prints; BENCHMARK.json at the repository root must
// declare the same names and units (TestBenchmarkJSONMatchesSpecs).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are printed by every untraced run (--trace 0), on every
// workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
}

// translateConfigs are the six sim.Run configurations of translate-
// stream, in run order: the Fig 13 baselines and SpOT cell, then the
// figBackends virtualized cells.
var translateConfigs = []translateConfig{
	{name: "native-thp", env: envNativeTHP},
	{name: "nested-thp", env: envNestedTHP},
	{name: "nested-ca-spot", env: envNestedCA, schemes: true},
	{name: "nested-ca-hashed", env: envNestedCA, backend: translation.BackendHashed},
	{name: "nested-ca-rmm", env: envNestedCA, backend: translation.BackendRMM},
	{name: "nested-ca-ds", env: envNestedCA, backend: translation.BackendDS},
}

// faultKinds name the osim fault kinds in trace.Kind order
// (trace.EvFault4K through trace.EvFaultEager).
var faultKinds = []string{"4k", "huge", "cow", "file", "eager"}

// perLayerSpecs lists every metric a traced run (--trace 1) prints, on
// every workload. A layer a workload does not exercise reports 0.
func perLayerSpecs() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) { out = append(out, metricSpec{name, unit, better}) }

	add("tracein.decode_ns_per_event", "ns", "lower")
	add("tracein.decode_mb_per_s", "MB/s", "higher")
	add("tracein.bytes_per_event", "B", "lower")
	for k := 0; k < tracein.NumKinds(); k++ {
		add("replay.apply_ns."+tracein.Kind(k).String(), "ns", "lower")
	}
	for k := 0; k < tracein.NumKinds(); k++ {
		add("replay.events."+tracein.Kind(k).String(), "count", "higher")
	}
	add("replay.serial_events_per_s", "1/s", "higher")
	add("replay.shard_share_max", "frac", "lower")
	add("replay.skipped_frac", "frac", "lower")
	add("replay.ooms", "count", "lower")

	for _, k := range faultKinds {
		add("osim.faults."+k, "count", "lower")
	}
	add("osim.faults_per_op", "count", "lower")
	add("osim.ca_target_hit_frac", "frac", "higher")
	add("osim.migrations", "count", "lower")
	add("osim.fault_log_mb", "MB", "lower")
	add("osim.populate_ns_per_page", "ns", "lower")

	for _, c := range translateConfigs {
		add("sim.ns_per_access."+c.name, "ns", "lower")
	}
	for _, c := range translateConfigs {
		add("translation.miss_ratio."+c.name, "frac", "lower")
	}
	for _, b := range translation.Names() {
		add("translation.lookup_ns."+b, "ns", "lower")
	}
	for _, b := range translation.Names() {
		add("translation.translate_ns."+b, "ns", "lower")
	}
	add("workloads.stream_ns_per_access", "ns", "lower")
	add("spot.correct_frac", "frac", "higher")
	add("spot.mispredict_frac", "frac", "lower")

	add("check.audit_ms", "ms", "lower")
	add("check.drain_audit_ms", "ms", "lower")
	add("aging.audits", "count", "higher")

	add("daemon.poll_ns", "ns", "lower")
	add("daemon.polls", "count", "lower")
	add("daemon.time_share", "frac", "lower")

	add("buddy.splits_per_kop", "count", "lower")
	add("buddy.coalesces_per_kop", "count", "lower")

	add("model.vthp_overhead_pct", "%", "lower")
	add("model.spot_overhead_pct", "%", "lower")
	add("model.ufi_2m_final", "frac", "lower")

	add("bench.trace_overhead_pct", "%", "lower")
	return out
}

// countMetrics are the per-layer metrics that are exact counts or
// modelled values: they must repeat bit for bit across runs of one seed
// (TestTracedRunIsTransparent). Every other per-layer metric is a host time.
var countMetrics = func() map[string]bool {
	m := map[string]bool{
		"tracein.bytes_per_event": true,
		"replay.shard_share_max":  true,
		"replay.skipped_frac":     true,
		"replay.ooms":             true,
		"osim.faults_per_op":      true,
		"osim.ca_target_hit_frac": true,
		"osim.migrations":         true,
		"osim.fault_log_mb":       true,
		"spot.correct_frac":       true,
		"spot.mispredict_frac":    true,
		"aging.audits":            true,
		"daemon.polls":            true,
		"buddy.splits_per_kop":    true,
		"buddy.coalesces_per_kop": true,
		"model.vthp_overhead_pct": true,
		"model.spot_overhead_pct": true,
		"model.ufi_2m_final":      true,
	}
	for k := 0; k < tracein.NumKinds(); k++ {
		m["replay.events."+tracein.Kind(k).String()] = true
	}
	for _, k := range faultKinds {
		m["osim.faults."+k] = true
	}
	for _, c := range translateConfigs {
		m["translation.miss_ratio."+c.name] = true
	}
	return m
}()

// layers collects a traced run's per-layer values by name.
type layers map[string]float64

// median returns the median of xs (0 for none). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
