package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
)

// metricSpec names one metric and its unit. The lists below must match
// BENCHMARK.json (checked by TestSpecsMatchBenchmarkJSON).
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the tuner sees, printed on every
// workload when tracing is off. Each is defined for every workload;
// README.md gives the per-workload meaning.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"time_to_function_ms", "ms"},
	{"accesses_per_s", "accesses/s"},
	{"reduction_pct", "%"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics, named
// <layer>.<quantity> after the repository's modules. A layer a workload
// does not run reports 0.
var perLayer = []metricSpec{
	{"trace.decode_s", "s"},
	{"trace.decode_accesses_per_s", "accesses/s"},
	{"profile.build_s", "s"},
	{"profile.accesses_per_s", "accesses/s"},
	{"profile.candidates", "count"},
	{"profile.total_pairs", "count"},
	{"profile.candidate_ratio", "ratio"},
	{"profile.alloc_mb", "MB"},
	{"search.s", "s"},
	{"search.evaluated", "count"},
	{"search.iterations", "count"},
	{"search.evals_per_s", "1/s"},
	{"search.alloc_mb", "MB"},
	{"cache.validate_s", "s"},
	{"cache.accesses_per_s", "accesses/s"},
	{"cache.misses_baseline", "count"},
	{"cache.misses_optimized", "count"},
	{"cache.fallbacks", "count"},
	{"core.overhead_s", "s"},
	{"serve.ingest_s", "s"},
	{"serve.wire_bytes", "bytes"},
	{"serve.batches", "count"},
	{"serve.drain_s", "s"},
	{"serve.retune_s_p50", "s"},
	{"serve.search_s_p50", "s"},
	{"serve.rotate_merge_publish_s_p50", "s"},
	{"serve.search_evaluated", "count"},
	{"serve.checkpoint_bytes", "bytes"},
	{"serve.rounds", "count"},
	{"serve.swaps", "count"},
	{"serve.shed", "count"},
	{"serve.dropped", "count"},
	{"serve.restarts", "count"},
	{"tracing.pass_overhead_s", "s"},
	{"tracing.latency_overhead_ms", "ms"},
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the reported metrics, refusing names and units the
// result format does not allow and names reported twice.
type metricSet map[string]metric

func (m metricSet) add(name, unit string, v float64) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	if !metricUnit.MatchString(unit) {
		return fmt.Errorf("metric %s: invalid unit %q", name, unit)
	}
	if _, dup := m[name]; dup {
		return fmt.Errorf("metric %s reported twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s: value %v is not a finite number", name, v)
	}
	m[name] = metric{Value: v, Unit: unit}
	return nil
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeResult(w io.Writer, r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quartiles returns the first quartile, median and third quartile of
// xs, computed as Python's statistics.quantiles(xs, n=4) does
// (the default "exclusive" method); a single value is all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld, m := len(d), len(d)+1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// environment describes where and how a run was made.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	Setups     int    `json:"setups"`
	Passes     int    `json:"passes"`
}

// vcsCommit is the revision the binary was built from, when the build
// could see version control; "unknown" otherwise.
func vcsCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func newEnvironment(workload string, seed uint64, traced bool) environment {
	return environment{
		Commit:     vcsCommit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
	}
}
