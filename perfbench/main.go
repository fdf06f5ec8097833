// Command perfbench is the repository's benchmark: it runs one workload
// of the tune pipeline or the serve loop from outside, through each
// layer's public entry points, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer breakdown) as
// the last line of standard output. README.md explains the workloads
// and what each metric should move. Run it through run.sh, which
// builds it from the checkout.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"xoridx/internal/hash"
)

// passOut is what one pass over a workload's inputs measured and
// produced.
type passOut struct {
	wall         time.Duration
	latenciesMs  []float64 // time-to-function samples: the pass (tune) or each round (serve)
	rateAccesses float64   // accesses behind accesses_per_s, over wall
	reductionNum float64   // reduction_pct = 100·(1 − num/den)
	reductionDen float64
	layer        map[string]float64 // per-layer values; traced passes only
	digest       string
	attempted    int
	failed       int
	checks       []string // failed output checks
}

func (p *passOut) check(format string, args ...any) {
	p.checks = append(p.checks, fmt.Sprintf(format, args...))
}

// runner is a workload whose inputs are set up.
type runner interface {
	pass(rec *recorder) (*passOut, error)
}

// workload is one benchmark workload. README.md records why each
// exists and which layer it loads.
type workload struct {
	name  string
	setup func(seed uint64, workDir string) (runner, error)
}

// The media kernels of paper Table 2.
var (
	shortKernels = []string{"dijkstra", "fft", "jpeg_enc", "jpeg_dec", "rijndael", "adpcm_dec", "adpcm_enc", "mpeg2_dec"}
	allKernels   = []string{"dijkstra", "fft", "jpeg_enc", "jpeg_dec", "lame", "rijndael", "susan", "adpcm_dec", "adpcm_enc", "mpeg2_dec"}
	// mixKernels is the xoridx serve "mix" cycle.
	mixKernels = []string{"fft", "rijndael", "adpcm_dec", "compress", "susan", "crc"}
)

var workloadList = []workload{
	// Cold general-XOR climbs over many small cells: search dominates.
	{"tune-general", func(seed uint64, _ string) (runner, error) {
		return setupTune(tuneSpec{kernels: shortKernels, scale: 1, cacheKB: []int{1, 4, 16},
			family: hash.FamilyGeneralXOR}, seed)
	}},
	// Long traces and a 2-input permutation family: profile and
	// validate dominate and search is under 1 %, so a search-only
	// change must leave this workload unchanged.
	{"tune-long", func(seed uint64, _ string) (runner, error) {
		return setupTune(tuneSpec{kernels: allKernels, scale: 4, cacheKB: []int{4},
			family: hash.FamilyPermutation, maxInputs: 2}, seed)
	}},
	// The serve loop, which the tune workloads never reach: windowed
	// decayed profiles, warm-started re-tunes, hot swaps, checkpoints.
	{"serve-drift", func(seed uint64, workDir string) (runner, error) {
		return setupServe(serveSpec{kernels: mixKernels, scale: 1, clients: 2,
			totalAccesses: 8_000_000, window: 1 << 18, batch: 4096}, seed, workDir)
	}},
}

// setups is how many times a run sets its inputs up; setup_s is the
// median.
const setups = 5

// buildDir holds the serve checkpoint while a run lasts and the span
// dump after it; run.sh builds the binary there too.
const buildDir = ".bench_build"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: tune-general, tune-long or serve-drift")
	seed := fs.Uint64("seed", 1, "workload seed: picks each kernel's page-aligned base (tune) or which client starts where in the kernel cycle (serve)")
	seconds := fs.Int("seconds", 20, "measure for about this many seconds (at least one pass)")
	traced := fs.Int("trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var wl *workload
	for i := range workloadList {
		if workloadList[i].name == *name {
			wl = &workloadList[i]
		}
	}
	switch {
	case wl == nil:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case *traced != 0 && *traced != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	env := newEnvironment(wl.name, *seed, *traced == 1)
	var setupS []float64
	var r runner
	for i := 0; i < setups; i++ {
		r = nil // let the GC free the previous set-up before timing the next
		runtime.GC()
		t0 := time.Now()
		r, err = wl.setup(*seed, workDir)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		env.Setups++
	}
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	// Passes alternate traced and untraced in a traced run, so the
	// difference between the two is the tracing overhead.
	var plain, withTrace []*passOut
	var spans []span
	deadline := time.Duration(*seconds) * time.Second
	minPasses := 1 + *traced
	start := time.Now()
	for i := 0; ; i++ {
		var rec *recorder
		if *traced == 1 && i%2 == 0 {
			rec = newRecorder()
		}
		out, err := r.pass(rec)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		if rec != nil {
			withTrace = append(withTrace, out)
			spans = rec.snapshot()
		} else {
			plain = append(plain, out)
		}
		env.Passes++
		fmt.Fprintf(stdout, "pass %d: traced %v, %.3f s\n", i, rec != nil, out.wall.Seconds())
		elapsed := time.Since(start)
		if i+1 >= minPasses && elapsed+elapsed/time.Duration(i+1) > deadline {
			break
		}
	}
	peakMB := peakRSSMB()

	all := append(append([]*passOut(nil), plain...), withTrace...)
	res := result{Correct: true}
	for _, p := range all {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, c := range p.checks {
			res.Correct = false
			fmt.Fprintf(stdout, "check failed: %s\n", c)
		}
		if p.digest != all[0].digest {
			res.Correct = false
			fmt.Fprintf(stdout, "check failed: digest %s differs from first pass's %s\n", p.digest, all[0].digest)
		}
	}

	mset := metricSet{}
	var spread []string
	addSamples := func(name, unit string, xs []float64) error {
		q1, med, q3 := quartiles(xs)
		spread = append(spread, fmt.Sprintf("%-34s %14.6g %-10s q1 %.6g q3 %.6g n=%d", name, med, unit, q1, q3, len(xs)))
		return mset.add(name, unit, med)
	}
	if *traced == 0 {
		var lat, rate, red []float64
		for _, p := range plain {
			lat = append(lat, p.latenciesMs...)
			rate = append(rate, p.rateAccesses/p.wall.Seconds())
			red = append(red, 100*(1-p.reductionNum/p.reductionDen))
		}
		for _, m := range []struct {
			spec metricSpec
			xs   []float64
		}{
			{endToEnd[0], setupS},
			{endToEnd[1], lat},
			{endToEnd[2], rate},
			{endToEnd[3], red},
			{endToEnd[4], []float64{peakMB}},
		} {
			if err := addSamples(m.spec.name, m.spec.unit, m.xs); err != nil {
				return err
			}
		}
	} else {
		for _, m := range perLayer {
			var xs []float64
			for _, p := range withTrace {
				xs = append(xs, p.layer[m.name])
			}
			switch m.name {
			case "tracing.pass_overhead_s":
				xs = []float64{medianOf(withTrace, wallS) - medianOf(plain, wallS)}
			case "tracing.latency_overhead_ms":
				xs = []float64{medianOf(withTrace, latencyMs) - medianOf(plain, latencyMs)}
			}
			if err := addSamples(m.name, m.unit, xs); err != nil {
				return err
			}
		}
		path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", wl.name, *seed))
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans of the last traced pass: %s\n", path)
	}

	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "env: %s\n", envJSON)
	fmt.Fprintf(stdout, "digest: %s\n", all[0].digest)
	for _, line := range spread {
		fmt.Fprintln(stdout, line)
	}
	res.Metrics = mset
	return writeResult(stdout, res)
}

func wallS(p *passOut) []float64 { return []float64{p.wall.Seconds()} }

func latencyMs(p *passOut) []float64 { return p.latenciesMs }

// medianOf pools one quantity over passes and returns its median.
func medianOf(ps []*passOut, f func(*passOut) []float64) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, f(p)...)
	}
	return median(xs)
}

// resetPeakRSS restarts the kernel's peak-RSS counter, so peak_rss_mb
// covers the measured passes and not set-up's transient garbage. Where
// the reset is unavailable the peak covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
