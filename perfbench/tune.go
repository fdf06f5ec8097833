package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"xoridx/internal/core"
	"xoridx/internal/hash"
	"xoridx/internal/trace"
	"xoridx/internal/workloads"
)

// tuneSpec is one batch-tuning workload: every kernel's data trace
// tuned for every cache size, each cell through the staged pipeline.
type tuneSpec struct {
	kernels   []string
	scale     int
	cacheKB   []int
	family    hash.Family
	maxInputs int
}

// Geometry shared by every workload: the paper's n=16 hashed block
// address bits over 4-byte blocks, direct mapped.
const (
	addrBits   = 16
	blockBytes = 4
	workers    = 2
)

// tuneInput is one kernel's trace, encoded as XTR1 at set-up.
type tuneInput struct {
	name string
	xtr1 []byte
}

type tuneRunner struct {
	spec   tuneSpec
	inputs []tuneInput
}

// setupTune generates each kernel's data trace, moves it to a
// page-aligned base picked by the seed, and encodes it as XTR1 bytes.
func setupTune(spec tuneSpec, seed uint64) (*tuneRunner, error) {
	rng := newSplitmix(seed)
	r := &tuneRunner{spec: spec}
	for _, name := range spec.kernels {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		tr := w.Data(spec.scale).Rebase(rng.page())
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			return nil, fmt.Errorf("encode %s: %w", name, err)
		}
		r.inputs = append(r.inputs, tuneInput{name: name, xtr1: buf.Bytes()})
	}
	return r, nil
}

// tuneTotals are the per-pass sums behind the per-layer metrics.
type tuneTotals struct {
	decoded, profiled, simulated                  uint64
	candidates, totalPairs, evaluated, iterations uint64
	missesBase, missesOpt, fallbacks              uint64
	profileAlloc, searchAlloc                     uint64
}

// pass tunes every cell once: XTR1 bytes → trace.Decode → Profile →
// Search → Validate. Cells run one after another; each stage uses
// workers goroutines internally.
func (r *tuneRunner) pass(rec *recorder) (*passOut, error) {
	ctx := context.Background()
	out := &passOut{}
	dg := newDigest()
	var t tuneTotals
	start := time.Now()
	root := rec.begin("workload", "", 0)
	for _, in := range r.inputs {
		kspan := rec.begin("kernel", in.name, root)
		sp := rec.begin("decode", in.name, kspan)
		tr, err := trace.Decode(bytes.NewReader(in.xtr1))
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("decode %s: %w", in.name, err)
		}
		t.decoded += uint64(tr.Len())
		for _, kb := range r.spec.cacheKB {
			cell := fmt.Sprintf("%s/%dKB", in.name, kb)
			out.attempted++
			dg.str(cell)
			if err := r.cell(ctx, rec, kspan, cell, kb, tr, dg, out, &t); err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "%s: %v\n", cell, err)
				dg.str("error: " + err.Error())
			}
		}
		rec.end(kspan)
	}
	rec.end(root)
	out.wall = time.Since(start)
	out.latenciesMs = []float64{ms(out.wall)}
	out.rateAccesses = float64(t.profiled)
	out.reductionNum, out.reductionDen = float64(t.missesOpt), float64(t.missesBase)
	out.digest = dg.sum()
	if rec != nil {
		self := selfByName(rec.snapshot())
		stages := self["decode"] + self["profile"] + self["search"] + self["validate"]
		out.layer = map[string]float64{
			"trace.decode_s":              self["decode"].Seconds(),
			"trace.decode_accesses_per_s": rate(t.decoded, self["decode"]),
			"profile.build_s":             self["profile"].Seconds(),
			"profile.accesses_per_s":      rate(t.profiled, self["profile"]),
			"profile.candidates":          float64(t.candidates),
			"profile.total_pairs":         float64(t.totalPairs),
			"profile.candidate_ratio":     float64(t.candidates) / float64(t.profiled),
			"profile.alloc_mb":            mb(t.profileAlloc),
			"search.s":                    self["search"].Seconds(),
			"search.evaluated":            float64(t.evaluated),
			"search.iterations":           float64(t.iterations),
			"search.evals_per_s":          rate(t.evaluated, self["search"]),
			"search.alloc_mb":             mb(t.searchAlloc),
			"cache.validate_s":            self["validate"].Seconds(),
			"cache.accesses_per_s":        rate(t.simulated, self["validate"]),
			"cache.misses_baseline":       float64(t.missesBase),
			"cache.misses_optimized":      float64(t.missesOpt),
			"cache.fallbacks":             float64(t.fallbacks),
			"core.overhead_s":             (out.wall - stages).Seconds(),
		}
	}
	return out, nil
}

// cell tunes one kernel × cache size and checks the result.
func (r *tuneRunner) cell(ctx context.Context, rec *recorder, parent int, cell string, kb int,
	tr *trace.Trace, dg *digest, out *passOut, t *tuneTotals) error {
	pl := core.Pipeline{Config: core.Config{
		CacheBytes: kb * 1024,
		BlockBytes: blockBytes,
		AddrBits:   addrBits,
		Family:     r.spec.family,
		MaxInputs:  r.spec.maxInputs,
		Workers:    workers,
	}}
	cspan := rec.begin("cell", cell, parent)
	defer rec.end(cspan)

	sp := rec.begin("profile", cell, cspan)
	a0 := allocBytes(rec)
	p, err := pl.Profile(ctx, tr)
	t.profileAlloc += allocBytes(rec) - a0
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("search", cell, cspan)
	a0 = allocBytes(rec)
	sres, err := pl.Search(ctx, p)
	t.searchAlloc += allocBytes(rec) - a0
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("validate", cell, cspan)
	res, err := pl.Validate(ctx, tr, p, sres)
	rec.end(sp)
	if err != nil {
		return err
	}
	if res.Degraded {
		return fmt.Errorf("degraded result")
	}

	n := uint64(tr.Len())
	if res.Optimized.Misses > res.Baseline.Misses {
		out.check("%s: optimized misses %d exceed modulo misses %d", cell, res.Optimized.Misses, res.Baseline.Misses)
	}
	if res.Baseline.Accesses != n {
		out.check("%s: baseline simulated %d accesses, trace has %d", cell, res.Baseline.Accesses, n)
	}
	if p.Accesses != n {
		out.check("%s: profile saw %d accesses, trace has %d", cell, p.Accesses, n)
	}
	if p.Compulsory+p.Capacity+p.Candidates > p.Accesses {
		out.check("%s: profile counters %d+%d+%d exceed %d accesses", cell, p.Compulsory, p.Capacity, p.Candidates, p.Accesses)
	}
	dg.matrix(res.Func.Matrix())
	dg.u64(res.Baseline.Misses)
	dg.u64(res.Optimized.Misses)
	dg.flag(res.UsedFallback)

	t.profiled += p.Accesses
	t.simulated += 2 * n
	t.candidates += p.Candidates
	t.totalPairs += p.TotalPairs
	t.evaluated += uint64(sres.Evaluated)
	t.iterations += uint64(sres.Iterations)
	t.missesBase += res.Baseline.Misses
	t.missesOpt += res.Optimized.Misses
	if res.UsedFallback {
		t.fallbacks++
	}
	return nil
}

// allocBytes reads the cumulative heap allocation counter when tracing
// (without stopping the world); untraced passes skip the read.
func allocBytes(rec *recorder) uint64 {
	if rec == nil {
		return 0
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func rate(n uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitmix is the splitmix64 generator: the seed's only consumer, so
// the same seed always yields the same inputs.
type splitmix struct{ s uint64 }

func newSplitmix(seed uint64) *splitmix { return &splitmix{s: seed} }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// page returns a page-aligned base offset below 1 MiB: it moves the
// address bits the n=16 index functions hash (block-address bits 10..15
// are byte-address bits 12..17) while leaving each kernel's layout
// within a page intact.
func (r *splitmix) page() uint64 { return r.next() % 256 * 4096 }
