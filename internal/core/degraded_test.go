package core

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"xoridx/internal/cache"
	"xoridx/internal/hash"
	"xoridx/internal/profile"
	"xoridx/internal/trace"
)

// richTrace interleaves two conflicting stride streams so the search
// takes several hill-climbing moves.
func richTrace(reps int) *trace.Trace {
	tr := &trace.Trace{Name: "rich", Ops: uint64(reps * 64)}
	for r := 0; r < reps; r++ {
		for i := 0; i < 48; i++ {
			tr.Append(uint64(i*256), trace.Read)
			if i%3 == 0 {
				tr.Append(uint64(i*768+28), trace.Read)
			}
		}
	}
	return tr
}

func degradedConfig() Config {
	return Config{CacheBytes: 256, BlockBytes: 4, AddrBits: 12, Family: hash.FamilyGeneralXOR}
}

func TestRunProfiledDegradedOnCancel(t *testing.T) {
	tr := richTrace(6)
	cfg := degradedConfig()
	p, err := BuildProfile(context.Background(), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pl := Pipeline{Config: cfg, Events: SinkFunc(func(e Event) {
		if e.Kind == SearchProgress {
			cancel() // kill the pipeline after the first move
		}
	})}
	res, err := pl.RunProfiled(ctx, tr, p)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	if res == nil || !res.Degraded {
		t.Fatalf("want a Degraded best-so-far result alongside the error, got %+v", res)
	}
	if !res.Search.Degraded {
		t.Error("Search.Degraded not set on the embedded search result")
	}
	if res.Func == nil {
		t.Fatal("degraded result carries no index function")
	}
	if res.Func.Matrix().Rank() != cfg.SetBits() {
		t.Fatalf("degraded function is not a valid index function: rank %d", res.Func.Matrix().Rank())
	}
	if res.Baseline.Misses != 0 || res.Optimized.Misses != 0 {
		t.Error("degraded result must not fake validated simulation stats")
	}
}

func TestValidateDegradedOnCancel(t *testing.T) {
	tr := richTrace(6)
	cfg := degradedConfig()
	pl := Pipeline{Config: cfg}
	p, err := pl.Profile(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := pl.Search(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := pl.Validate(ctx, tr, p, sres)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	if res == nil || !res.Degraded || res.Func == nil {
		t.Fatalf("interrupted validation must still return the searched function, got %+v", res)
	}
}

// pollCtx is a context whose Done channel is open for the first polls
// calls and closed from then on: it cancels a loop part-way through.
type pollCtx struct {
	context.Context
	polls       int
	open, shut  chan struct{}
	interrupted bool
}

func newPollCtx(polls int) *pollCtx {
	c := &pollCtx{Context: context.Background(), polls: polls, open: make(chan struct{}), shut: make(chan struct{})}
	close(c.shut)
	return c
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.polls > 0 {
		c.polls--
		return c.open
	}
	c.interrupted = true
	return c.shut
}

func (c *pollCtx) Err() error {
	if c.interrupted {
		return context.Canceled
	}
	return nil
}

// TestValidateMatchesCacheAndCancelsMidTrace checks both validation
// paths (the fused direct-mapped pass and the per-function Cache runs
// of a set-associative geometry) against plain cache runs, then
// cancels each one after its first chunk of accesses: the result must
// be Degraded, keep the searched function and zero both Stats.
func TestValidateMatchesCacheAndCancelsMidTrace(t *testing.T) {
	tr := richTrace(400) // 25600 accesses: several cancellation chunks
	for _, ways := range []int{1, 2} {
		cfg := degradedConfig()
		cfg.Ways = ways
		pl := Pipeline{Config: cfg}
		p, err := pl.Profile(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := pl.Search(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Validate(context.Background(), tr, p, sres)
		if err != nil {
			t.Fatal(err)
		}
		full := cfg.withDefaults()
		base, err := Simulate(context.Background(), tr, full, hash.Modulo(full.AddrBits, full.SetBits()))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Simulate(context.Background(), tr, full, hash.MustXOR(sres.Matrix))
		if err != nil {
			t.Fatal(err)
		}
		if res.Baseline != base || (!res.UsedFallback && res.Optimized != opt) {
			t.Fatalf("ways %d: validated %+v / %+v, cache runs %+v / %+v", ways, res.Baseline, res.Optimized, base, opt)
		}

		res, err = pl.Validate(newPollCtx(1), tr, p, sres)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("ways %d: err = %v, want wrapped ErrCanceled", ways, err)
		}
		if res == nil || !res.Degraded || res.Func == nil {
			t.Fatalf("ways %d: interrupted validation must return the searched function Degraded, got %+v", ways, res)
		}
		if res.Baseline != (cache.Stats{}) || res.Optimized != (cache.Stats{}) {
			t.Fatalf("ways %d: interrupted validation leaked partial stats %+v / %+v", ways, res.Baseline, res.Optimized)
		}
	}
}

func TestProfileDegradedPartialOnCancel(t *testing.T) {
	tr := richTrace(10)
	cfg := degradedConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pl := Pipeline{Config: cfg}
	p, err := pl.Profile(ctx, tr)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want wrapped ErrCanceled", err)
	}
	if p == nil || !p.Degraded {
		t.Fatalf("sequential profiling must return the partial profile tagged Degraded, got %+v", p)
	}
}

// TestPipelineCheckpointResume kills the pipeline mid-search, restarts
// it with Resume, and requires the final tuned result to match an
// uninterrupted run exactly.
func TestPipelineCheckpointResume(t *testing.T) {
	tr := richTrace(6)
	cfg := degradedConfig()
	want, err := Tune(context.Background(), tr, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Search.Iterations < 2 {
		t.Fatalf("test needs a multi-move search, got %d moves", want.Search.Iterations)
	}

	cfg.CheckpointPath = filepath.Join(t.TempDir(), "run")
	cfg.Resume = true
	kill := func(after int) (*Result, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		moves := 0
		pl := Pipeline{Config: cfg, Events: SinkFunc(func(e Event) {
			if e.Kind == SearchProgress {
				if moves++; after > 0 && moves >= after {
					cancel()
				}
			}
		})}
		return pl.Run(ctx, tr)
	}
	res, err := kill(1)
	if err == nil {
		t.Fatal("first run completed before the kill fired")
	}
	if res == nil || !res.Degraded {
		t.Fatalf("killed run returned no degraded result: %+v", res)
	}
	got, err := kill(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Fatal("resumed run still tagged Degraded")
	}
	if got.Search.Estimated != want.Search.Estimated ||
		got.Search.Iterations != want.Search.Iterations ||
		got.Search.Evaluated != want.Search.Evaluated {
		t.Fatalf("resumed search diverged: got (%d est, %d moves, %d evals), want (%d, %d, %d)",
			got.Search.Estimated, got.Search.Iterations, got.Search.Evaluated,
			want.Search.Estimated, want.Search.Iterations, want.Search.Evaluated)
	}
	if got.Optimized.Misses != want.Optimized.Misses || got.Baseline.Misses != want.Baseline.Misses {
		t.Fatalf("resumed validation diverged: got %d/%d misses, want %d/%d",
			got.Optimized.Misses, got.Baseline.Misses, want.Optimized.Misses, want.Baseline.Misses)
	}
	if got.Func.Matrix().String() != want.Func.Matrix().String() {
		t.Fatal("resumed run selected a different function")
	}

	// Kill mid-profile instead, on both profiling engines. Tune with a
	// CheckpointPath must write the profile snapshot whatever Workers
	// says, and a run killed mid-profile then resumed with Tune must
	// reproduce the uninterrupted Result exactly.
	long := richTrace(3000)
	for _, workers := range []int{1, 2} {
		lcfg := degradedConfig()
		lcfg.Workers = workers
		lcfg.CheckpointEvery = profile.DefaultChunkSize / 2
		lcfg.CheckpointPath = filepath.Join(t.TempDir(), "full")
		want, err := Tune(context.Background(), long, lcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, suffix := range []string{".profile.ckpt", ".search.ckpt"} {
			if _, err := os.Stat(lcfg.CheckpointPath + suffix); err != nil {
				t.Fatalf("workers=%d: Tune with CheckpointPath wrote no %s: %v", workers, suffix, err)
			}
		}

		lcfg.CheckpointPath = filepath.Join(t.TempDir(), "killed")
		lcfg.Resume = true
		snapshot := lcfg.CheckpointPath + ".profile.ckpt"
		blocks := long.Blocks(lcfg.BlockBytes, lcfg.AddrBits)
		ctx, cancel := context.WithCancel(context.Background())
		served := 0
		// The stream cancels the run once its first chunk has been
		// snapshotted, so the kill lands strictly inside the profile.
		src := func(dst []uint64) (int, error) {
			if served >= len(blocks) {
				return 0, io.EOF
			}
			if served >= profile.DefaultChunkSize {
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					if _, err := os.Stat(snapshot); err == nil {
						break
					}
					if time.Now().After(deadline) {
						return 0, errors.New("no periodic profile snapshot")
					}
				}
				cancel()
			}
			k := copy(dst, blocks[served:])
			served += k
			return k, nil
		}
		pl := Pipeline{Config: lcfg}
		_, err = pl.ProfileSource(ctx, src)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: killed profile: err = %v, want wrapped ErrCanceled", workers, err)
		}
		bd, err := profile.RestoreFile(snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if pos := bd.Pos(); pos == 0 || pos >= uint64(len(blocks)) {
			t.Fatalf("workers=%d: snapshot at access %d of %d, want strictly inside", workers, pos, len(blocks))
		}
		got, err := Tune(context.Background(), long, lcfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: resumed Tune differs from the uninterrupted one:\n got %+v\nwant %+v",
				workers, got, want)
		}
	}
}

func TestSentinelReexports(t *testing.T) {
	// The robustness sentinels must be matchable through the core
	// surface without importing internal/xerr.
	for _, pair := range []struct {
		name string
		got  error
	}{
		{"ErrIO", ErrIO},
		{"ErrPanic", ErrPanic},
	} {
		if pair.got == nil {
			t.Errorf("%s re-export is nil", pair.name)
		}
	}
}
