package profile

// Build is the one whole-pass entry point of the profiling stage. It
// runs the Fig. 1 pass on exactly two engines:
//
//   - sequential (Workers <= 1, or any sampled build): one Builder
//     consumes the source in order, checking ctx every ctxCheckEvery
//     accesses, snapshotting every CheckpointEvery accesses when a
//     checkpoint path is set;
//   - sharded (Workers > 1): a dispatcher cuts the source into shards,
//     a worker pool profiles them from cold, and an in-order collector
//     reconciles their gate summaries (parallel.go, DESIGN.md §13).
//
// Both produce bit-identical profiles for every worker count and chunk
// size, and both read and write the same snapshot format.

import (
	"context"
	"fmt"
	"io"

	"xoridx/internal/faultio"
	"xoridx/internal/xerr"
)

// ctxCheckEvery is the cancellation-check granularity of the profiling
// hot loops, in block accesses. One check per 8 K accesses keeps the
// overhead unmeasurable (a single channel poll amortised over thousands
// of LRU-stack operations) while still bounding the cancellation
// latency to well under a millisecond of work.
const ctxCheckEvery = 8192

// DefaultChunkSize is the stream read granularity, and the shard
// length of chunked sharded builds, when Options.ChunkSize is zero.
const DefaultChunkSize = 1 << 16

// DefaultCheckpointEvery is the snapshot cadence when
// Options.CheckpointEvery is zero: one snapshot per 2^20 profiled
// accesses.
const DefaultCheckpointEvery = 1 << 20

// Options configures Build. The zero value is the exact sequential
// pass with the histogram backend chosen by width (flat up to
// MaxFlatBits, sparse beyond).
type Options struct {
	// Workers is the number of concurrent shard builders; <= 1 runs the
	// sequential engine. Each worker holds a private histogram, so
	// memory is Workers × 8·2^n bytes (flat backend) while a build is in
	// flight. An in-memory source without a checkpoint is cut into
	// Workers contiguous shards; streams and checkpointed builds are cut
	// into ChunkSize chunks.
	Workers int

	// ChunkSize is the stream read granularity and the shard length of
	// chunked sharded builds, in accesses (0 selects DefaultChunkSize).
	// The dispatcher fills every chunk to exactly this length (short
	// source reads are topped up), so shard boundaries — and therefore
	// gate-summary exchange points — land at fixed multiples of
	// ChunkSize regardless of the source's read granularity. Only the
	// final chunk may be short.
	ChunkSize int

	// ForceSparse selects the sparse histogram backend at any width.
	ForceSparse bool

	// Sketch, when non-nil, selects the count-min-sketch histogram
	// backend (see sketch.go) instead of flat/sparse. Shard sketches
	// merge entrywise, so sharded sketch builds keep the (ε, δ) error
	// bound but are not bit-identical to a sequential sketch build.
	// Overrides ForceSparse; cannot be checkpointed.
	Sketch *SketchOptions

	// Sample enables sampled conflict walks (see sample.go): every
	// access still runs the exact distance gate, but only every K-th
	// conflict candidate is walked into the histogram. Sampling depends
	// on the global candidate ordinal, which an isolated cold shard
	// cannot know, so a sampled build always runs the sequential
	// engine. Cannot be checkpointed.
	Sample SampleOptions

	// Retry, when MaxRetries > 0, retries transient stream failures
	// (errors wrapping xerr.ErrIO) in place under the policy instead of
	// failing the build. Blocks delivered alongside a transient error
	// are profiled before the fault is retried; the zero value disables
	// retrying (a transient error fails the build like any other).
	Retry faultio.Policy

	// Stats, when non-nil, receives the hot-path probe counters on
	// success. For a sharded build it is the sum of every shard's
	// BuildStats plus the reconciler's own boundary walks; the
	// sequential invariants CandidateWalks == Candidates, WalkSteps ==
	// TotalPairs and GatedCapacityMisses == Capacity hold exactly either
	// way (boundary reclassifications count as gated — they never write
	// and then undo a histogram entry). A resumed build counts only the
	// accesses it profiled itself.
	Stats *BuildStats

	// Checkpoint is the snapshot file; empty disables persistence. The
	// builder state is written atomically every CheckpointEvery
	// accesses (at chunk boundaries), on cancellation, and once more at
	// the end, so a killed run resumes from its last snapshot. Both
	// engines share the snapshot format: a sequential snapshot resumes
	// sharded and back.
	Checkpoint string
	// CheckpointEvery is the snapshot cadence in accesses (0 selects
	// DefaultCheckpointEvery).
	CheckpointEvery uint64
	// Resume restores Checkpoint if it exists and skips the accesses
	// the snapshot already consumed before profiling the rest; the
	// final profile is bit-identical to an uninterrupted run. A missing
	// file is a cold start.
	Resume bool
}

// withDefaults fills the zero-valued sizes.
func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	return o
}

// validate rejects an out-of-domain build before any goroutine starts
// or any source is read.
func (o Options) validate(src Source, n, cacheBlocks int) error {
	if err := ValidateGeometry(n, cacheBlocks); err != nil {
		return err
	}
	if !src.slice && src.stream == nil {
		return fmt.Errorf("profile: Build needs a Blocks or Stream source: %w", xerr.ErrInvalidOptions)
	}
	if err := o.Retry.Validate(); err != nil {
		return err
	}
	if o.Sketch != nil {
		if err := o.Sketch.Validate(); err != nil {
			return err
		}
	}
	if o.Checkpoint != "" && (o.Sample.enabled() || o.Sketch != nil) {
		// The snapshot codec is exact flat/sparse state; a resumed
		// sampled pass would also lose its global candidate ordinal.
		return fmt.Errorf("profile: sampled or sketch builds cannot be checkpointed: %w",
			xerr.ErrInvalidOptions)
	}
	return nil
}

// sparse reports which histogram backend the options select at width n.
func (o Options) sparse(n int) bool {
	return o.ForceSparse || n > MaxFlatBits
}

// newProfile returns an empty profile on the histogram backend the
// options select; a sketch's options must be valid (Build validates
// them up front).
func (o Options) newProfile(n, cacheBlocks int) *Profile {
	if o.Sketch != nil {
		return &Profile{N: n, CacheBlocks: cacheBlocks, Sketch: NewSketch(o.Sketch.withDefaults())}
	}
	return newProfile(n, cacheBlocks, o.sparse(n))
}

// newBuilder constructs a cold builder with the histogram backend the
// options select. Sampling is armed separately by the sequential
// engine — shard builders never sample.
func (o Options) newBuilder(n, cacheBlocks int) *Builder {
	return builderFor(o.newProfile(n, cacheBlocks))
}

// BlockSource yields successive chunks of block addresses already
// truncated to n bits, filling dst and returning how many it wrote.
// It follows io.Reader conventions: (k, nil) with k > 0 while data
// remains, then (0, io.EOF); (k > 0, io.EOF) is also accepted. Short
// reads are fine — Build tops chunks up to ChunkSize itself.
// trace.Reader.BlockSource adapts the streaming decoder to this shape.
type BlockSource func(dst []uint64) (int, error)

// Source is the block sequence a Build profiles: an in-memory slice
// (Blocks), consumed in place with no copy, or a stream (Stream), read
// ChunkSize blocks at a time and never materialized. The zero Source
// is invalid.
type Source struct {
	blocks []uint64
	slice  bool
	stream BlockSource
}

// Blocks is the Source over an in-memory block sequence, already
// truncated to n bits (see trace.Trace.Blocks).
func Blocks(blocks []uint64) Source { return Source{blocks: blocks, slice: true} }

// Stream is the Source over a block stream.
func Stream(src BlockSource) Source { return Source{stream: src} }

// next hands out the next chunk of at most size blocks, with io.EOF
// once the source is exhausted (possibly alongside a final chunk). A
// slice source returns a capacity-clipped re-slice; a stream fills buf
// (allocating a fresh one when buf is nil) up to size.
func (s *Source) next(size int, buf []uint64) ([]uint64, error) {
	if s.slice {
		k := min(size, len(s.blocks))
		chunk := s.blocks[:k:k]
		s.blocks = s.blocks[k:]
		if len(s.blocks) == 0 {
			return chunk, io.EOF
		}
		return chunk, nil
	}
	if buf == nil {
		buf = make([]uint64, size)
	}
	k, err := fillChunk(s.stream, buf[:size])
	return buf[:k], err
}

// skip discards the first n blocks — the prefix a restored snapshot
// already profiled.
func (s *Source) skip(n uint64, chunkSize int) error {
	short := func(left uint64) error {
		return fmt.Errorf("profile: source ended %d accesses before the snapshot position %d: %w",
			left, n, xerr.ErrFormat)
	}
	if s.slice {
		if n > uint64(len(s.blocks)) {
			return short(n - uint64(len(s.blocks)))
		}
		s.blocks = s.blocks[n:]
		return nil
	}
	buf := make([]uint64, min(uint64(chunkSize), n))
	for left := n; left > 0; {
		k, err := fillChunk(s.stream, buf[:min(uint64(len(buf)), left)])
		left -= uint64(k)
		if err == io.EOF && left > 0 {
			return short(left)
		}
		if err != nil && err != io.EOF {
			return err
		}
	}
	return nil
}

// retry wraps a stream in RetrySource when the policy retries.
func (s *Source) retry(ctx context.Context, policy faultio.Policy) {
	if s.stream != nil && policy.MaxRetries > 0 {
		s.stream = RetrySource(ctx, s.stream, policy)
	}
}

// Build runs the Fig. 1 profiling pass over src. cacheBlocks is the
// cache capacity in blocks used for the capacity-miss filter. The
// profile is bit-identical for every engine, worker count and chunk
// size (except sharded sketch builds, which are bound-identical).
//
// Errors carry wrapped xerr sentinels: ErrInvalidOptions for an
// out-of-domain geometry or option set, ErrFormat for a malformed
// stream or snapshot, ErrProfileMismatch for a snapshot of another
// geometry or backend, ErrPanic (naming the shard) for a recovered
// shard panic — which always wins over the secondary cancellations it
// causes. On cancellation Build returns a wrapped ErrCanceled with no
// goroutine left behind, alongside:
//
//   - the sequential engine's partial profile, marked Degraded, its
//     Accesses counter telling how far the pass got;
//   - nil from the sharded engine without a checkpoint;
//   - the sharded engine's reconciled chunk prefix, marked Degraded,
//     when a checkpoint is set (not every access the workers had
//     consumed).
//
// With a checkpoint set, the Degraded profile is also snapshotted.
func Build(ctx context.Context, src Source, n, cacheBlocks int, opt Options) (*Profile, error) {
	if err := opt.validate(src, n, cacheBlocks); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	workers := opt.Workers
	if opt.Sample.enabled() {
		workers = 1
	}
	if src.slice && opt.Checkpoint == "" {
		workers = min(workers, len(src.blocks))
	}
	if workers <= 1 {
		return buildSeq(ctx, src, n, cacheBlocks, opt)
	}
	return buildSharded(ctx, src, n, cacheBlocks, opt, workers)
}

// buildSeq is the sequential engine: one builder consumes the source
// in order.
func buildSeq(ctx context.Context, src Source, n, cacheBlocks int, opt Options) (*Profile, error) {
	bd, err := restoreSnapshot(opt, n, cacheBlocks)
	if err != nil {
		return nil, err
	}
	if bd == nil {
		bd = opt.newBuilder(n, cacheBlocks)
		bd.setSampling(opt.Sample)
	}
	src.retry(ctx, opt.Retry)
	if err := src.skip(bd.Pos(), opt.ChunkSize); err != nil {
		return nil, err
	}
	degraded := func(cause error) (*Profile, error) {
		if opt.Checkpoint != "" {
			if werr := CheckpointFile(opt.Checkpoint, bd); werr != nil {
				return nil, fmt.Errorf("profile: snapshotting on cancellation: %w (after %w)", werr, cause)
			}
		}
		p := bd.Finish()
		p.Degraded = true
		return p, cause
	}
	var buf []uint64
	if !src.slice {
		buf = make([]uint64, opt.ChunkSize)
	}
	sinceCkpt := uint64(0)
	for {
		if err := xerr.Check(ctx); err != nil {
			return degraded(err)
		}
		chunk, rerr := src.next(opt.ChunkSize, buf)
		for start := 0; start < len(chunk); start += ctxCheckEvery {
			if start > 0 {
				if err := xerr.Check(ctx); err != nil {
					return degraded(err)
				}
			}
			for _, blk := range chunk[start:min(start+ctxCheckEvery, len(chunk))] {
				bd.Add(blk)
			}
		}
		if sinceCkpt += uint64(len(chunk)); opt.Checkpoint != "" && sinceCkpt >= opt.CheckpointEvery {
			if err := CheckpointFile(opt.Checkpoint, bd); err != nil {
				return nil, err
			}
			sinceCkpt = 0
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	if opt.Checkpoint != "" {
		// Final snapshot: a resume of a completed run replays nothing.
		if err := CheckpointFile(opt.Checkpoint, bd); err != nil {
			return nil, err
		}
	}
	if opt.Stats != nil {
		*opt.Stats = bd.stats
	}
	return bd.Finish(), nil
}
