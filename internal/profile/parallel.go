package profile

// Parallel sharded profiling via gate-summary exchange (DESIGN.md §13).
//
// The Fig. 1 pass is sequential on its face — the LRU stack is global
// state — but almost none of that state matters across a shard
// boundary. Each shard runs the plain windowed Builder from cold (one
// append per first touch is its only overhead over the sequential
// pass) and exports two things the sequential pass would have needed
// from it:
//
//   - its distinct blocks in first-touch order (the builder's
//     first-touch list),
//   - its distinct blocks in final recency order (its exit LRU stack,
//     read off the distance tree).
//
// That pair is the shard's gate summary. A single in-order reconciliation
// pass over the summaries repairs the only classifications a cold
// shard can get wrong — its apparent first touches:
//
//   - Every non-first-touch access has its previous access inside the
//     shard, so the blocks above it in the shard's LRU order are
//     exactly the blocks the sequential stack holds above it. Intra-shard
//     classifications and histogram contributions are bit-identical to
//     the sequential pass.
//   - A shard's j-th first touch of block b that an earlier shard
//     already accessed is really a re-reference. Its sequential reuse
//     distance is |prefix_j ∪ above(b)|, where prefix_j is the shard's
//     j first-touched blocks before it (all accessed since b's previous
//     access) and above(b) the blocks above b on the reconciler's
//     boundary stack — the sequential LRU stack at the shard's start.
//     With j > cacheBlocks the distance already exceeds the filter, so
//     the miss flips compulsory→capacity with no walk at all; otherwise
//     a bounded boundary-stack walk (skipping prefix_j members, early
//     exiting once the union exceeds the filter) either flips it to
//     capacity or counts the conflict pairs b⊕y the cold shard omitted.
//   - Replaying the shard's recency order bottom-up over the boundary
//     stack then yields the sequential LRU stack at the shard's end,
//     because an LRU stack depends only on the order of last accesses.
//
// At most cacheBlocks+1 first touches per shard can reach the walk, and
// each walk visits at most ~2·cacheBlocks entries, so reconciliation is
// O(cacheBlocks²) per boundary — independent of shard length. Histogram
// increments commute, so the merged profile is bit-identical to the
// sequential Build — histogram, every counter, and the BuildStats
// probes — for every worker count and chunk size. This replaces the
// PR 1 warmup-replay scheme (retained verbatim in refparallel_test.go
// as a differential reference), which paid a per-access map write in
// every shard and re-profiled an overlap window per boundary.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"xoridx/internal/lru"
	"xoridx/internal/xerr"
)

// testShardHook, when non-nil, runs at the start of every shard pass
// with the shard index. The cancellation and panic-surfacing tests use
// it to inject failures into a chosen shard; it is nil outside tests.
var testShardHook func(idx int)

// buildSharded is the sharded engine behind Build: a chunk dispatcher,
// a pool of workers shard builders, and an in-order collector that
// reconciles gate summaries as shards complete (and snapshots the
// reconciled prefix when a checkpoint is set). Reconciliation is
// incremental, so at most ~workers shard histograms are alive at once.
//
// An in-memory source without a checkpoint is cut into workers
// contiguous zero-copy shards; any other source into ChunkSize chunks
// (zero-copy re-slices for in-memory sources). A failed shard (panic,
// injected fault) cancels the rest of the fan-out internally, and its
// error — not the secondary cancellation — is what the call returns.
func buildSharded(ctx context.Context, src Source, n, cacheBlocks int, opt Options, workers int) (*Profile, error) {
	rc := newReconciler(n, cacheBlocks, opt)
	restored, err := restoreSnapshot(opt, n, cacheBlocks)
	if err != nil {
		return nil, err
	}
	if restored != nil {
		rc.out = restored.p
		if rc.bound, err = lru.NewStackFrom(restored.tree.Recency()); err != nil {
			return nil, err
		}
	}
	// inner cancels the fan-out when a shard fails, so the dispatcher
	// and sibling shards stop instead of profiling a stream whose
	// result is already lost. The root-cause error is kept separately —
	// the secondary cancellations never mask it.
	inner, cancelInner := context.WithCancel(ctx)
	defer cancelInner()
	src.retry(inner, opt.Retry)
	if err := src.skip(rc.out.Accesses, opt.ChunkSize); err != nil {
		return nil, err
	}
	chunkLen := func(int) int { return opt.ChunkSize }
	if src.slice && opt.Checkpoint == "" {
		total := len(src.blocks)
		chunkLen = func(idx int) int { return (idx+1)*total/workers - idx*total/workers }
	}

	jobs := make(chan *shardState, workers)
	done := make(chan *shardState, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				s.run(inner, n, cacheBlocks, opt)
				done <- s
			}
		}()
	}
	// Collector: reconcile results in shard order as they arrive,
	// buffering the out-of-order ones, so completed histograms are
	// released instead of accumulating until the end of the stream.
	// Errored shards still advance the in-order cursor — otherwise a
	// canceled shard would stall every later result in the pending map.
	// rootErr collects the first non-cancellation failure (and triggers
	// the internal cancel); cancelErr the first cancellation.
	collected := make(chan struct{})
	var rootErr, cancelErr error
	go func() {
		defer close(collected)
		pending := make(map[int]*shardState)
		next := 0
		sinceCkpt := uint64(0)
		fail := func(err error) {
			if errors.Is(err, xerr.ErrCanceled) {
				if cancelErr == nil {
					cancelErr = err
				}
				return
			}
			if rootErr == nil {
				rootErr = err
				cancelInner()
			}
		}
		for s := range done {
			pending[s.idx] = s
			for {
				ns, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				if ns.err != nil {
					fail(ns.err)
					continue
				}
				if rootErr != nil || cancelErr != nil {
					continue
				}
				added := ns.p.Accesses
				if err := rc.absorb(ns); err != nil {
					fail(err)
					continue
				}
				if opt.Checkpoint != "" {
					if sinceCkpt += added; sinceCkpt >= opt.CheckpointEvery {
						if err := rc.checkpointFile(opt.Checkpoint); err != nil {
							fail(err)
							continue
						}
						sinceCkpt = 0
					}
				}
			}
		}
	}()

	var srcErr error
	for idx := 0; ; {
		if err := xerr.Check(inner); err != nil {
			srcErr = err
			break
		}
		chunk, rerr := src.next(chunkLen(idx), nil)
		if len(chunk) > 0 && (rerr == nil || rerr == io.EOF) {
			jobs <- &shardState{idx: idx, blocks: chunk}
			idx++
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			srcErr = rerr
			break
		}
	}
	close(jobs)
	wg.Wait()
	close(done)
	<-collected

	switch {
	case rootErr != nil:
		return nil, rootErr
	case srcErr != nil && !errors.Is(srcErr, xerr.ErrCanceled):
		return nil, srcErr
	case srcErr != nil || cancelErr != nil:
		cause := srcErr
		if cause == nil {
			cause = cancelErr
		}
		if opt.Checkpoint != "" {
			return rc.degraded(opt.Checkpoint, cause)
		}
		return nil, cause
	}
	if opt.Checkpoint != "" {
		// Final snapshot: a resume of a completed run replays nothing.
		if err := rc.checkpointFile(opt.Checkpoint); err != nil {
			return nil, err
		}
	}
	if opt.Stats != nil {
		*opt.Stats = rc.stats
	}
	return rc.out, nil
}

// shardState is the fixed-size per-shard slot of a sharded build: the
// input half (idx, blocks) is filled by the dispatcher, the output half
// by the one worker goroutine that runs the shard. Nothing in it is
// shared until the shard is handed back for reconciliation.
type shardState struct {
	idx    int
	blocks []uint64

	p     *Profile
	stats BuildStats
	err   error

	// The gate summary the shard exports instead of replaying overlap
	// accesses (DESIGN.md §13). Both slices list the shard's distinct
	// blocks, so its size is independent of the shard length.
	//
	// firstTouch lists them in the order each was first accessed. Its
	// prefix of length j is exactly the set of distinct blocks the
	// shard saw before its (j+1)-th first touch — the intra-shard half
	// of that access's reuse distance.
	//
	// recency lists them by most recent access, most recent first —
	// the shard's exit LRU stack. Replaying it bottom-up over the
	// boundary stack reproduces the sequential LRU stack at the shard's
	// end, because an LRU stack depends only on the order of last
	// accesses.
	firstTouch, recency []uint64
}

// run profiles the shard from a cold builder, checking ctx every
// ctxCheckEvery accesses, and exports the gate summary the reconciler
// needs. A panic anywhere in the pass is converted into a wrapped
// xerr.ErrPanic naming the shard instead of crashing the process, so
// the fan-out drains normally and the caller sees an ordinary error it
// can match with errors.Is.
func (s *shardState) run(ctx context.Context, n, cacheBlocks int, opt Options) {
	defer func() {
		if r := recover(); r != nil {
			s.p = nil
			s.err = xerr.Panicked(fmt.Sprintf("profile: shard %d", s.idx), r)
		}
	}()
	if testShardHook != nil {
		testShardHook(s.idx)
	}
	bd := opt.newBuilder(n, cacheBlocks)
	bd.trackFirst = true
	tick := 0
	for _, b := range s.blocks {
		if tick++; tick >= ctxCheckEvery {
			tick = 0
			if err := xerr.Check(ctx); err != nil {
				s.err = err
				return
			}
		}
		bd.Add(b)
	}
	s.firstTouch, s.recency = bd.firstTouch, bd.tree.Recency()
	s.stats = bd.Stats()
	s.p = bd.Finish()
}

// fillChunk tops buf up from the source until it is full or the stream
// ends, so chunk — and therefore shard — boundaries land at fixed
// multiples of the chunk size regardless of the source's read
// granularity. It returns how many blocks were filled plus io.EOF at
// the end of the stream, any source error as-is, and a wrapped
// xerr.ErrFormat for a source that returns no data and no error.
func fillChunk(src BlockSource, buf []uint64) (int, error) {
	filled := 0
	for filled < len(buf) {
		k, err := src(buf[filled:])
		filled += k
		if err != nil {
			return filled, err
		}
		if k == 0 {
			return filled, fmt.Errorf("profile: block source returned no data and no error: %w", xerr.ErrFormat)
		}
	}
	return filled, nil
}

// reconciler folds shard results into the merged profile in trace
// order. bound is the sequential LRU stack at the boundary between the
// shards already absorbed and the next one — the only cross-shard state
// the scheme needs. Its (out, bound) pair is at every shard boundary
// exactly the (profile, stack) state of a sequential Builder at that
// access position, which is what makes parallel builds checkpointable
// with the sequential snapshot codec (see rc.checkpointFile).
type reconciler struct {
	out   *Profile
	bound *lru.Stack
	stats BuildStats

	prefix  map[uint64]struct{} // scratch: current shard's first-touch prefix
	scratch []uint64            // scratch: boundary blocks collected by a walk
}

func newReconciler(n, cacheBlocks int, opt Options) *reconciler {
	return &reconciler{
		out:    opt.newProfile(n, cacheBlocks),
		bound:  lru.NewStack(),
		prefix: make(map[uint64]struct{}),
	}
}

// absorb folds the next shard (in trace order) into the merged profile:
// reclassify the shard's boundary-crossing first touches against the
// boundary stack, merge the histogram, then advance the boundary stack
// by the shard's recency order. A merge failure (a shard built with a
// different geometry — impossible through the exported builders,
// reachable if the reconciler is ever reused across configurations) is
// returned as Merge's wrapped xerr.ErrProfileMismatch rather than
// panicking in library code.
func (rc *reconciler) absorb(s *shardState) error {
	rc.stats.CandidateWalks += s.stats.CandidateWalks
	rc.stats.WalkSteps += s.stats.WalkSteps
	rc.stats.GatedCapacityMisses += s.stats.GatedCapacityMisses
	cacheBlocks := rc.out.CacheBlocks
	clear(rc.prefix)
	for j, b := range s.firstTouch {
		if target, ok := rc.bound.Index(b); ok {
			rc.resolve(s.p, s.firstTouch[:j], b, target)
		}
		if j <= cacheBlocks {
			// Only candidates with at most cacheBlocks prior first
			// touches can walk, so the prefix set stops growing once no
			// later candidate could need it.
			rc.prefix[b] = struct{}{}
		}
	}
	if err := rc.out.Merge(s.p); err != nil {
		return fmt.Errorf("profile: shard merge: %w", err)
	}
	for i := len(s.recency) - 1; i >= 0; i-- {
		b := s.recency[i]
		if idx, ok := rc.bound.Index(b); ok {
			rc.bound.MoveIndexToTop(idx)
		} else {
			rc.bound.Push(b)
		}
	}
	return nil
}

// resolve reclassifies one boundary-crossing candidate: block b looked
// like the shard's j-th first touch (j = len(prefix)) but an earlier
// shard accessed it. Its sequential reuse distance is the size of
// prefix ∪ {boundary-stack blocks above b}; the prefix members are
// distinct from each other and all accessed since b, so the walk only
// has to add the boundary blocks not already in the prefix. The walk
// visits at most 2·cacheBlocks+1 entries: it early-exits to a capacity
// miss once the union exceeds the filter, having skipped at most
// cacheBlocks+1 prefix members before that.
func (rc *reconciler) resolve(p *Profile, prefix []uint64, b uint64, target int32) {
	p.Compulsory--
	cacheBlocks := rc.out.CacheBlocks
	j := len(prefix)
	if j > cacheBlocks {
		p.Capacity++
		rc.stats.GatedCapacityMisses++
		return
	}
	nodes, top := rc.bound.Raw()
	ys := rc.scratch[:0]
	for i := top; i != target; i = nodes[i].Next {
		y := nodes[i].Block
		if _, ok := rc.prefix[y]; ok {
			continue
		}
		if j+len(ys)+1 > cacheBlocks {
			rc.scratch = ys
			p.Capacity++
			rc.stats.GatedCapacityMisses++
			return
		}
		ys = append(ys, y)
	}
	rc.scratch = ys
	p.Candidates++
	if tbl := p.Table; tbl != nil {
		for _, y := range prefix {
			tbl[b^y]++
		}
		for _, y := range ys {
			tbl[b^y]++
		}
	} else if sk := p.Sketch; sk != nil {
		for _, y := range prefix {
			sk.Inc(b ^ y)
		}
		for _, y := range ys {
			sk.Inc(b ^ y)
		}
	} else {
		sp := p.Sparse
		for _, y := range prefix {
			sp[b^y]++
		}
		for _, y := range ys {
			sp[b^y]++
		}
	}
	d := uint64(j + len(ys))
	p.TotalPairs += d
	rc.stats.CandidateWalks++
	rc.stats.WalkSteps += d
}
