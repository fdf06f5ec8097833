package search

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

// The null-space neighbourhood at n=16, d=8 holds ~130 K candidates per
// hill-climbing step, each scored independently and read-only (a
// coset-table read, or a Gray-code walk over the profile table) —
// embarrassingly parallel. With Options.Workers > 1 the hyperplanes
// are fanned out across goroutines. Results are bit-for-bit identical
// to the sequential search: every candidate carries its (hyperplane,
// representative) enumeration rank and the merge picks the minimum
// (estimate, rank), which is exactly the candidate the sequential
// first-strictly-better rule selects.

// candidate identifies one neighbor and its score.
type candidate struct {
	est   uint64
	hpIdx int
	rep   gf2.Vec
	valid bool
}

// better orders candidates by (estimate, enumeration rank).
func (c candidate) better(o candidate) bool {
	if !o.valid {
		return c.valid
	}
	if !c.valid {
		return false
	}
	if c.est != o.est {
		return c.est < o.est
	}
	if c.hpIdx != o.hpIdx {
		return c.hpIdx < o.hpIdx
	}
	return c.rep < o.rep
}

// bestNeighborParallel scores every neighbor of cur across workers and
// returns the best candidate strictly below curEst, if any, with the
// candidate evaluations and histogram reads spent (also on error).
// Cancellation is errgroup-style: every worker polls a context derived
// from the search's; the first worker to observe cancellation cancels
// the derived context so its siblings stop at their next poll, the
// goroutines are all joined, and the error is returned.
func (s *state) bestNeighborParallel(cur gf2.Subspace, curEst uint64, hps []gf2.Subspace, workers int) (candidate, int, uint64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(hps) {
		workers = len(hps)
	}
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	results := make([]candidate, workers)
	counts := make([]int, workers)
	lookups := make([]uint64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A panicking worker must not take the process down: convert
			// the panic into a wrapped xerr.ErrPanic, stop the siblings,
			// and let the join below surface it as an ordinary error.
			defer func() {
				if r := recover(); r != nil {
					errs[w] = xerr.Panicked(fmt.Sprintf("search: neighbor worker %d", w), r)
					cancel()
				}
			}()
			poll := func() error { return xerr.Check(ctx) }
			buf := newScanBuf(cur.Dim())
			best := candidate{est: curEst}
			for hpIdx := w; hpIdx < len(hps); hpIdx += workers {
				// Workers own disjoint hyperplane strides, so no table
				// is ever built twice within a move; across moves and
				// restarts the shared memo serves hits.
				sc, err := s.scanHyperplane(cur, hps[hpIdx], best.est, buf, poll)
				counts[w] += sc.evaluated
				lookups[w] += sc.lookups
				if err != nil {
					errs[w] = err
					cancel() // stop the sibling workers promptly
					return
				}
				if sc.est < best.est {
					best = candidate{est: sc.est, hpIdx: hpIdx, rep: sc.rep, valid: true}
				}
			}
			results[w] = best
		}(w)
	}
	wg.Wait()
	total := 0
	var reads uint64
	for w := range results {
		total += counts[w]
		reads += lookups[w]
	}
	// Prefer a cancellation of the search's own context over the derived
	// one: the first worker to fail canceled ctx for its siblings, and
	// their secondary errors would otherwise mask the cause.
	if err := xerr.Check(s.ctx); err != nil {
		return candidate{}, total, reads, err
	}
	// With the search's context healthy, any cancellation recorded by a
	// worker is secondary — it observed the derived context after a
	// panicking sibling canceled it. Prefer the cause (the panic) over
	// such echoes, whatever the worker order.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil || (errors.Is(firstErr, xerr.ErrCanceled) && !errors.Is(err, xerr.ErrCanceled)) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return candidate{}, total, reads, firstErr
	}
	merged := candidate{}
	for w := range results {
		if results[w].better(merged) {
			merged = results[w]
		}
	}
	return merged, total, reads, nil
}
