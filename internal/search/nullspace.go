package search

import (
	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

// climbNullSpace performs steepest-descent hill climbing over null
// spaces of dimension n−m, the paper's search for general XOR
// functions. start==0 begins at the conventional null space
// span(e_m..e_{n−1}); start>0 begins at a random subspace of the same
// dimension. With s.ev set, candidates are scored through the
// incremental coset-sum evaluator instead of full Gray-code walks —
// the estimates are the same integers, so the trajectory, the final
// matrix and Evaluated are bit-identical to the brute path. With
// Options.Workers other than 0 or 1 each move's neighbourhood is
// fanned out across goroutines (bestNeighborParallel), again with a
// bit-identical result.
func (s *state) climbNullSpace(start int) (Result, error) {
	n, m := s.n, s.m
	d := n - m
	var res Result
	var cur gf2.Subspace
	var curEst uint64
	if sn := s.takeResume(); sn != nil {
		// Continue the checkpointed climb from its recorded state: the
		// score is in the snapshot, so nothing is re-estimated, and
		// steepest descent from here is the uninterrupted trajectory.
		cur = gf2.Span(n, sn.Basis...)
		curEst = sn.CurEst
		res.Iterations = sn.ClimbIterations
		res.Evaluated = sn.ClimbEvaluated
	} else {
		cur = gf2.SpanUnits(n, m, n)
		if start > 0 {
			cur = s.randomSubspace(d)
		}
		curEst = s.p.EstimateSubspace(cur)
		res.Lookups = uint64(1) << uint(d)
	}
	// degraded tags the best-so-far state for an interrupted return:
	// the caller still gets a valid matrix.
	degraded := func() Result {
		res.Matrix = gf2.MatrixWithNullSpace(cur)
		res.Estimated = curEst
		res.Degraded = true
		return res
	}
	for {
		if s.capIterations(res.Iterations) {
			break
		}
		// Neighbors: every hyperplane W of cur extended by every vector
		// outside cur, enumerated once per neighbor via canonical coset
		// representatives (vectors supported on W's non-pivot bits).
		hps := cur.Hyperplanes(nil)
		var best candidate
		var evaluated int
		var reads uint64
		var err error
		if s.opt.Workers == 0 || s.opt.Workers == 1 {
			best, evaluated, reads, err = s.bestNeighbor(cur, curEst, hps)
		} else {
			best, evaluated, reads, err = s.bestNeighborParallel(cur, curEst, hps, s.opt.Workers)
		}
		res.Evaluated += evaluated
		res.Lookups += reads
		if err != nil {
			return degraded(), err
		}
		if !best.valid {
			break // local optimum (paper §3.2: algorithm stops)
		}
		// Reconstruct the winning subspace: hyperplane + representative.
		cur = gf2.Span(n, append(append([]gf2.Vec{}, hps[best.hpIdx].Basis...), best.rep)...)
		curEst = best.est
		res.Iterations++
		s.emit(res.Iterations, res.Evaluated, curEst)
		if err := s.maybeCheckpoint(cur, curEst, &res); err != nil {
			return degraded(), err
		}
	}
	res.Matrix = gf2.MatrixWithNullSpace(cur)
	res.Estimated = curEst
	return res, nil
}

// bestNeighbor is the sequential neighbourhood scan: the first
// candidate, in (hyperplane, representative) enumeration order, with
// the lowest estimate strictly below curEst. It returns the candidate
// evaluations and histogram reads spent, also on error.
func (s *state) bestNeighbor(cur gf2.Subspace, curEst uint64, hps []gf2.Subspace) (candidate, int, uint64, error) {
	poll := func() error { return xerr.Check(s.ctx) }
	buf := newScanBuf(cur.Dim())
	best := candidate{est: curEst}
	evaluated := 0
	var reads uint64
	for hpIdx, w := range hps {
		sc, err := s.scanHyperplane(cur, w, best.est, buf, poll)
		evaluated += sc.evaluated
		reads += sc.lookups
		if err != nil {
			return candidate{}, evaluated, reads, err
		}
		if sc.est < best.est {
			best = candidate{est: sc.est, hpIdx: hpIdx, rep: sc.rep, valid: true}
		}
	}
	return best, evaluated, reads, nil
}

// scanBuf is one goroutine's reusable scratch for scanHyperplane.
type scanBuf struct {
	basis []gf2.Vec     // candidate basis for the brute-force walks
	lm    gf2.LinearMap // coset map, recompiled per table build
}

func newScanBuf(d int) *scanBuf { return &scanBuf{basis: make([]gf2.Vec, d)} }

// hpScan is one hyperplane's share of a neighbourhood scan.
type hpScan struct {
	est       uint64  // lowest estimate found, or the bound if none beat it
	rep       gf2.Vec // representative of the first neighbour scoring est
	evaluated int     // candidates scored
	lookups   uint64  // histogram-read work units spent scoring them
}

// scanHyperplane scores every neighbour span(w, rep) of cur through
// the hyperplane w ⊂ cur and keeps the first one whose estimate is
// strictly below bound. Representatives are enumerated as
// rep = ScatterBits(x, free) for ascending x, which is ascending rep
// (scatter preserves order), so the (estimate, hyperplane,
// representative) tie-break is the enumeration order. poll is called
// once on entry and then every ctxCheckEvery representatives.
//
// A representative is supported on w's free positions, so its packed
// coset index is x itself: with a coset table the score is
// tb.sw + tb.sums[x], and ScatterBits is needed only for the winner.
// Exactly one non-zero coset of w lies inside cur, and span(w, rep)
// is a neighbour unless rep is in it, so the membership test
// cur.Contains(rep) reduces to x != skip.
func (s *state) scanHyperplane(cur, w gf2.Subspace, bound uint64, buf *scanBuf, poll func() error) (hpScan, error) {
	sc := hpScan{est: bound}
	if err := poll(); err != nil {
		return sc, err
	}
	var tb *hpTable
	var free []int
	if s.ev != nil {
		tb = s.ev.table(w, &buf.lm)
		free = tb.free
	} else {
		free = gf2.FreePositions(s.n, w.Basis)
	}
	skip := insideCoset(cur, w, free)
	// Histogram reads per candidate: two table reads, or one walk of
	// the coset or of the whole candidate null space.
	var sums []uint64
	var sw, reads uint64
	var slow func(x uint64) uint64
	switch {
	case tb != nil && tb.sums != nil:
		sums, sw, reads = tb.sums, tb.sw, 2
	case tb != nil:
		// Coset table past maxTableBits: walk each coset instead.
		reads = uint64(1) << uint(len(tb.basis))
		slow = func(x uint64) uint64 {
			return tb.sw + s.p.EstimateDelta(tb.basis, gf2.ScatterBits(x, free))
		}
	default:
		basis := buf.basis
		copy(basis, w.Basis)
		last := len(basis) - 1
		reads = uint64(1) << uint(len(basis))
		slow = func(x uint64) uint64 {
			basis[last] = gf2.ScatterBits(x, free)
			return s.p.EstimateBasis(basis)
		}
	}
	var err error
	bestEst, bestX, evaluated := bound, uint64(0), 0
	for x := uint64(1); x < uint64(1)<<uint(len(free)); x++ {
		if x&(ctxCheckEvery-1) == 0 {
			if err = poll(); err != nil {
				break
			}
		}
		if x == skip {
			continue
		}
		var est uint64
		if sums != nil {
			est = sw + sums[x]
		} else {
			est = slow(x)
		}
		evaluated++
		if est < bestEst {
			bestEst, bestX = est, x
		}
	}
	sc.est, sc.evaluated, sc.lookups = bestEst, evaluated, reads*uint64(evaluated)
	if bestX != 0 {
		sc.rep = gf2.ScatterBits(bestX, free)
	}
	return sc, err
}

// insideCoset returns the packed coset index of cur \ w, the one
// non-zero coset of the hyperplane w that lies inside cur.
func insideCoset(cur, w gf2.Subspace, free []int) uint64 {
	for _, b := range cur.Basis {
		if r := gf2.Reduce(b, w.Basis); r != 0 {
			return gf2.GatherBits(r, free)
		}
	}
	return 0
}

// randomSubspace returns a uniform-ish random d-dimensional subspace.
func (s *state) randomSubspace(d int) gf2.Subspace {
	for {
		vecs := make([]gf2.Vec, d)
		for i := range vecs {
			vecs[i] = gf2.Vec(s.rng.Uint64()) & gf2.Mask(s.n)
		}
		sp := gf2.Span(s.n, vecs...)
		if sp.Dim() == d {
			return sp
		}
	}
}
