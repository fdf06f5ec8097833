package search

import (
	"sync"
	"sync/atomic"

	"xoridx/internal/gf2"
	"xoridx/internal/profile"
)

// Incremental null-space evaluation (DESIGN.md §10). Every neighbour of
// the current null space N is span(W, rep) for a hyperplane W ⊂ N and a
// representative rep ∉ N, and splits as the disjoint union
//
//	span(W, rep) = span(W) ∪ (span(W) ⊕ rep)
//
// so its Eq. 4 estimate is S(W) + Δ(W, rep) with S(W) the hyperplane's
// own estimate and Δ the coset sum. Rather than Gray-walking 2^d
// histogram entries per candidate, the evaluator tabulates, once per
// hyperplane, the sum of misses(v) over every coset of span(W): one
// sweep of the histogram support serves all 2^(n-d+1)-2 representatives
// of W at two array reads each. The tables are memoized under the
// hyperplane's canonical reduced-row-echelon key and shared across
// moves, restarts and workers, so no null space is ever re-estimated
// against the histogram — a revisited candidate costs O(1).

// maxTableBits caps the per-hyperplane coset table at 2^22 entries;
// beyond that the evaluator falls back to per-representative coset
// walks (EstimateDelta), still half the cost of a full re-walk.
const maxTableBits = 22

// maxMemoWords bounds the total coset-table entries kept in the memo
// (2^22 words = 32 MB). Past the budget tables are still built and
// used for the current hyperplane but not retained; results are
// unaffected, only reuse.
const maxMemoWords = 1 << 22

// hpTable is the per-hyperplane partial-sum table.
type hpTable struct {
	basis []gf2.Vec // canonical RREF basis of the hyperplane W
	free  []int     // ascending non-pivot bit positions of W
	sums  []uint64  // Δ(W, coset) indexed by the packed residue; nil past maxTableBits
	sw    uint64    // S(W): the estimate of span(W) itself (sums[0])
}

// nullEvaluator scores null-space neighbours incrementally against one
// profile. It is safe for concurrent use by the parallel climb; the
// lookup/hit counters are atomic and the table memo is mutex-guarded.
type nullEvaluator struct {
	p       *profile.Profile
	support []profile.VectorCount

	mu     sync.Mutex
	tables map[string]*hpTable
	words  int // total sums entries retained, against maxMemoWords

	// lookups counts histogram-read work units: support entries swept
	// per table build, 2^k entries per Gray walk, and two array reads
	// per estimateExtend score. The climb's scanHyperplane books its
	// own candidate reads in the Result. The one-time support
	// extraction is excluded (it is a fixed scan shared by every climb).
	lookups atomic.Uint64
	hits    atomic.Uint64 // memoized hyperplane tables reused
}

func newNullEvaluator(p *profile.Profile) *nullEvaluator {
	return &nullEvaluator{p: p, support: p.Support(), tables: make(map[string]*hpTable)}
}

// table returns the coset-sum table of hyperplane w, building it on
// first use with lm as the caller's scratch map. Concurrent callers
// ask for distinct hyperplanes within one move (they partition the
// neighbourhood), so a build is never raced; the re-check on insert
// keeps the memo consistent regardless.
func (e *nullEvaluator) table(w gf2.Subspace, lm *gf2.LinearMap) *hpTable {
	k := w.Key()
	e.mu.Lock()
	if tb, ok := e.tables[k]; ok {
		e.mu.Unlock()
		e.hits.Add(1)
		return tb
	}
	e.mu.Unlock()
	tb := e.build(w, lm)
	e.mu.Lock()
	if old, ok := e.tables[k]; ok {
		tb = old
	} else if e.words+len(tb.sums) <= maxMemoWords {
		e.tables[k] = tb
		e.words += len(tb.sums)
	}
	e.mu.Unlock()
	return tb
}

// build sweeps the histogram support once, accumulating each entry into
// the coset of span(w.Basis) it lies in: the RREF residue of a vector
// is supported on w's free positions and identifies its coset.
func (e *nullEvaluator) build(w gf2.Subspace, lm *gf2.LinearMap) *hpTable {
	tb := &hpTable{basis: w.Basis, free: gf2.FreePositions(w.N, w.Basis)}
	if len(tb.free) > maxTableBits {
		tb.sw = e.p.EstimateBasis(tb.basis)
		e.lookups.Add(uint64(1) << uint(len(tb.basis)))
		return tb
	}
	// The coset index GatherBits(Reduce(v, basis), free) is linear in
	// v: compiled into byte tables it costs ⌈n/8⌉ lookups per support
	// entry. The map is recompiled per build in the caller's scratch
	// rather than memoized, so the memo holds only the sums.
	lm.SetCoset(w.N, tb.basis, tb.free)
	tb.sums = make([]uint64, uint64(1)<<uint(len(tb.free)))
	for _, vc := range e.support {
		tb.sums[lm.Apply(vc.Vec)] += vc.Count
	}
	e.lookups.Add(uint64(len(e.support)))
	tb.sw = tb.sums[0]
	return tb
}

// estimateExtend scores span(W, v) for an arbitrary v ∉ span(W): the
// coset index is the packed RREF residue of v.
func (e *nullEvaluator) estimateExtend(tb *hpTable, v gf2.Vec) uint64 {
	if tb.sums != nil {
		e.lookups.Add(2)
		return tb.sw + tb.sums[gf2.GatherBits(gf2.Reduce(v, tb.basis), tb.free)]
	}
	e.lookups.Add(uint64(1) << uint(len(tb.basis)))
	return tb.sw + e.p.EstimateDelta(tb.basis, v)
}
