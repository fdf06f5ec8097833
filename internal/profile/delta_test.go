package profile

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"xoridx/internal/gf2"
	"xoridx/internal/xerr"
)

// randomConflictProfile builds a profile from a random trace dense
// enough to populate the histogram.
func randomConflictProfile(r *rand.Rand, n, cacheBlocks, accesses int) *Profile {
	space := n
	if space > 12 {
		space = 12
	}
	blocks := make([]uint64, accesses)
	for i := range blocks {
		blocks[i] = uint64(r.Intn(1 << uint(space)))
	}
	return buildBlocks(blocks, n, cacheBlocks)
}

// randomSubspaceDim returns a random subspace of exactly dim d.
func randomSubspaceDim(r *rand.Rand, n, d int) gf2.Subspace {
	for {
		vecs := make([]gf2.Vec, d)
		for i := range vecs {
			vecs[i] = gf2.Vec(r.Uint64()) & gf2.Mask(n)
		}
		sp := gf2.Span(n, vecs...)
		if sp.Dim() == d {
			return sp
		}
	}
}

// TestEstimateDeltaMatchesCosetEnumeration pins EstimateDelta against
// the definition: the sum of misses(v) over the explicit coset members.
func TestEstimateDeltaMatchesCosetEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 4 + r.Intn(7)
		p := randomConflictProfile(r, n, 1<<uint(r.Intn(4)), 2000)
		k := r.Intn(n)
		w := randomSubspaceDim(r, n, k)
		rep := gf2.Vec(r.Uint64()) & gf2.Mask(n)
		var want uint64
		for _, v := range w.CosetMembers(rep, nil) {
			want += p.At(v)
		}
		if got := p.EstimateDelta(w.Basis, rep); got != want {
			t.Fatalf("trial %d (n=%d k=%d rep=%v): EstimateDelta = %d, want %d",
				trial, n, k, rep, got, want)
		}
	}
}

// TestDeltaIdentityQuick sweeps the coset-delta identity of DESIGN.md
// §10 over random (n, m): for a null space V, every hyperplane W of V
// and a representative rep of V∖W must satisfy
// est(V) == est(W) + delta(W, rep).
func TestDeltaIdentityQuick(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	check := func(nRaw, mRaw uint8, seed int64) bool {
		n := 4 + int(nRaw)%8 // 4..11
		m := 1 + int(mRaw)%(n-1)
		d := n - m
		rr := rand.New(rand.NewSource(seed))
		p := randomConflictProfile(rr, n, 1<<uint(m), 1500)
		v := randomSubspaceDim(rr, n, d)
		want := p.EstimateSubspace(v)
		for _, w := range v.Hyperplanes(nil) {
			var rep gf2.Vec
			for _, b := range v.Basis {
				if !w.Contains(b) {
					rep = b
					break
				}
			}
			if got := p.EstimateBasis(w.Basis) + p.EstimateDelta(w.Basis, rep); got != want {
				t.Logf("n=%d m=%d: est(W)+delta = %d, est(V) = %d", n, m, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseFlatDifferential builds the same trace through both
// backends and demands identical counters, histogram entries and
// estimates.
func TestSparseFlatDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(7)
		cacheBlocks := 1 << uint(r.Intn(5))
		blocks := make([]uint64, 1500)
		for i := range blocks {
			blocks[i] = uint64(r.Intn(1 << uint(n)))
		}
		flat := buildBlocks(blocks, n, cacheBlocks)
		sparse := mustBuild(Blocks(blocks), n, cacheBlocks, Options{ForceSparse: true})
		if flat.Sparse != nil || sparse.Table != nil {
			t.Fatal("backend selection wrong")
		}
		if flat.Accesses != sparse.Accesses || flat.Compulsory != sparse.Compulsory ||
			flat.Capacity != sparse.Capacity || flat.Candidates != sparse.Candidates ||
			flat.TotalPairs != sparse.TotalPairs {
			t.Fatalf("trial %d: counters differ: %+v vs %+v", trial, flat, sparse)
		}
		for v := gf2.Vec(0); v < gf2.Vec(1)<<uint(n); v++ {
			if flat.At(v) != sparse.At(v) {
				t.Fatalf("trial %d: At(%v) = %d flat vs %d sparse", trial, v, flat.At(v), sparse.At(v))
			}
		}
		for k := 0; k < 4; k++ {
			sp := randomSubspaceDim(r, n, r.Intn(n+1))
			if flat.EstimateSubspace(sp) != sparse.EstimateSubspace(sp) {
				t.Fatalf("trial %d: EstimateSubspace differs on %v", trial, sp.Basis)
			}
			rep := gf2.Vec(r.Uint64()) & gf2.Mask(n)
			if flat.EstimateDelta(sp.Basis, rep) != sparse.EstimateDelta(sp.Basis, rep) {
				t.Fatalf("trial %d: EstimateDelta differs on %v rep=%v", trial, sp.Basis, rep)
			}
		}
		sf := flat.Support()
		ss := sparse.Support()
		if len(sf) != len(ss) {
			t.Fatalf("trial %d: support sizes differ: %d vs %d", trial, len(sf), len(ss))
		}
		for i := range sf {
			if sf[i] != ss[i] {
				t.Fatalf("trial %d: support[%d] differs: %+v vs %+v", trial, i, sf[i], ss[i])
			}
		}
	}
}

// TestSparseWideAddressSmoke exercises the lifted width limit: a 40-bit
// profile must build, estimate (via the support scan — the null space
// has 2^32 members) and merge without materialising 2^40 counters.
func TestSparseWideAddressSmoke(t *testing.T) {
	const n, m = 40, 8
	// Four wide blocks with identical (zero) low bits: they collide in
	// set 0 under modulo indexing but fit a 4-block FA cache, so every
	// re-reference is a conflict candidate.
	ws := []uint64{1 << 30, 1 << 31, 1 << 32, 1<<30 | 1<<31}
	var blocks []uint64
	for rep := 0; rep < 8; rep++ {
		blocks = append(blocks, ws...)
	}
	p := buildBlocks(blocks, n, len(ws))
	if p.Table != nil || p.Sparse == nil {
		t.Fatal("n=40 must select the sparse backend")
	}
	conv := p.EstimateConventional(m)
	// Brute-force oracle over the support: v is a conventional conflict
	// iff its low m bits are zero.
	var want uint64
	p.ForEachNonZero(func(v gf2.Vec, c uint64) {
		if v&gf2.Mask(m) == 0 {
			want += c
		}
	})
	if conv == 0 || conv != want {
		t.Fatalf("conventional estimate = %d, support oracle = %d", conv, want)
	}
	o := buildBlocks(blocks, n, len(ws))
	if err := p.Merge(o); err != nil {
		t.Fatal(err)
	}
	if got := p.EstimateConventional(m); got != 2*conv {
		t.Fatalf("merged estimate = %d, want %d", got, 2*conv)
	}
	if hot := p.HotVectors(4); len(hot) == 0 {
		t.Fatal("HotVectors empty on a conflicting trace")
	}
}

// TestMergeBackendMismatch pins the flat-vs-sparse merge error.
func TestMergeBackendMismatch(t *testing.T) {
	flat := buildBlocks([]uint64{1, 2, 1, 2}, 8, 4)
	sparse := mustBuild(Blocks([]uint64{1, 2, 1, 2}), 8, 4, Options{ForceSparse: true})
	if err := flat.Merge(sparse); !errors.Is(err, xerr.ErrProfileMismatch) {
		t.Fatalf("merging sparse into flat: err = %v, want ErrProfileMismatch", err)
	}
}
