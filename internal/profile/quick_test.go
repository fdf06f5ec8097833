package profile

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"xoridx/internal/gf2"
)

// quickTrace generates short structured block traces mixing strides,
// ping-pongs and random touches in a 10-bit block space.
type quickTrace struct{ Blocks []uint64 }

// Generate implements quick.Generator.
func (quickTrace) Generate(r *rand.Rand, size int) reflect.Value {
	n := 200 + r.Intn(800)
	blocks := make([]uint64, 0, n)
	for len(blocks) < n {
		switch r.Intn(3) {
		case 0: // stride burst
			stride := uint64(1) << uint(r.Intn(8))
			base := uint64(r.Intn(1024))
			for i := uint64(0); i < 16; i++ {
				blocks = append(blocks, (base+i*stride)&1023)
			}
		case 1: // ping-pong
			a, b := uint64(r.Intn(1024)), uint64(r.Intn(1024))
			for i := 0; i < 10; i++ {
				blocks = append(blocks, a, b)
			}
		default: // random touches
			for i := 0; i < 8; i++ {
				blocks = append(blocks, uint64(r.Intn(1024)))
			}
		}
	}
	return reflect.ValueOf(quickTrace{Blocks: blocks[:n]})
}

var quickCfg = &quick.Config{MaxCount: 60}

func TestQuickProfileAccounting(t *testing.T) {
	// accesses = compulsory + capacity + candidates; table sums to
	// TotalPairs; Table[0] is always zero — on arbitrary traces.
	f := func(qt quickTrace) bool {
		p := buildBlocks(qt.Blocks, 10, 64)
		if p.Accesses != p.Compulsory+p.Capacity+p.Candidates {
			return false
		}
		var sum uint64
		for _, c := range p.Table {
			sum += c
		}
		return sum == p.TotalPairs && p.Table[0] == 0
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEstimateMonotoneInNullSpace(t *testing.T) {
	// If N(H1) ⊆ N(H2) then misses(H1) <= misses(H2): a larger null
	// space can only admit more conflict vectors (Eq. 4 is a sum of
	// non-negative terms over the null space).
	f := func(qt quickTrace, seed int64) bool {
		p := buildBlocks(qt.Blocks, 10, 64)
		r := rand.New(rand.NewSource(seed))
		// Build a chain: small subspace ⊂ extended subspace.
		small := gf2.Span(10, gf2.Vec(r.Uint64())&gf2.Mask(10), gf2.Vec(r.Uint64())&gf2.Mask(10))
		var v gf2.Vec
		for {
			v = gf2.Vec(r.Uint64()) & gf2.Mask(10)
			if !small.Contains(v) {
				break
			}
		}
		big := small.Extend(v)
		return p.EstimateSubspace(small) <= p.EstimateSubspace(big)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEstimateInvariantUnderRecombination(t *testing.T) {
	// Post-multiplying H by an invertible matrix changes H but not its
	// estimate (same null space) — the paper's §2 equivalence.
	f := func(qt quickTrace, seed int64) bool {
		p := buildBlocks(qt.Blocks, 10, 64)
		r := rand.New(rand.NewSource(seed))
		var h gf2.Matrix
		for {
			h = gf2.NewMatrix(10, 5)
			for c := range h.Cols {
				h.Cols[c] = gf2.Vec(r.Uint64()) & gf2.Mask(10)
			}
			if h.Rank() == 5 {
				break
			}
		}
		b := gf2.RandomInvertible(5, r.Uint64)
		return p.EstimateMatrix(h) == p.EstimateMatrix(h.Mul(b))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBuilderEquivalence(t *testing.T) {
	// Incremental building matches batch building on arbitrary traces.
	f := func(qt quickTrace) bool {
		want := buildBlocks(qt.Blocks, 10, 32)
		b := NewBuilder(10, 32)
		for _, blk := range qt.Blocks {
			b.Add(blk)
		}
		got := b.Finish()
		if got.TotalPairs != want.TotalPairs || got.Capacity != want.Capacity {
			return false
		}
		for v := range want.Table {
			if got.Table[v] != want.Table[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Fatal(err)
	}
}
