package gf2

import "math/bits"

// LinearMap is a GF(2)-linear map from n-bit vectors to uint64,
// compiled by the method of Four Russians: one 256-entry table per
// input byte, entry x of table b holding the image of the byte value x
// placed at bits 8b..8b+7. Apply then costs ⌈n/8⌉ lookups and XORs
// instead of one step per input bit (GatherBits) or per output bit
// (Matrix.Apply). Input bits at or above n map to 0.
//
// A LinearMap is read-only after construction and safe for concurrent
// use.
type LinearMap struct {
	tabs [][256]uint64
}

// compile tabulates, in lm's own storage when it is large enough, the
// linear map whose image of the unit vector e_i is image(i), for i < n.
func (lm *LinearMap) compile(n int, image func(i int) uint64) {
	checkDim(n)
	nt := (n + 7) / 8
	if cap(lm.tabs) < nt {
		lm.tabs = make([][256]uint64, nt)
	}
	lm.tabs = lm.tabs[:nt]
	for b := range lm.tabs {
		var img [8]uint64
		for j := range img {
			if i := 8*b + j; i < n {
				img[j] = image(i)
			}
		}
		t := &lm.tabs[b]
		t[0] = 0
		for x := 1; x < 256; x++ {
			// x = low ⊕ e_j with low < x already tabulated.
			t[x] = t[x&(x-1)] ^ img[bits.TrailingZeros8(uint8(x))]
		}
	}
}

// SetCoset compiles into lm the map v ↦ GatherBits(Reduce(v, basis),
// free): the packed coset index of v modulo span(basis). The basis must
// be a canonical RREF basis of a subspace of GF(2)^n (Subspace.Basis)
// and free its FreePositions, so the residue is linear in v and
// supported on free. lm's tables are reused, so a loop that compiles
// one map per subspace into the same LinearMap allocates only once.
func (lm *LinearMap) SetCoset(n int, basis []Vec, free []int) {
	lm.compile(n, func(i int) uint64 {
		return GatherBits(reduce(Unit(i), basis), free)
	})
}

// NewMatrixMap compiles a ↦ a·H, so Apply(a) == uint64(h.Apply(a)).
func NewMatrixMap(h Matrix) LinearMap {
	var lm LinearMap
	if h.N > 0 {
		lm.compile(h.N, func(i int) uint64 { return uint64(h.Row(i)) })
	}
	return lm
}

// Tables returns the compiled byte tables, table b serving input bits
// 8b..8b+7, for loops that hoist them out of a per-access Apply. The
// slice is the map's own storage and must not be modified.
func (lm LinearMap) Tables() [][256]uint64 { return lm.tabs }

// Apply returns the image of v. Bits of v at or above the map's input
// width are ignored.
func (lm LinearMap) Apply(v Vec) uint64 {
	var out uint64
	for b := range lm.tabs {
		out ^= lm.tabs[b][byte(v>>(8*uint(b)))]
	}
	return out
}
