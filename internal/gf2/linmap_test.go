package gf2

import (
	"math/rand"
	"testing"
)

// linMapWidths covers every byte-boundary case of the table split.
var linMapWidths = []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64}

// linMapInputs returns random inputs with bits set above n (unmasked
// 64-bit words) plus the unit vectors and the all-ones word.
func linMapInputs(rng *rand.Rand, n int) []Vec {
	in := []Vec{0, ^Vec(0), Mask(n)}
	for i := 0; i < MaxBits; i++ {
		in = append(in, Unit(i))
	}
	for i := 0; i < 200; i++ {
		in = append(in, Vec(rng.Uint64()))
	}
	return in
}

// TestCosetMapMatchesGatherReduce is the differential oracle of the
// compiled coset-residue map against the bit-at-a-time composition it
// replaces, on random RREF bases of every dimension class. Besides a
// fresh map per subspace, one map is recompiled in place across widths
// that grow and shrink, so stale table entries would show.
func TestCosetMapMatchesGatherReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var reused LinearMap
	widths := append(append([]int{}, linMapWidths...), 64, 1, 33, 9)
	for _, n := range widths {
		for trial := 0; trial < 8; trial++ {
			w := randomSubspace(rng, n, rng.Intn(n+1))
			free := FreePositions(n, w.Basis)
			var lm LinearMap
			lm.SetCoset(n, w.Basis, free)
			reused.SetCoset(n, w.Basis, free)
			for _, v := range linMapInputs(rng, n) {
				want := GatherBits(Reduce(v&Mask(n), w.Basis), free)
				if got := lm.Apply(v); got != want {
					t.Fatalf("n=%d dim=%d v=%#x: Apply = %#x, GatherBits(Reduce) = %#x",
						n, w.Dim(), uint64(v), got, want)
				}
				if got := reused.Apply(v); got != want {
					t.Fatalf("n=%d dim=%d v=%#x: recompiled Apply = %#x, GatherBits(Reduce) = %#x",
						n, w.Dim(), uint64(v), got, want)
				}
			}
		}
	}
}

// TestMatrixMapMatchesApply checks the compiled a ↦ a·H against
// Matrix.Apply, including inputs with bits above N.
func TestMatrixMapMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range linMapWidths {
		for _, m := range []int{1, n / 2, n, 64} {
			if m == 0 {
				continue
			}
			h := NewMatrix(n, m)
			for c := range h.Cols {
				h.Cols[c] = Vec(rng.Uint64()) & Mask(n)
			}
			lm := NewMatrixMap(h)
			for _, v := range linMapInputs(rng, n) {
				if got, want := lm.Apply(v), uint64(h.Apply(v)); got != want {
					t.Fatalf("n=%d m=%d v=%#x: Apply = %#x, Matrix.Apply = %#x", n, m, uint64(v), got, want)
				}
			}
		}
	}
}

// FuzzLinearMap drives both constructors with arbitrary widths, bases
// and inputs against their bit-at-a-time references.
func FuzzLinearMap(f *testing.F) {
	f.Add(uint8(16), uint64(0x00ff), uint64(0x1234), uint64(0xdeadbeef), uint64(0xffffffffffffffff))
	f.Add(uint8(9), uint64(0x1ff), uint64(0x100), uint64(3), uint64(1<<9|1))
	f.Add(uint8(64), uint64(1<<63), uint64(0), uint64(1), uint64(1<<40))
	f.Fuzz(func(t *testing.T, nRaw uint8, a, b, c, v uint64) {
		n := 1 + int(nRaw)%MaxBits
		w := Span(n, Vec(a), Vec(b), Vec(c))
		free := FreePositions(n, w.Basis)
		var lm LinearMap
		lm.SetCoset(n, w.Basis, free)
		if got, want := lm.Apply(Vec(v)), GatherBits(Reduce(Vec(v)&Mask(n), w.Basis), free); got != want {
			t.Fatalf("n=%d coset map: %#x, want %#x", n, got, want)
		}
		h := MatrixFromCols(n, []Vec{Vec(a), Vec(b), Vec(c), Vec(a ^ c)})
		if got, want := NewMatrixMap(h).Apply(Vec(v)), uint64(h.Apply(Vec(v))); got != want {
			t.Fatalf("n=%d matrix map: %#x, want %#x", n, got, want)
		}
	})
}
