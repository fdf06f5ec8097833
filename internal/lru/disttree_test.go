package lru

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDistanceTreeMatchesStack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewStack()
	d := NewDistanceTree(64)
	for i := 0; i < 20000; i++ {
		b := uint64(rng.Intn(300))
		want := touch(s, b)
		got := d.Touch(b)
		if got != want {
			t.Fatalf("access %d block %d: tree %d, stack %d", i, b, got, want)
		}
	}
	if n := len(s.Blocks()); d.Len() != n {
		t.Fatalf("Len mismatch: %d vs %d", d.Len(), n)
	}
}

func TestDistanceTreeSequential(t *testing.T) {
	d := NewDistanceTree(64)
	// First pass over 100 blocks: all cold.
	for b := uint64(0); b < 100; b++ {
		if got := d.Touch(b); got != -1 {
			t.Fatalf("cold access distance %d", got)
		}
	}
	// Second pass: every distance is 99 (all other blocks between).
	for b := uint64(0); b < 100; b++ {
		if got := d.Touch(b); got != 99 {
			t.Fatalf("second pass block %d: distance %d, want 99", b, got)
		}
	}
}

func TestDistanceTreeProperty(t *testing.T) {
	// Against the naive reference on arbitrary short traces.
	f := func(raw []byte) bool {
		blocks := make([]uint64, len(raw))
		for i, r := range raw {
			blocks[i] = uint64(r % 17)
		}
		want := referenceDistances(blocks)
		d := NewDistanceTree(64)
		for i, b := range blocks {
			if d.Touch(b) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFAMisses(t *testing.T) {
	// Cyclic pattern over 4 blocks with capacity 4: only 4 cold misses.
	var blocks []uint64
	for r := 0; r < 10; r++ {
		for b := uint64(0); b < 4; b++ {
			blocks = append(blocks, b)
		}
	}
	if got := FAMisses(blocks, 4); got != 4 {
		t.Fatalf("capacity 4: %d misses, want 4", got)
	}
	// Capacity 3 with LRU on a cyclic 4-block pattern: everything misses.
	if got := FAMisses(blocks, 3); got != 40 {
		t.Fatalf("capacity 3: %d misses, want 40", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(8)
	h.Add(-1)
	h.Add(0)
	h.Add(3)
	h.Add(8)
	h.Add(100) // clamps into last bucket
	if h.Cold != 1 {
		t.Fatalf("cold = %d", h.Cold)
	}
	if h.Buckets[0] != 1 || h.Buckets[3] != 1 || h.Buckets[8] != 2 {
		t.Fatalf("buckets = %v", h.Buckets)
	}
	// Capacity 4 misses: cold + distances >= 4 -> 1 + 2 = 3.
	if got := h.MissesAt(4); got != 3 {
		t.Fatalf("MissesAt(4) = %d", got)
	}
	// Capacity 1: cold + everything except distance 0.
	if got := h.MissesAt(1); got != 4 {
		t.Fatalf("MissesAt(1) = %d", got)
	}
}

func TestHistogramPanicsOutOfRange(t *testing.T) {
	h := NewHistogram(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.MissesAt(5)
}

func TestReuseHistogramConsistentWithFAMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	blocks := make([]uint64, 5000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(200))
	}
	h := ReuseHistogram(blocks, 256)
	for _, cap := range []int{1, 8, 64, 128, 256} {
		if got, want := h.MissesAt(cap), FAMisses(blocks, cap); got != want {
			t.Fatalf("capacity %d: histogram %d, direct %d", cap, got, want)
		}
	}
}

func BenchmarkDistanceTreeTouch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	blocks := make([]uint64, 1<<16)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(1 << 14))
	}
	d := NewDistanceTree(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Touch(blocks[i&(len(blocks)-1)])
	}
}

// TestTouchSteadyStateAllocs pins the steady-state cost: once every
// block has been touched, an access is two Fenwick point updates and a
// prefix query over preallocated storage, so it allocates nothing.
func TestTouchSteadyStateAllocs(t *testing.T) {
	d := NewDistanceTree(64)
	for b := uint64(0); b < 64; b++ {
		d.Touch(b)
	}
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		d.Touch(i % 64)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Touch allocates %.1f per op; removed nodes must be reused", allocs)
	}
}

// TestDistanceTreeRecencyMatchesStack checks the tree's recency listing
// against a reference stack across many compactions: a small universe
// compacts in place at the minimum array size, a growing one forces
// the array to double, and the block space's top value must survive
// renumbering like any other block.
func TestDistanceTreeRecencyMatchesStack(t *testing.T) {
	for _, tc := range []struct {
		name     string
		universe int
		grow     bool
	}{
		{"in-place", 300, false},
		{"growing", 300, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			s := NewStack()
			d := NewDistanceTree(64)
			fresh := uint64(1 << 20)
			compactions := 0
			for i := 0; i < 150000; i++ {
				b := uint64(rng.Intn(tc.universe))
				switch {
				case i%97 == 0:
					b = math.MaxUint64
				case tc.grow && i%3 == 0:
					b = fresh
					fresh++
				}
				before := d.clock
				if got, want := d.Touch(b), touch(s, b); got != want {
					t.Fatalf("access %d block %#x: tree %d, stack %d", i, b, got, want)
				}
				if d.clock <= before {
					compactions++
				}
				if i%5000 == 0 || i == 149999 {
					if !slices.Equal(d.Recency(), s.Blocks()) {
						t.Fatalf("access %d: recency diverges from the stack", i)
					}
				}
			}
			if compactions < 5 {
				t.Fatalf("only %d compactions; the test must exercise renumbering", compactions)
			}
			if tc.grow && len(d.fen) <= minTreeSlots {
				t.Fatalf("array never grew (%d slots)", len(d.fen))
			}
			restored, err := NewDistanceTreeFrom(64, d.Recency())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(restored.Recency(), s.Blocks()) {
				t.Fatal("NewDistanceTreeFrom does not round-trip the listing")
			}
		})
	}
}

// TestDistanceTreeDenseMatchesMap drives a flat-indexed tree and a
// map-indexed one with the same operations: Touch, TouchGate at several
// limits, Record, Contains, Len and Recency must agree through many
// compactions, including ones that resize the arrays.
func TestDistanceTreeDenseMatchesMap(t *testing.T) {
	const bits = 12
	rng := rand.New(rand.NewSource(17))
	dense, wide := NewDistanceTree(bits), NewDistanceTree(64)
	if dense.dense == nil || wide.dense != nil {
		t.Fatal("width does not select the recency index")
	}
	limits := []int{0, 1, 5, 64, 1000}
	compactions, resizes := 0, 0
	for i := 0; i < 200000; i++ {
		// The universe widens in phases so compaction both renumbers in
		// place and grows the arrays.
		universe := 64 << min(i/40000, 6)
		b := uint64(rng.Intn(universe))
		before, size := dense.clock, len(dense.fen)
		switch op := rng.Intn(4); op {
		case 0:
			if got, want := dense.Touch(b), wide.Touch(b); got != want {
				t.Fatalf("access %d: Touch(%d) dense %d, map %d", i, b, got, want)
			}
		case 1:
			lim := limits[rng.Intn(len(limits))]
			if got, want := dense.TouchGate(b, lim), wide.TouchGate(b, lim); got != want {
				t.Fatalf("access %d: TouchGate(%d, %d) dense %d, map %d", i, b, lim, got, want)
			}
		case 2:
			if got, want := dense.Record(b), wide.Record(b); got != want {
				t.Fatalf("access %d: Record(%d) dense %v, map %v", i, b, got, want)
			}
		default:
			if got, want := dense.Contains(b), wide.Contains(b); got != want {
				t.Fatalf("access %d: Contains(%d) dense %v, map %v", i, b, got, want)
			}
		}
		if dense.clock < before {
			compactions++
		}
		if len(dense.fen) != size {
			resizes++
		}
		if dense.Len() != wide.Len() {
			t.Fatalf("access %d: Len dense %d, map %d", i, dense.Len(), wide.Len())
		}
		if i%10000 == 0 && !slices.Equal(dense.Recency(), wide.Recency()) {
			t.Fatalf("access %d: recency listings differ", i)
		}
	}
	if compactions < 5 || resizes < 1 {
		t.Fatalf("%d compactions, %d resizes; the test must exercise both", compactions, resizes)
	}
	if dense.Contains(1 << bits) {
		t.Fatal("a block beyond the width is reported present")
	}
	listing := wide.Recency()
	restored, err := NewDistanceTreeFrom(bits, listing)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(restored.Recency(), listing) || restored.Len() != wide.Len() {
		t.Fatal("dense NewDistanceTreeFrom does not round-trip the listing")
	}
	if _, err := NewDistanceTreeFrom(bits, append([]uint64{listing[3]}, listing...)); err == nil {
		t.Fatal("duplicated recency listing accepted")
	}
	if _, err := NewDistanceTreeFrom(bits, []uint64{1, 1 << bits}); err == nil {
		t.Fatal("block beyond the width accepted")
	}
}
