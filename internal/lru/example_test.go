package lru_test

import (
	"fmt"

	"xoridx/internal/lru"
)

// Example_stackDistance computes reuse distances, the quantity the
// paper's capacity filter is built on.
func Example_stackDistance() {
	d := lru.NewDistanceTree(64)
	for _, b := range []uint64{1, 2, 3, 1, 1, 3} {
		fmt.Print(d.Touch(b), " ")
	}
	fmt.Println()
	// Output:
	// -1 -1 -1 2 0 1
}

// Example_faMisses reads fully-associative miss counts straight from a
// reuse histogram — no per-capacity re-simulation.
func Example_faMisses() {
	blocks := []uint64{1, 2, 3, 4, 1, 2, 3, 4}
	h := lru.ReuseHistogram(blocks, 8)
	fmt.Println("capacity 4:", h.MissesAt(4))
	fmt.Println("capacity 3:", h.MissesAt(3))
	// Output:
	// capacity 4: 4
	// capacity 3: 8
}
