package profile_test

import (
	"context"
	"fmt"

	"xoridx/internal/gf2"
	"xoridx/internal/profile"
)

// Example_estimate profiles a thrash pattern and scores two candidate
// functions with the Eq. 4 null-space estimator.
func Example_estimate() {
	var blocks []uint64
	for i := 0; i < 50; i++ {
		blocks = append(blocks, 0, 256) // conflict vector 1_0000_0000
	}
	p, err := profile.Build(context.Background(), profile.Blocks(blocks), 16, 256, profile.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}

	conventional := gf2.Identity(16, 8)
	fmt.Println("modulo estimate:", p.EstimateMatrix(conventional))

	fixed := gf2.Identity(16, 8)
	fixed.Cols[0] |= gf2.Unit(8) // s0 = a0 ^ a8 separates the pair
	fmt.Println("XOR estimate:  ", p.EstimateMatrix(fixed))
	// Output:
	// modulo estimate: 98
	// XOR estimate:   0
}
