package lru

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzStackRoundTrip round-trips arbitrary access sequences through the
// arena stack's snapshot representation: drive a stack with fuzzer-
// chosen touches, snapshot it with Blocks, rebuild it with NewStackFrom,
// and require the rebuilt arena to be observably identical — same
// listing and identical behaviour under a further shared access
// suffix. The same sequence drives a map-indexed and a flat-indexed
// DistanceTree, whose Recency must list the same order and survive the
// same round trip through NewDistanceTreeFrom: profile snapshots
// persist exactly this listing.
func FuzzStackRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 2, 0, 1, 0})
	f.Add([]byte{0xFF, 0x01, 0xFF, 0x01, 0x03, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		s := NewStack()
		tree, dense := NewDistanceTree(64), NewDistanceTree(16)
		for i := 0; i+1 < len(data); i += 2 {
			b := uint64(binary.LittleEndian.Uint16(data[i:]) >> 1)
			touch(s, b)
			tree.Touch(b)
			dense.Touch(b)
		}
		snapshot := s.Blocks()
		if !slices.Equal(tree.Recency(), snapshot) || !slices.Equal(dense.Recency(), snapshot) {
			t.Fatalf("tree recency %v, dense %v, stack %v", tree.Recency(), dense.Recency(), snapshot)
		}
		restored, err := NewStackFrom(snapshot)
		if err != nil {
			t.Fatalf("snapshot of a live stack rejected: %v", err)
		}
		if !slices.Equal(restored.Blocks(), snapshot) {
			t.Fatalf("restored %v, want %v", restored.Blocks(), snapshot)
		}
		restoredTree, err := NewDistanceTreeFrom(64, snapshot)
		if err != nil {
			t.Fatalf("snapshot of a live tree rejected: %v", err)
		}
		restoredDense, err := NewDistanceTreeFrom(16, snapshot)
		if err != nil {
			t.Fatalf("snapshot of a live tree rejected by the flat index: %v", err)
		}
		// The restored state must behave identically under further use.
		for i := 0; i+1 < len(data) && i < 64; i += 2 {
			b := uint64(binary.LittleEndian.Uint16(data[i:]))
			d1, d2, d3, d4 := touch(s, b), touch(restored, b), restoredTree.Touch(b), restoredDense.Touch(b)
			if d1 != d2 || d1 != d3 || d1 != d4 {
				t.Fatalf("restored state diverges at suffix access %d: stack %d, restored %d, tree %d, dense %d", i/2, d1, d2, d3, d4)
			}
		}
		// Duplicates in a snapshot must still be rejected.
		if len(snapshot) > 0 {
			dup := append([]uint64{snapshot[len(snapshot)-1]}, snapshot...)
			if _, err := NewStackFrom(dup); err == nil {
				t.Fatal("duplicated snapshot accepted")
			}
			if _, err := NewDistanceTreeFrom(64, dup); err == nil {
				t.Fatal("duplicated recency listing accepted")
			}
			if _, err := NewDistanceTreeFrom(16, dup); err == nil {
				t.Fatal("duplicated recency listing accepted by the flat index")
			}
		}
	})
}
