// Package lru provides the recency substrate for conflict-miss
// profiling and fully-associative reference simulation.
//
// The profiling algorithm of Vandierendonck et al. (DATE 2006, Fig. 1)
// walks the blocks above a re-referenced block on an LRU stack to
// accumulate conflict vectors; because it only walks when the reuse
// distance is at most the cache capacity, the walk never goes deeper
// than the cache size in blocks. The package splits that stack in two
// (DESIGN.md §12):
//
//   - DistanceTree holds the whole-stream recency order. It implements
//     Olken's order-statistics approach over a Fenwick tree, giving
//     exact reuse distances in O(log u) per access (u live blocks),
//     classifies each access against the capacity filter (TouchGate)
//     and lists the full LRU order on demand (Recency). Its block→time
//     index is a flat array for blocks of up to 24 bits and a map for
//     wider ones.
//   - Window holds only the top limit+1 entries, most recent first, in
//     one contiguous slice: every block a conflict walk can reach, with
//     no membership map and no pointer chasing.
//
// Stack is a full LRU stack in an int32-linked arena slab with O(1)
// membership lookup. The sharded profiler's reconciler keeps one as
// its boundary state, because it walks above arbitrary blocks without
// a distance gate.
package lru

import (
	"fmt"
	"math"
)

// Node is one arena slot of a Stack: a block address and the int32
// slab indices of its neighbours (Prev toward the top, i.e. more
// recent). Exported so a hot loop can walk the slab directly via Raw
// without a callback per element.
type Node struct {
	Block      uint64
	Prev, Next int32 // nilIdx terminates
}

// nilIdx is the arena's null link.
const nilIdx = int32(-1)

// Stack is an LRU stack of block addresses with O(1) membership lookup
// and O(k) enumeration of the k blocks above a given block.
//
// The zero value is not usable; call NewStack.
type Stack struct {
	nodes   []Node
	byBlock map[uint64]int32
	top     int32
}

// NewStack returns an empty LRU stack.
func NewStack() *Stack {
	return &Stack{byBlock: make(map[uint64]int32), top: nilIdx}
}

// NewStackFrom rebuilds a stack from a top-to-bottom block listing —
// the inverse of Blocks, used to restore profiling state from a
// checkpoint. Blocks must be distinct; a duplicate means the snapshot
// is corrupt and is reported rather than panicking.
func NewStackFrom(topToBottom []uint64) (*Stack, error) {
	s := NewStack()
	s.nodes = make([]Node, 0, len(topToBottom))
	for i := len(topToBottom) - 1; i >= 0; i-- {
		b := topToBottom[i]
		if _, ok := s.byBlock[b]; ok {
			return nil, fmt.Errorf("lru: duplicate block %#x in stack snapshot", b)
		}
		s.Push(b)
	}
	return s, nil
}

// Push puts a new block on top of the stack. The block must not already
// be present.
func (s *Stack) Push(block uint64) {
	if _, ok := s.byBlock[block]; ok {
		panic("lru: Push of block already on stack")
	}
	if len(s.nodes) >= math.MaxInt32 {
		panic("lru: stack exceeds 2^31-1 blocks")
	}
	idx := int32(len(s.nodes))
	s.nodes = append(s.nodes, Node{Block: block, Prev: nilIdx, Next: s.top})
	if s.top != nilIdx {
		s.nodes[s.top].Prev = idx
	}
	s.top = idx
	s.byBlock[block] = idx
}

// MoveIndexToTop moves the block in arena slot idx to the top of the
// stack — pairs with Index and Raw in hot loops that have already
// resolved the block, so the move costs no second map lookup.
func (s *Stack) MoveIndexToTop(idx int32) {
	if s.top == idx {
		return
	}
	n := s.nodes[idx]
	s.nodes[n.Prev].Next = n.Next // idx is not the top, so Prev is set
	if n.Next != nilIdx {
		s.nodes[n.Next].Prev = n.Prev
	}
	s.nodes[idx].Prev = nilIdx
	s.nodes[idx].Next = s.top
	s.nodes[s.top].Prev = idx
	s.top = idx
}

// Raw exposes the arena slab and the index of the top node (nilIdx when
// empty) so a hot loop can walk the recency list inline:
//
//	nodes, top := s.Raw()
//	for i := top; i != target; i = nodes[i].Next { ... nodes[i].Block ... }
//
// The returned slice aliases the stack's storage and is invalidated by
// the next Push (append may move the slab); callers must treat it as
// read-only and must not hold it across mutations.
func (s *Stack) Raw() (nodes []Node, top int32) {
	return s.nodes, s.top
}

// Index returns the arena slot of a block and whether it is present —
// the membership test, and the handle Raw walks and MoveIndexToTop
// take.
func (s *Stack) Index(block uint64) (int32, bool) {
	idx, ok := s.byBlock[block]
	return idx, ok
}

// Blocks returns all blocks from top to bottom.
func (s *Stack) Blocks() []uint64 {
	out := make([]uint64, 0, len(s.nodes))
	for i := s.top; i != nilIdx; i = s.nodes[i].Next {
		out = append(out, s.nodes[i].Block)
	}
	return out
}
