package lru

// listStack is the pre-arena Stack implementation — a heap-allocated
// doubly-linked *listNode list — kept as a test-only reference. The
// differential tests below drive it in lockstep with the arena Stack
// on randomized access sequences and require identical behaviour from
// every operation, so the slab rewrite is proven against the structure
// it replaced rather than against a re-derivation of the same idea.

import (
	"math/rand"
	"testing"
)

type listNode struct {
	block      uint64
	prev, next *listNode // prev is toward the top (more recent)
}

type listStack struct {
	byBlock map[uint64]*listNode
	top     *listNode
	bottom  *listNode
	size    int
}

func newListStack() *listStack {
	return &listStack{byBlock: make(map[uint64]*listNode)}
}

func (s *listStack) Len() int { return s.size }

func (s *listStack) Contains(block uint64) bool {
	_, ok := s.byBlock[block]
	return ok
}

func (s *listStack) Push(block uint64) {
	n := &listNode{block: block, next: s.top}
	if s.top != nil {
		s.top.prev = n
	}
	s.top = n
	if s.bottom == nil {
		s.bottom = n
	}
	s.byBlock[block] = n
	s.size++
}

func (s *listStack) unlink(n *listNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.top = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.bottom = n.prev
	}
}

func (s *listStack) MoveToTop(block uint64) {
	n := s.byBlock[block]
	if s.top == n {
		return
	}
	s.unlink(n)
	n.prev = nil
	n.next = s.top
	s.top.prev = n
	s.top = n
}

func (s *listStack) WalkAbove(block uint64, limit int, fn func(above uint64) bool) (visited int, reached bool) {
	target := s.byBlock[block]
	for n := s.top; n != nil; n = n.next {
		if n == target {
			return visited, true
		}
		if limit >= 0 && visited >= limit {
			return visited, false
		}
		if fn != nil && !fn(n.block) {
			return visited, false
		}
		visited++
	}
	panic("listStack: target not reachable")
}

func (s *listStack) Blocks() []uint64 {
	out := make([]uint64, 0, s.size)
	for n := s.top; n != nil; n = n.next {
		out = append(out, n.block)
	}
	return out
}

// TestStackDifferentialVsList drives the arena stack and the legacy
// linked-list stack through identical randomized op sequences — pushes,
// moves and bounded Raw walks — and requires bit-identical observable
// state after every step.
func TestStackDifferentialVsList(t *testing.T) {
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		universe := 1 + rng.Intn(80)
		arena := NewStack()
		ref := newListStack()
		for step := 0; step < 400; step++ {
			b := uint64(rng.Intn(universe))
			idx, present := arena.Index(b)
			if present != ref.Contains(b) {
				t.Fatalf("trial %d step %d: membership of %d diverges", trial, step, b)
			}
			switch op := rng.Intn(10); {
			case op < 6: // touch: push or move-to-top
				if present {
					arena.MoveIndexToTop(idx)
					ref.MoveToTop(b)
				} else {
					arena.Push(b)
					ref.Push(b)
				}
			default: // bounded walk over the blocks above b
				if !present {
					continue
				}
				limit := rng.Intn(universe + 2)
				var gotSeen, wantSeen []uint64
				gotV, gotR := 0, false
				nodes, top := arena.Raw()
				for i := top; ; i = nodes[i].Next {
					if i == idx {
						gotR = true
						break
					}
					if gotV >= limit {
						break
					}
					gotSeen = append(gotSeen, nodes[i].Block)
					gotV++
				}
				wantV, wantR := ref.WalkAbove(b, limit, func(y uint64) bool {
					wantSeen = append(wantSeen, y)
					return true
				})
				if gotV != wantV || gotR != wantR {
					t.Fatalf("trial %d step %d: walk(%d, limit=%d) = (%d,%v), want (%d,%v)",
						trial, step, b, limit, gotV, gotR, wantV, wantR)
				}
				for i := range wantSeen {
					if gotSeen[i] != wantSeen[i] {
						t.Fatalf("trial %d step %d: walk order %v, want %v", trial, step, gotSeen, wantSeen)
					}
				}
			}
			if n := len(arena.Blocks()); n != ref.Len() {
				t.Fatalf("trial %d step %d: %d blocks, want %d", trial, step, n, ref.Len())
			}
		}
		got, want := arena.Blocks(), ref.Blocks()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d blocks, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: final order %v, want %v", trial, got, want)
			}
		}
	}
}

// TestStackRawWalk checks the slab-level walk contract used by the
// profiling hot loop: following Next from Raw's top index visits the
// same sequence as Blocks.
func TestStackRawWalk(t *testing.T) {
	s := NewStack()
	for _, b := range []uint64{5, 9, 1, 9, 5, 7} {
		touch(s, b)
	}
	want := s.Blocks()
	nodes, top := s.Raw()
	var got []uint64
	for i := top; i != int32(-1); i = nodes[i].Next {
		got = append(got, nodes[i].Block)
	}
	if len(got) != len(want) {
		t.Fatalf("raw walk saw %d blocks, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("raw walk %v, want %v", got, want)
		}
	}
	if idx, ok := s.Index(7); !ok || nodes[idx].Block != 7 {
		t.Fatalf("Index(7) = (%d, %v)", idx, ok)
	}
	if _, ok := s.Index(12345); ok {
		t.Fatal("Index of absent block reported present")
	}
}
