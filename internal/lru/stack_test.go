package lru

import (
	"math/rand"
	"testing"
)

// touch records an access on s the way the reconciler drives the stack
// — Index, a Raw walk down to the block, then MoveIndexToTop, or Push
// for a new block — and returns the reuse distance (-1 when new).
func touch(s *Stack, b uint64) int {
	target, ok := s.Index(b)
	if !ok {
		s.Push(b)
		return -1
	}
	d := depth(s, b)
	s.MoveIndexToTop(target)
	return d
}

// depth returns the 0-based position of a block on s from the top.
func depth(s *Stack, b uint64) int {
	target, ok := s.Index(b)
	if !ok {
		panic("depth of absent block")
	}
	nodes, top := s.Raw()
	d := 0
	for i := top; i != target; i = nodes[i].Next {
		d++
	}
	return d
}

// moveToTop moves a present block to the top of s.
func moveToTop(s *Stack, b uint64) {
	idx, ok := s.Index(b)
	if !ok {
		panic("move of absent block")
	}
	s.MoveIndexToTop(idx)
}

func TestStackBasicOrder(t *testing.T) {
	s := NewStack()
	s.Push(1)
	s.Push(2)
	s.Push(3)
	got := s.Blocks()
	want := []uint64{3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Blocks() = %v, want %v", got, want)
		}
	}
	if len(got) != 3 {
		t.Fatalf("%d blocks, want 3", len(got))
	}
}

func TestStackMoveToTop(t *testing.T) {
	s := NewStack()
	for b := uint64(1); b <= 5; b++ {
		s.Push(b)
	}
	moveToTop(s, 3) // 3 5 4 2 1
	got := s.Blocks()
	want := []uint64{3, 5, 4, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after MoveToTop: %v, want %v", got, want)
		}
	}
	// Move bottom and top.
	moveToTop(s, 1) // 1 3 5 4 2
	moveToTop(s, 1) // no-op
	got = s.Blocks()
	want = []uint64{1, 3, 5, 4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after bottom move: %v, want %v", got, want)
		}
	}
}

func TestStackDepthAndTouch(t *testing.T) {
	s := NewStack()
	if d := touch(s, 10); d != -1 {
		t.Fatalf("first touch distance = %d", d)
	}
	touch(s, 20)
	touch(s, 30)
	if d := depth(s, 10); d != 2 {
		t.Fatalf("depth(10) = %d", d)
	}
	if d := touch(s, 10); d != 2 {
		t.Fatalf("touch(10) = %d", d)
	}
	// After touching, 10 is on top.
	if d := depth(s, 10); d != 0 {
		t.Fatalf("post-touch depth = %d", d)
	}
	// Immediate re-touch has distance 0.
	if d := touch(s, 10); d != 0 {
		t.Fatalf("re-touch = %d", d)
	}
}

func TestStackPanics(t *testing.T) {
	s := NewStack()
	s.Push(1)
	for name, fn := range map[string]func(){
		"double push":           func() { s.Push(1) },
		"negative window limit": func() { NewWindow(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

// referenceDistances computes stack distances with a naive slice model.
func referenceDistances(blocks []uint64) []int {
	var stack []uint64
	out := make([]int, len(blocks))
	for i, b := range blocks {
		pos := -1
		for j, x := range stack {
			if x == b {
				pos = j
				break
			}
		}
		if pos == -1 {
			out[i] = -1
			stack = append([]uint64{b}, stack...)
		} else {
			out[i] = pos
			stack = append(stack[:pos], stack[pos+1:]...)
			stack = append([]uint64{b}, stack...)
		}
	}
	return out
}

func TestStackMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	blocks := make([]uint64, 3000)
	for i := range blocks {
		blocks[i] = uint64(rng.Intn(60)) // small universe forces reuse
	}
	want := referenceDistances(blocks)
	s := NewStack()
	for i, b := range blocks {
		if got := touch(s, b); got != want[i] {
			t.Fatalf("access %d block %d: distance %d, want %d", i, b, got, want[i])
		}
	}
}

func TestNewStackFromRoundTrip(t *testing.T) {
	s := NewStack()
	for _, b := range []uint64{10, 20, 30, 20, 40, 10} {
		touch(s, b)
	}
	snapshot := s.Blocks()
	restored, err := NewStackFrom(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	got := restored.Blocks()
	if len(got) != len(snapshot) {
		t.Fatalf("restored %d blocks, want %d", len(got), len(snapshot))
	}
	for i := range snapshot {
		if got[i] != snapshot[i] {
			t.Fatalf("block %d: %#x, want %#x", i, got[i], snapshot[i])
		}
	}
	// The restored stack must behave identically going forward.
	if d1, d2 := touch(s, 30), touch(restored, 30); d1 != d2 {
		t.Fatalf("restored stack diverges: distance %d vs %d", d2, d1)
	}
}

func TestNewStackFromRejectsDuplicates(t *testing.T) {
	if _, err := NewStackFrom([]uint64{1, 2, 1}); err == nil {
		t.Fatal("duplicate block accepted")
	}
}

func TestNewStackFromEmpty(t *testing.T) {
	s, err := NewStackFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Blocks()); n != 0 {
		t.Fatalf("empty snapshot restored %d blocks", n)
	}
}
