package lru

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestWindowMatchesStackTop drives a Window and a full Stack with the
// same randomized accesses, classifying each one the way the profiling
// pass does (reuse distance within the limit or not), and requires the
// window to hold exactly the top limit+1 entries of the stack after
// every step. Limits 0 to 2 make the window slide on almost every
// push; the large limits exercise buffer growth.
func TestWindowMatchesStackTop(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		limit := trial % 3
		if trial >= 60 {
			limit = rng.Intn(400)
		}
		universe := 1 + rng.Intn(3*limit+20)
		s := NewStack()
		w := NewWindow(limit)
		for step := 0; step < 3000; step++ {
			b := uint64(rng.Intn(universe))
			if step%7 == 0 {
				b = math.MaxUint64 - uint64(rng.Intn(4)) // the top of the block space is legal
			}
			d := touch(s, b)
			if d >= 0 && d <= limit {
				if got := w.Find(b); got != d {
					t.Fatalf("trial %d step %d: Find(%#x) = %d, stack depth %d", trial, step, b, got, d)
				}
				w.MoveToTop(d)
			} else {
				if got := w.Find(b); got != -1 {
					t.Fatalf("trial %d step %d: block %#x at stack depth %d found at window depth %d", trial, step, b, d, got)
				}
				w.Push(b)
			}
			top := s.Blocks()
			top = top[:min(len(top), limit+1)]
			if !slices.Equal(w.Blocks(), top) || w.n != len(top) {
				t.Fatalf("trial %d step %d (limit %d): window %v, stack top %v", trial, step, limit, w.Blocks(), top)
			}
		}
		rebuilt := NewWindowFrom(limit, s.Blocks())
		if !slices.Equal(rebuilt.Blocks(), w.Blocks()) {
			t.Fatalf("trial %d: NewWindowFrom %v, want %v", trial, rebuilt.Blocks(), w.Blocks())
		}
	}
}

// TestWindowHugeLimit pins that a window sized for an effectively
// unbounded limit allocates in proportion to what it holds.
func TestWindowHugeLimit(t *testing.T) {
	w := NewWindow(math.MaxInt)
	for b := uint64(0); b < 5000; b++ {
		w.Push(b)
	}
	if got := w.Blocks(); len(got) != 5000 || got[0] != 4999 || got[4999] != 0 {
		t.Fatalf("window lost entries: len %d", len(got))
	}
	if cap(w.buf) > 4*8192 {
		t.Fatalf("buffer grew to %d entries for 5000 blocks", cap(w.buf))
	}
}
