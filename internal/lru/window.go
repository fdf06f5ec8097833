package lru

// Window is the top of an LRU stack: the limit+1 most recently used
// distinct blocks (fewer until that many have been seen), most recent
// first, in one contiguous pointerless slice. Those are exactly the
// blocks whose next access would have a reuse distance of at most
// limit, so the window is the profiling pass's walk state (DESIGN.md
// §12): the distance gate, DistanceTree.TouchGate with the same limit,
// decides for every access whether the block sits inside the window,
// and the window never needs a membership map or holds more than the
// walk can visit.
//
// The live entries are buf[head : head+n]. Pushing decrements head; when
// head reaches 0 the live entries are copied back to the end of buf,
// which grows to windowSlack times the depth, so that copy is amortised
// over many pushes and a push costs O(1). Moving a block at depth d to
// the top is one memmove of the d entries above it — entries the
// profiling walk has just read anyway.
type Window struct {
	buf   []uint64
	head  int // index of the top entry
	n     int // live entries, <= depth
	depth int // limit+1
	full  int // buffer length once grown
}

const (
	// windowSlack is the grown buffer length in units of the depth.
	windowSlack = 4
	// initialWindowBuf caps the first buffer, so a deep window over a
	// short stream costs memory in proportion to what it holds.
	initialWindowBuf = 1024
	// maxWindowDepth caps the depth the window is sized for. No stream
	// has this many distinct blocks, so a deeper window never fills.
	maxWindowDepth = 1 << 40
)

// NewWindow returns an empty window for reuse distances up to limit
// (limit >= 0): it holds at most limit+1 blocks.
func NewWindow(limit int) *Window {
	if limit < 0 {
		panic("lru: negative window limit")
	}
	depth := min(limit, maxWindowDepth-1) + 1
	full := windowSlack * depth
	size := min(full, initialWindowBuf)
	return &Window{buf: make([]uint64, size), head: size, depth: depth, full: full}
}

// NewWindowFrom rebuilds a window from a most-recent-first recency
// listing such as DistanceTree.Recency, keeping its first limit+1
// entries.
func NewWindowFrom(limit int, recency []uint64) *Window {
	w := NewWindow(limit)
	top := recency[:min(len(recency), w.depth)]
	for i := len(top) - 1; i >= 0; i-- {
		w.Push(top[i])
	}
	return w
}

// Blocks returns the live entries, most recent first. The slice
// aliases the window's storage and is invalidated by the next Push or
// MoveToTop; callers must treat it as read-only.
func (w *Window) Blocks() []uint64 { return w.buf[w.head : w.head+w.n] }

// Push puts a block that is not in the window on top, dropping the
// bottom entry when the window is full. The caller guarantees absence:
// a first touch, or a reuse distance above the limit.
func (w *Window) Push(block uint64) {
	if w.head == 0 {
		// Slide the live entries (all but the one about to drop, when
		// full) to the end of the buffer, growing it first if it is not
		// at full length yet.
		keep := min(w.n, w.depth-1)
		buf := w.buf
		if len(buf) < w.full {
			buf = make([]uint64, min(2*len(buf), w.full))
		}
		w.head = len(buf) - keep
		copy(buf[w.head:], w.buf[:keep])
		w.buf = buf
		w.n = keep
	}
	w.head--
	w.buf[w.head] = block
	if w.n < w.depth {
		w.n++
	}
}

// MoveToTop moves the entry at depth d (0 = top, d < len(Blocks()))
// to the top, shifting the d entries above it down by one.
func (w *Window) MoveToTop(d int) {
	live := w.buf[w.head : w.head+d+1]
	b := live[d]
	copy(live[1:], live[:d])
	live[0] = b
}

// Find returns the depth of block in the window, or -1 when it is
// absent.
func (w *Window) Find(block uint64) int {
	for d, y := range w.Blocks() {
		if y == block {
			return d
		}
	}
	return -1
}
