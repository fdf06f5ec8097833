package lru

import "fmt"

// DistanceTree computes exact LRU stack distances in O(log u) per
// access using Olken's order-statistics approach. The stack distance of
// an access is the number of distinct blocks referenced since the
// previous access to the same block — precisely the LRU-stack depth,
// but without a linear walk.
//
// The order statistics live in a Fenwick (binary indexed) tree over
// virtual access times: each live block owns one set slot at the time
// of its most recent access, so "how many blocks were accessed more
// recently than time t" is one prefix query. A Fenwick tree is a
// handful of sequential int32 adds per access with no per-node heap
// allocation and no recursion, which matters because the profiling
// distance gate (DESIGN.md §12) runs it once per trace access. The
// virtual clock only moves forward, so when it reaches the end of the
// array the live times are compacted back to 1..u (amortized O(1): the
// array is kept at least 4x the live population).
//
// Besides distances the tree is the whole-stream recency state of the
// profiling pass: slots records which block claimed each time slot, so
// Recency lists every live block by most recent access and compaction
// renumbers the live slots in one ordered scan, with no sort.
//
// The recency index (block -> time of its most recent access) is a
// flat []uint32 indexed by block when blocks fit in maxDenseBits bits,
// and a map otherwise. A width that can afford a flat 2^n histogram of
// uint64 counts affords a 2^n-entry uint32 index at half the bytes, and
// the times fit: at most 2^n blocks are live and the array never holds
// more than max(minTreeSlots, 8x the live population) slots, so every
// time is below 2^27.
type DistanceTree struct {
	fen   []int32           // Fenwick tree over time slots 1..len-1
	slots []uint64          // slots[i] = block that claimed time i (live iff slot i is set)
	dense []uint32          // block -> time of most recent access, 0 = absent; nil for wide blocks
	byBlk map[uint64]uint64 // block -> time of most recent access when dense is nil
	live  int               // number of live blocks
	clock uint64            // last assigned virtual time
}

// minTreeSlots is the initial (and minimum) Fenwick array length.
const minTreeSlots = 4096

// maxDenseBits is the widest block address NewDistanceTree indexes
// with a flat array (64 MiB of uint32 times); wider blocks use a map.
const maxDenseBits = 24

// Gate is the three-way classification returned by TouchGate.
type Gate int8

const (
	// GateCold marks a first-ever access (stack distance -1).
	GateCold Gate = iota
	// GateWithin marks a reuse distance <= the gate limit.
	GateWithin
	// GateBeyond marks a reuse distance > the gate limit.
	GateBeyond
)

// NewDistanceTree returns an empty tree over blocks below 2^bits.
// Widths up to 24 bits get the flat recency index, so every block
// passed to the tree must then fit in bits bits; pass 64 for arbitrary
// block addresses.
func NewDistanceTree(bits int) *DistanceTree {
	t := &DistanceTree{
		fen:   make([]int32, minTreeSlots),
		slots: make([]uint64, minTreeSlots),
	}
	if bits <= maxDenseBits {
		t.dense = make([]uint32, 1<<max(bits, 0))
	} else {
		t.byBlk = make(map[uint64]uint64)
	}
	return t
}

// NewDistanceTreeFrom rebuilds a tree over blocks below 2^bits from a
// most-recent-first recency listing — the inverse of Recency, used to
// restore profiling state from a checkpoint. Blocks must be distinct
// and fit in bits bits; a violation means the snapshot is corrupt and
// is reported rather than panicking.
func NewDistanceTreeFrom(bits int, recency []uint64) (*DistanceTree, error) {
	t := NewDistanceTree(bits)
	for i := len(recency) - 1; i >= 0; i-- {
		b := recency[i]
		if t.dense != nil && b >= uint64(len(t.dense)) {
			return nil, fmt.Errorf("lru: block %#x in recency snapshot exceeds %d bits", b, bits)
		}
		if !t.Record(b) {
			return nil, fmt.Errorf("lru: duplicate block %#x in recency snapshot", b)
		}
	}
	return t, nil
}

// Len returns the number of live (ever-touched) blocks.
func (t *DistanceTree) Len() int { return t.live }

// Contains reports whether block has been touched before.
func (t *DistanceTree) Contains(block uint64) bool {
	if t.dense != nil {
		return block < uint64(len(t.dense)) && t.dense[block] != 0
	}
	_, ok := t.byBlk[block]
	return ok
}

// add updates the Fenwick tree at time slot i.
func (t *DistanceTree) add(i uint64, delta int32) {
	for ; i < uint64(len(t.fen)); i += i & (-i) {
		t.fen[i] += delta
	}
}

// prefix returns the number of set time slots <= i.
func (t *DistanceTree) prefix(i uint64) int {
	s := int32(0)
	for ; i > 0; i &= i - 1 {
		s += t.fen[i]
	}
	return int(s)
}

// begin claims the next virtual time for block, compacting first when
// the clock would run off the array. It returns the block's previous
// time and whether the block was live.
func (t *DistanceTree) begin(block uint64) (old uint64, ok bool) {
	if t.clock+1 >= uint64(len(t.fen)) {
		t.compact()
	}
	t.clock++
	if t.dense != nil {
		old = uint64(t.dense[block])
		ok = old != 0
		t.dense[block] = uint32(t.clock)
	} else {
		old, ok = t.byBlk[block]
		t.byBlk[block] = t.clock
	}
	if !ok {
		t.live++
	}
	t.slots[t.clock] = block
	return old, ok
}

// Touch records an access to block and returns its stack distance: the
// number of distinct blocks accessed since its previous access, or -1
// for a first-ever access.
func (t *DistanceTree) Touch(block uint64) int {
	old, ok := t.begin(block)
	if !ok {
		t.add(t.clock, 1)
		return -1
	}
	// Every live block owns exactly one set slot and block's is still
	// at old, so the blocks accessed since are the live ones beyond it.
	d := t.live - t.prefix(old)
	t.add(old, -1)
	t.add(t.clock, 1)
	return d
}

// TouchGate records an access and classifies its stack distance against
// limit without always computing it: when the raw access gap since the
// block's previous touch is at most limit, the distance (which never
// exceeds the gap) must be within, and the prefix query is skipped
// entirely. This is the profiling fast path — tight loops whose reuse
// fits the capacity filter pay only the two Fenwick point updates.
func (t *DistanceTree) TouchGate(block uint64, limit int) Gate {
	old, ok := t.begin(block)
	if !ok {
		t.add(t.clock, 1)
		return GateCold
	}
	within := t.clock-old-1 <= uint64(limit)
	if !within {
		within = t.live-t.prefix(old) <= limit
	}
	t.add(old, -1)
	t.add(t.clock, 1)
	if within {
		return GateWithin
	}
	return GateBeyond
}

// Record notes an access without classifying it (the warmup form of
// Touch: recency state only, no distance query). It reports whether
// the block was cold.
func (t *DistanceTree) Record(block uint64) (cold bool) {
	old, ok := t.begin(block)
	if ok {
		t.add(old, -1)
	}
	t.add(t.clock, 1)
	return !ok
}

// Recency returns every live block ordered by most recent access, most
// recent first: the LRU stack the tree encodes, top to bottom.
func (t *DistanceTree) Recency() []uint64 {
	set := pointValues(append([]int32(nil), t.fen[:t.clock+1]...))
	out := make([]uint64, 0, t.live)
	for i := t.clock; i > 0; i-- {
		if set[i] != 0 {
			out = append(out, t.slots[i])
		}
	}
	return out
}

// pointValues turns a prefix of a Fenwick array into the per-slot
// values it sums, in place — the inverse of the O(size) construction
// in compact. A node's sum covers its children, all at smaller
// indices, so walking downward subtracts each node's still-complete
// sum from its parent; parents past the prefix are never read.
func pointValues(fen []int32) []int32 {
	for i := len(fen) - 1; i > 0; i-- {
		if j := i + i&(-i); j < len(fen) {
			fen[j] -= fen[i]
		}
	}
	return fen
}

// compact renumbers the live blocks' times to 1..u in recency order and
// resizes the Fenwick array to keep at least 4x headroom, so the
// amortized cost per access stays O(log u). The live slots are read off
// in one ascending scan of the point values, so no sort is needed.
func (t *DistanceTree) compact() {
	set := pointValues(t.fen[:t.clock+1])
	u := uint64(0)
	for i := uint64(1); i <= t.clock; i++ {
		if set[i] != 0 {
			u++
			b := t.slots[i]
			t.slots[u] = b
			if t.dense != nil {
				t.dense[b] = uint32(u)
			} else {
				t.byBlk[b] = u
			}
		}
	}
	size := minTreeSlots
	for size <= 4*int(u) {
		size <<= 1
	}
	if size != len(t.fen) {
		t.fen = make([]int32, size)
		slots := make([]uint64, size)
		copy(slots, t.slots[:u+1])
		t.slots = slots
	} else {
		clear(t.fen)
	}
	// Build the all-ones prefix over slots 1..u in O(size).
	for i := uint64(1); i <= u; i++ {
		t.fen[i] = 1
	}
	for i := 1; i < len(t.fen); i++ {
		if j := i + i&(-i); j < len(t.fen) {
			t.fen[j] += t.fen[i]
		}
	}
	t.clock = u
}

// FAMisses counts misses of a fully-associative LRU cache with the
// given capacity in blocks over a sequence of block addresses: an
// access misses iff it is a first touch or its stack distance is >=
// capacity. This is the paper's "FA" reference column (Table 3).
func FAMisses(blocks []uint64, capacity int) uint64 {
	t := NewDistanceTree(64)
	var misses uint64
	for _, b := range blocks {
		d := t.Touch(b)
		if d < 0 || d >= capacity {
			misses++
		}
	}
	return misses
}

// Histogram accumulates a stack-distance histogram. Bucket i counts
// accesses with distance exactly i for i < len(buckets)-1; the final
// bucket aggregates all larger distances. Cold misses are counted
// separately. From the histogram, the miss count of a fully-associative
// LRU cache of any capacity <= len(buckets)-1 can be read off without
// re-simulation: a capacity-c cache misses on cold accesses and on
// distances >= c.
type Histogram struct {
	Cold    uint64
	Buckets []uint64
}

// NewHistogram returns a histogram with maxDistance+1 buckets.
func NewHistogram(maxDistance int) *Histogram {
	return &Histogram{Buckets: make([]uint64, maxDistance+1)}
}

// Add records one access distance (-1 for cold).
func (h *Histogram) Add(distance int) {
	if distance < 0 {
		h.Cold++
		return
	}
	if distance >= len(h.Buckets) {
		distance = len(h.Buckets) - 1
	}
	h.Buckets[distance]++
}

// MissesAt returns the FA-LRU miss count for the given capacity, which
// must be < len(Buckets).
func (h *Histogram) MissesAt(capacity int) uint64 {
	if capacity >= len(h.Buckets) {
		panic("lru: histogram capacity out of range")
	}
	m := h.Cold
	for d := capacity; d < len(h.Buckets); d++ {
		m += h.Buckets[d]
	}
	return m
}

// ReuseHistogram runs a full trace through a DistanceTree and returns
// the stack-distance histogram with the given resolution.
func ReuseHistogram(blocks []uint64, maxDistance int) *Histogram {
	t := NewDistanceTree(64)
	h := NewHistogram(maxDistance)
	for _, b := range blocks {
		h.Add(t.Touch(b))
	}
	return h
}
