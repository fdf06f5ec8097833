package profile

// The pre-overhaul Fig. 1 builder, kept as a test-only reference: a
// heap-allocated doubly-linked LRU stack over every block ever seen, a
// bounded counting walk on every re-reference, and a rollback of the
// walked pairs when the walk fails to reach the block within the
// capacity filter. The differential tests below run it against the
// production builder (Olken distance gate + top-of-stack window +
// backend-specialized accumulation) and require bit-identical
// classification and histogram on randomized traces — the proof that
// the hot-path overhauls changed the cost of the pass, not its
// meaning.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

type refNode struct {
	block      uint64
	prev, next *refNode
}

type refStack struct {
	byBlock map[uint64]*refNode
	top     *refNode
}

func newRefStack() *refStack { return &refStack{byBlock: make(map[uint64]*refNode)} }

func (s *refStack) contains(b uint64) bool { _, ok := s.byBlock[b]; return ok }

func (s *refStack) push(b uint64) {
	n := &refNode{block: b, next: s.top}
	if s.top != nil {
		s.top.prev = n
	}
	s.top = n
	s.byBlock[b] = n
}

func (s *refStack) moveToTop(b uint64) {
	n := s.byBlock[b]
	if s.top == n {
		return
	}
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	n.prev = nil
	n.next = s.top
	s.top.prev = n
	s.top = n
}

func (s *refStack) walkAbove(b uint64, limit int, fn func(y uint64)) (reached bool) {
	target := s.byBlock[b]
	visited := 0
	for n := s.top; n != nil; n = n.next {
		if n == target {
			return true
		}
		if visited >= limit {
			return false
		}
		fn(n.block)
		visited++
	}
	panic("refStack: target not reachable")
}

// refOptions selects the reference pass's histogram backend and its
// sampling gate; the zero value is the exact flat pass.
type refOptions struct {
	sparse bool
	sketch *SketchOptions
	sample SampleOptions
}

// refBuild is the old Build: a bounded counting walk on every
// re-reference, then a rollback of the walked pairs when the walk
// fails to reach the block within the filter.
func refBuild(blocks []uint64, n, cacheBlocks int, sparse bool) *Profile {
	return refBuildOpts(blocks, n, cacheBlocks, refOptions{sparse: sparse})
}

// refBuildOpts is refBuild on any backend and with sampling. Walked
// pairs are held back until the walk reaches the block — the rollback
// of a capacity miss is dropping them — and a sampled-out candidate
// drops them too, after its full walk.
func refBuildOpts(blocks []uint64, n, cacheBlocks int, opt refOptions) *Profile {
	p := &Profile{N: n, CacheBlocks: cacheBlocks}
	switch {
	case opt.sketch != nil:
		p.Sketch = NewSketch(opt.sketch.withDefaults())
	case opt.sparse:
		p.Sparse = make(map[uint64]uint64)
	default:
		p.Table = make([]uint64, 1<<uint(n))
	}
	inc := func(v uint64) {
		switch {
		case p.Table != nil:
			p.Table[v]++
		case p.Sketch != nil:
			p.Sketch.Inc(v)
		default:
			p.Sparse[v]++
		}
	}
	var ordinal, next uint64
	if opt.sample.enabled() {
		p.SampleK, p.SampleSeed = opt.sample.K, opt.sample.Seed
		next = splitmix64(opt.sample.Seed)%opt.sample.K + 1
	}
	mask := uint64(1)<<uint(n) - 1
	stack := newRefStack()
	var pending []uint64
	for _, raw := range blocks {
		b := raw & mask
		p.Accesses++
		if !stack.contains(b) {
			p.Compulsory++
			stack.push(b)
			continue
		}
		pending = pending[:0]
		reached := stack.walkAbove(b, cacheBlocks, func(y uint64) {
			pending = append(pending, b^y)
		})
		stack.moveToTop(b)
		if !reached {
			p.Capacity++
			continue
		}
		p.Candidates++
		if opt.sample.enabled() {
			if ordinal++; ordinal != next {
				continue
			}
			next += opt.sample.K
			p.SampledCandidates++
		}
		for _, v := range pending {
			inc(v)
		}
		p.TotalPairs += uint64(len(pending))
	}
	return p
}

// diffTrace draws one randomized trace with enough structure to hit
// all three classifications: strided aliasing runs, tight loops and
// uniform noise over a universe larger than the capacity filter.
func diffTrace(rng *rand.Rand) []uint64 {
	length := 50 + rng.Intn(1500)
	blocks := make([]uint64, 0, length)
	for len(blocks) < length {
		switch rng.Intn(3) {
		case 0:
			stride := uint64(1) << uint(1+rng.Intn(6))
			base := uint64(rng.Intn(1 << 12))
			for i := uint64(0); i < uint64(4+rng.Intn(28)); i++ {
				blocks = append(blocks, base+i*stride)
			}
		case 1:
			set := 2 + rng.Intn(40)
			base := uint64(rng.Intn(1 << 12))
			for rep := 0; rep < 3; rep++ {
				for i := 0; i < set; i++ {
					blocks = append(blocks, base+uint64(i))
				}
			}
		default:
			for i := 0; i < 16; i++ {
				blocks = append(blocks, uint64(rng.Intn(1<<14)))
			}
		}
	}
	return blocks[:length]
}

// TestBuildDifferentialVsReference runs 1000 randomized trials of the
// production builder against the pre-overhaul reference and requires
// identical classification counters and an identical histogram every
// time. Trials rotate through the flat, sparse and sketch backends and
// sampled builds (whose skipped candidates still move inside the walk
// window), and every tenth pair of trials pins the filter to one or two
// blocks, where the window slides on almost every access.
func TestBuildDifferentialVsReference(t *testing.T) {
	const trials = 1000
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(40000 + trial)))
		n := 8 + rng.Intn(5)            // 8..12
		cacheBlocks := 1 + rng.Intn(96) // 1..96
		if k := trial % 10; k < 2 {
			cacheBlocks = 1 + k
		}
		blocks := diffTrace(rng)
		var (
			opt Options
			ref refOptions
		)
		switch trial % 4 {
		case 1:
			opt.ForceSparse, ref.sparse = true, true
		case 2:
			sk := &SketchOptions{Width: 64 << rng.Intn(3), Depth: 1 + rng.Intn(3), Seed: rng.Uint64()}
			opt.Sketch, ref.sketch = sk, sk
		case 3:
			sample := SampleOptions{K: 2 + uint64(rng.Intn(7)), Seed: rng.Uint64()}
			opt.Sample, ref.sample = sample, sample
			opt.ForceSparse, ref.sparse = trial%8 == 7, trial%8 == 7
		}
		got := mustBuild(Blocks(blocks), n, cacheBlocks, opt)
		want := refBuildOpts(blocks, n, cacheBlocks, ref)
		if d := diffRef(got, want); d != "" {
			t.Fatalf("trial %d (n=%d cap=%d opt=%+v len=%d): %s",
				trial, n, cacheBlocks, ref, len(blocks), d)
		}
	}

	t.Run("n=64 top block", func(t *testing.T) {
		for trial := 0; trial < 60; trial++ {
			rng := rand.New(rand.NewSource(int64(64000 + trial)))
			blocks := wideTrace(rng)
			cacheBlocks := 1 + rng.Intn(48)
			want := refBuild(blocks, 64, cacheBlocks, true)
			for _, opt := range []Options{{}, {Workers: 3, ChunkSize: 64}} {
				got := mustBuild(Blocks(blocks), 64, cacheBlocks, opt)
				if d := diffProfiles(got, want); d != "" {
					t.Fatalf("trial %d (cap=%d workers=%d): %s", trial, cacheBlocks, opt.Workers, d)
				}
			}
			// A snapshot mid-pass carries the top block through the
			// recency listing like any other.
			cut := len(blocks) / 2
			bd := NewBuilder(64, cacheBlocks)
			for _, b := range blocks[:cut] {
				bd.Add(b)
			}
			restored, err := Restore(bytes.NewReader(snapshotBytes(t, bd)))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if d := diffProfiles(restored.finishBlocks(blocks[cut:]), want); d != "" {
				t.Fatalf("trial %d: resumed build: %s", trial, d)
			}
		}
	})
}

// wideTrace is diffTrace spread over the whole 64-bit block space:
// a third of the accesses land next to the top block, and the top
// block itself, 0xFFFF_FFFF_FFFF_FFFF, is a hot member of the loops.
func wideTrace(rng *rand.Rand) []uint64 {
	blocks := diffTrace(rng)
	for i, x := range blocks {
		switch x % 3 {
		case 0:
			blocks[i] = ^x
		case 1:
			blocks[i] = x<<40 | x
		}
		if i%11 == 0 {
			blocks[i] = ^uint64(0)
		}
	}
	return blocks
}

// diffRef compares a production profile with a reference one: the
// counters and histogram exactly (the whole sketch state, for a sketch
// build) and the sampling bookkeeping.
func diffRef(got, want *Profile) string {
	if d := diffCounters(got, want); d != "" {
		return d
	}
	if got.SampleK != want.SampleK || got.SampledCandidates != want.SampledCandidates {
		return "sampling bookkeeping differs"
	}
	if want.Sketch != nil {
		if !reflect.DeepEqual(got.Sketch, want.Sketch) {
			return "Sketch differs"
		}
		return ""
	}
	return diffProfiles(got, want)
}

// FuzzBuilderVsReference is the fuzz form of the reference
// differential: the fuzzer picks the trace and the capacity filter, and
// the production Builder must match the reference pass exactly and
// keep its walk-count invariants.
func FuzzBuilderVsReference(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0, 2, 0, 1, 0, 3, 0, 2, 0, 1, 0}, uint8(1))
	var loop []byte
	for r := 0; r < 4; r++ {
		for i := 0; i < 40; i++ {
			loop = append(loop, byte(i*8), byte(i>>5))
		}
	}
	f.Add(loop, uint8(31))

	f.Fuzz(func(t *testing.T, data []byte, capRaw uint8) {
		const n = 10
		cacheBlocks := 1 + int(capRaw%64)
		blocks := make([]uint64, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(blocks) < 4096; i += 2 {
			blocks = append(blocks, uint64(binary.LittleEndian.Uint16(data[i:])))
		}
		bd := NewBuilder(n, cacheBlocks)
		got := bd.finishBlocks(blocks)
		if d := diffProfiles(got, refBuild(blocks, n, cacheBlocks, false)); d != "" {
			t.Fatalf("cap=%d len=%d: %s", cacheBlocks, len(blocks), d)
		}
		st := bd.Stats()
		if st.CandidateWalks != got.Candidates || st.WalkSteps != got.TotalPairs || st.GatedCapacityMisses != got.Capacity {
			t.Fatalf("cap=%d: stats %+v break the walk invariants", cacheBlocks, st)
		}
	})
}

// finishBlocks feeds a whole trace through a builder — a test shorthand.
func (bd *Builder) finishBlocks(blocks []uint64) *Profile {
	for _, b := range blocks {
		bd.Add(b)
	}
	return bd.Finish()
}

// TestWalkCountProbe pins the overhaul's cost contract via the builder's
// hot-path probes: every conflict candidate walks exactly once, every
// visited stack entry contributes exactly one histogram increment (so a
// rollback re-walk is structurally impossible, not just avoided), and
// every capacity miss is resolved by the distance gate without touching
// the stack.
func TestWalkCountProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(5)
		cacheBlocks := 1 + rng.Intn(48)
		blocks := diffTrace(rng)
		bd := NewBuilder(n, cacheBlocks)
		p := bd.finishBlocks(blocks)
		st := bd.Stats()
		if st.CandidateWalks != p.Candidates {
			t.Fatalf("trial %d: %d walks for %d candidates", trial, st.CandidateWalks, p.Candidates)
		}
		if st.WalkSteps != p.TotalPairs {
			t.Fatalf("trial %d: %d walk steps for %d pairs — some visit did not become exactly one increment",
				trial, st.WalkSteps, p.TotalPairs)
		}
		if st.GatedCapacityMisses != p.Capacity {
			t.Fatalf("trial %d: gate resolved %d of %d capacity misses", trial, st.GatedCapacityMisses, p.Capacity)
		}
	}
}

// TestCheckpointRoundTripsArenaStack cuts a trace at an arbitrary
// point, round-trips the builder through the checkpoint codec, and
// requires the restored recency state — the distance tree's listing
// and the walk window — to hold the same blocks in the same order and
// the continued run to match an uninterrupted one bit for bit.
func TestCheckpointRoundTripsArenaStack(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(4)
		cacheBlocks := 1 + rng.Intn(32)
		blocks := diffTrace(rng)
		cut := rng.Intn(len(blocks) + 1)
		ref := NewBuilder(n, cacheBlocks)
		bd := NewBuilder(n, cacheBlocks)
		for _, b := range blocks[:cut] {
			ref.Add(b)
			bd.Add(b)
		}
		var buf bytes.Buffer
		if err := bd.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(restored.tree.Recency(), ref.tree.Recency()) {
			t.Fatalf("trial %d: restored recency listing diverges", trial)
		}
		if !slices.Equal(restored.win.Blocks(), ref.win.Blocks()) {
			t.Fatalf("trial %d: restored window %v, want %v", trial, restored.win.Blocks(), ref.win.Blocks())
		}
		for _, b := range blocks[cut:] {
			ref.Add(b)
			restored.Add(b)
		}
		if d := diffProfiles(restored.Finish(), ref.Finish()); d != "" {
			t.Fatalf("trial %d (cut %d/%d): resumed run diverges: %s", trial, cut, len(blocks), d)
		}
	}
}

// FuzzBuilderCheckpointResume is the fuzz form of the recency/checkpoint
// round trip: the fuzzer picks the trace and the cut point, and the
// restored builder must finish the trace bit-identically to an
// uninterrupted one.
func FuzzBuilderCheckpointResume(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 0, 2, 0, 1, 0, 3, 0, 2, 0}, uint16(2))
	var stride []byte
	for i := 0; i < 48; i++ {
		stride = append(stride, byte(i*8), byte(i>>5))
	}
	f.Add(stride, uint16(20))

	f.Fuzz(func(t *testing.T, data []byte, cutRaw uint16) {
		const n, cacheBlocks = 10, 16
		blocks := make([]uint64, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(blocks) < 2048; i += 2 {
			blocks = append(blocks, uint64(binary.LittleEndian.Uint16(data[i:])))
		}
		cut := 0
		if len(blocks) > 0 {
			cut = int(cutRaw) % (len(blocks) + 1)
		}
		ref := NewBuilder(n, cacheBlocks)
		bd := NewBuilder(n, cacheBlocks)
		for _, b := range blocks[:cut] {
			ref.Add(b)
			bd.Add(b)
		}
		var buf bytes.Buffer
		if err := bd.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip of a live builder rejected: %v", err)
		}
		for _, b := range blocks[cut:] {
			ref.Add(b)
			restored.Add(b)
		}
		if d := diffProfiles(restored.Finish(), ref.Finish()); d != "" {
			t.Fatalf("cut %d/%d: %s", cut, len(blocks), d)
		}
	})
}
