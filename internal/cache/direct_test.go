package cache

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"xoridx/internal/gf2"
	"xoridx/internal/hash"
	"xoridx/internal/trace"
	"xoridx/internal/workloads"
	"xoridx/internal/xerr"
)

// randomGeneral returns a random full-rank n×m general XOR function.
func randomGeneral(rng *rand.Rand, n, m int) *hash.XOR {
	for {
		cols := make([]gf2.Vec, m)
		for c := range cols {
			cols[c] = gf2.Vec(rng.Uint64()) & gf2.Mask(n)
		}
		if f, err := hash.NewXOR(gf2.MatrixFromCols(n, cols)); err == nil {
			return f
		}
	}
}

// randomPermutation returns a random permutation-based function: index
// bit c is address bit c XORed with random address bits in [m, n).
func randomPermutation(rng *rand.Rand, n, m int) *hash.XOR {
	h := gf2.Identity(n, m)
	for c := range h.Cols {
		h.Cols[c] |= gf2.Vec(rng.Uint64()) & gf2.Mask(n) &^ gf2.Mask(m)
	}
	return hash.MustXOR(h)
}

// dmTrace draws accesses from a pool of 3x the cache's blocks so that
// hits, conflicts and writebacks all occur. A third of the pool carries
// random bits above the hashed width n, so the tag's high bits must
// tell blocks apart.
func dmTrace(rng *rand.Rand, length, n, blockBytes, blocks int) *trace.Trace {
	pool := make([]uint64, 3*blocks)
	for i := range pool {
		b := rng.Uint64() & uint64(gf2.Mask(n))
		if i%3 == 0 {
			b |= rng.Uint64() << uint(n) >> 2 // keep the block below 2^62
		}
		pool[i] = b
	}
	tr := &trace.Trace{Name: "dm"}
	for i := 0; i < length; i++ {
		kind := trace.Read
		if rng.Intn(3) == 0 {
			kind = trace.Write
		}
		b := pool[rng.Intn(len(pool))]
		tr.Append(b*uint64(blockBytes)+uint64(rng.Intn(blockBytes)), kind)
	}
	return tr
}

// cacheStats runs tr through one Cache per function, classification
// off: the reference the fused pass must equal.
func cacheStats(t testing.TB, tr *trace.Trace, sizeBytes, blockBytes int, fs []*hash.XOR) []Stats {
	t.Helper()
	out := make([]Stats, len(fs))
	for i, f := range fs {
		c := MustNew(Config{SizeBytes: sizeBytes, BlockBytes: blockBytes, Ways: 1, Index: f})
		c.DisableClassification()
		out[i] = c.Run(tr)
	}
	return out
}

func checkDirectMapped(t testing.TB, tr *trace.Trace, sizeBytes, blockBytes int, fs []*hash.XOR) {
	t.Helper()
	got, err := SimulateDirectMapped(context.Background(), tr, sizeBytes, blockBytes, fs...)
	if err != nil {
		t.Fatal(err)
	}
	want := cacheStats(t, tr, sizeBytes, blockBytes, fs)
	if len(got) != len(want) {
		t.Fatalf("%d stats for %d functions", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("function %d (%v): fused %+v, cache %+v", i, fs[i], got[i], want[i])
		}
	}
}

// TestSimulateDirectMappedMatchesCache compares the fused pass with one
// Cache run per function on random general and permutation functions:
// the paper's 1/4/16 KB geometries at n=16, widths 9 to 24, two widths
// beyond the three unrolled tables, and the sub-4-byte blocks that
// fall back to Cache.
func TestSimulateDirectMappedMatchesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range []struct{ n, sizeBytes, blockBytes int }{
		{16, 1024, 4}, {16, 4096, 4}, {16, 16384, 4},
		{9, 256, 4}, {12, 512, 8}, {20, 2048, 4}, {24, 4096, 16}, {24, 1 << 16, 4},
		{32, 4096, 4}, {40, 8192, 32},
		{16, 1024, 1}, {16, 1024, 2},
	} {
		blocks := g.sizeBytes / g.blockBytes
		m := Config{SizeBytes: g.sizeBytes, BlockBytes: g.blockBytes, Ways: 1}.SetBits()
		fs := []*hash.XOR{hash.Modulo(g.n, m), randomGeneral(rng, g.n, m), randomPermutation(rng, g.n, m)}
		tr := dmTrace(rng, 20*blocks+1000, g.n, g.blockBytes, blocks)
		checkDirectMapped(t, tr, g.sizeBytes, g.blockBytes, fs)
		checkDirectMapped(t, &trace.Trace{}, g.sizeBytes, g.blockBytes, fs)
	}
}

// TestSimulateDirectMappedWritebacks pins the write-back accounting on a
// hand-checked sequence: a written block evicted by a conflicting one
// costs one writeback, a clean one none.
func TestSimulateDirectMappedWritebacks(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(0x000, trace.Write) // miss, fill dirty
	tr.Append(0x000, trace.Read)  // hit
	tr.Append(0x400, trace.Read)  // conflict miss, evicts dirty 0x000
	tr.Append(0x000, trace.Read)  // miss, evicts clean 0x400
	tr.Append(0x000, trace.Write) // hit, dirties
	st, err := SimulateDirectMapped(context.Background(), tr, 1024, 4, hash.Modulo(16, 8))
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Accesses: 5, Misses: 3, Writes: 2, Writebacks: 1}
	if st[0] != want {
		t.Fatalf("stats %+v, want %+v", st[0], want)
	}
}

func TestSimulateDirectMappedRejectsBadGeometry(t *testing.T) {
	tr := &trace.Trace{}
	if _, err := SimulateDirectMapped(context.Background(), tr, 1000, 4, hash.Modulo(16, 8)); !errors.Is(err, xerr.ErrInvalidGeometry) {
		t.Errorf("non-power-of-two sets: error %v must wrap ErrInvalidGeometry", err)
	}
	if _, err := SimulateDirectMapped(context.Background(), tr, 1024, 4, hash.Modulo(16, 10)); !errors.Is(err, xerr.ErrInvalidGeometry) {
		t.Errorf("set-bit mismatch: error %v must wrap ErrInvalidGeometry", err)
	}
}

// pollCtx is a context whose Done channel is open for the first polls
// calls and closed from then on: it cancels a loop part-way through.
type pollCtx struct {
	context.Context
	polls       int
	open, shut  chan struct{}
	interrupted bool
}

func newPollCtx(polls int) *pollCtx {
	c := &pollCtx{Context: context.Background(), polls: polls, open: make(chan struct{}), shut: make(chan struct{})}
	close(c.shut)
	return c
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.polls > 0 {
		c.polls--
		return c.open
	}
	c.interrupted = true
	return c.shut
}

func (c *pollCtx) Err() error {
	if c.interrupted {
		return context.Canceled
	}
	return nil
}

// TestSimulateDirectMappedCanceledMidTrace cancels after the first
// chunk of a three-chunk trace: the pass must stop with a wrapped
// ErrCanceled and no statistics, and an already-done context must stop
// it before the first access.
func TestSimulateDirectMappedCanceledMidTrace(t *testing.T) {
	tr := ctxTestTrace(3 * ctxCheckEvery)
	for _, polls := range []int{0, 1, 2} {
		ctx := newPollCtx(polls)
		st, err := SimulateDirectMapped(ctx, tr, 1024, 4, hash.Modulo(16, 8), hash.Modulo(16, 8))
		if !errors.Is(err, xerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("polls %d: error %v must wrap ErrCanceled and context.Canceled", polls, err)
		}
		if st != nil {
			t.Fatalf("polls %d: canceled pass returned stats %+v", polls, st)
		}
	}
}

// TestSimulateDirectMappedAllocs pins that the pass allocates only its
// per-call state, never per access.
func TestSimulateDirectMappedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fs := []*hash.XOR{hash.Modulo(16, 10), randomGeneral(rng, 16, 10)}
	short := dmTrace(rng, 100, 16, 4, 1024)
	long := dmTrace(rng, 100000, 16, 4, 1024)
	run := func(tr *trace.Trace) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := SimulateDirectMapped(context.Background(), tr, 4096, 4, fs...); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := run(short), run(long); a != b {
		t.Fatalf("allocations grow with the trace: %v for 100 accesses, %v for 100000", a, b)
	}
}

// FuzzDirectMappedVsCache drives the fused pass and per-function Cache
// runs with fuzzer-chosen geometry, index matrices and accesses: every
// counter must agree.
func FuzzDirectMappedVsCache(f *testing.F) {
	f.Add(uint8(16), uint8(8), uint8(2), uint64(1), []byte{0, 1, 2, 3, 0x80, 0, 4, 1})
	f.Add(uint8(9), uint8(3), uint8(0), uint64(7), []byte{})
	f.Add(uint8(40), uint8(12), uint8(5), uint64(99), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, n, m, blockLog uint8, seed uint64, data []byte) {
		nn := int(n)%32 + 2
		mm := int(m)%min(nn-1, 14) + 1 // at most 16 K sets
		bb := 1 << (int(blockLog) % 6)
		rng := rand.New(rand.NewSource(int64(seed)))
		fs := []*hash.XOR{hash.Modulo(nn, mm), randomGeneral(rng, nn, mm), randomPermutation(rng, nn, mm)}
		tr := &trace.Trace{}
		for i := 0; i+8 <= len(data) && i < 8*4096; i += 8 {
			var a uint64
			for j := 0; j < 8; j++ {
				a = a<<8 | uint64(data[i+j])
			}
			kind := trace.Read
			if a&1 != 0 {
				kind = trace.Write
			}
			// Fold most accesses into a small pool so lines get reused.
			if a&2 == 0 {
				a %= uint64(bb) << uint(mm+2)
			}
			tr.Append(a, kind)
		}
		checkDirectMapped(t, tr, bb<<uint(mm), bb, fs)
	})
}

// BenchmarkSimulateDirectMapped validates a modulo and a permutation
// function on a 4 KB cache over one media kernel's data trace.
func BenchmarkSimulateDirectMapped(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	fs := []*hash.XOR{hash.Modulo(16, 10), randomPermutation(rng, 16, 10)}
	w, err := workloads.ByName("jpeg_enc")
	if err != nil {
		b.Fatal(err)
	}
	tr := w.Data(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateDirectMapped(context.Background(), tr, 4096, 4, fs...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Accesses)), "ns/access")
}
