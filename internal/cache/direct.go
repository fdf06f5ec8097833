package cache

import (
	"context"
	"fmt"
	"math/bits"

	"xoridx/internal/hash"
	"xoridx/internal/trace"
	"xoridx/internal/xerr"
)

// Line words of the fused direct-mapped pass: the resident block
// shifted up by two, a valid bit and a dirty bit.
const (
	dmDirty = 1 << iota
	dmValid
)

// minDMTables is the table count the fused pass unrolls: three byte
// tables serve every index function of up to 24 address bits.
const minDMTables = 3

// dmSim is one index function's state in SimulateDirectMapped.
type dmSim struct {
	tabs  [][256]uint64 // compiled index tables, zero-padded to minDMTables
	lines []uint64      // per set: resident block<<2 | dmValid | dmDirty
	st    Stats
}

// SimulateDirectMapped runs a trace through one direct-mapped write-back
// cache per index function, all of geometry (sizeBytes, blockBytes), in
// a single pass, and returns their statistics in the order of fs. The
// result equals one Cache per function with classification disabled.
//
// Each set is one word holding its resident block with valid and dirty
// bits, and a hit is "resident block == block". That is exact because
// NewXOR makes (index, tag) bijective on the hashed bits and the tag
// keeps the bits above them, so two blocks in one set share a tag only
// if they are equal. The set index is read straight off the function's
// compiled byte tables. Blocks under four bytes leave no address bits
// free for the flags; those geometries run one Cache per function.
//
// The loop checks ctx every ctxCheckEvery accesses; on a done context
// it returns no statistics and a wrapped xerr.ErrCanceled.
func SimulateDirectMapped(ctx context.Context, tr *trace.Trace, sizeBytes, blockBytes int, fs ...*hash.XOR) ([]Stats, error) {
	cfg := Config{SizeBytes: sizeBytes, BlockBytes: blockBytes, Ways: 1}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	for _, f := range fs {
		if f.SetBits() != cfg.SetBits() {
			return nil, fmt.Errorf("cache: index function has %d set bits, geometry needs %d: %w", f.SetBits(), cfg.SetBits(), xerr.ErrInvalidGeometry)
		}
	}
	shift := uint(bits.TrailingZeros(uint(blockBytes)))
	if shift < 2 {
		return simulateEach(ctx, tr, cfg, fs)
	}
	sims := make([]dmSim, len(fs))
	for i, f := range fs {
		src := f.IndexMap().Tables()
		tabs := make([][256]uint64, max(len(src), minDMTables))
		copy(tabs, src)
		sims[i] = dmSim{tabs: tabs, lines: make([]uint64, cfg.Sets())}
	}
	acc := tr.Accesses
	for start := 0; start < len(acc); start += ctxCheckEvery {
		if err := xerr.Check(ctx); err != nil {
			return nil, err
		}
		// Each chunk is read from memory once and stays in cache while
		// every function runs over it in its own tight loop.
		chunk := acc[start:min(start+ctxCheckEvery, len(acc))]
		for i := range sims {
			sims[i].run(chunk, shift)
		}
	}
	out := make([]Stats, len(sims))
	for i := range sims {
		out[i] = sims[i].st
	}
	return out, nil
}

// run simulates one chunk of accesses.
func (s *dmSim) run(chunk []trace.Access, shift uint) {
	t0, t1, t2, wide := &s.tabs[0], &s.tabs[1], &s.tabs[2], s.tabs[minDMTables:]
	lines := s.lines
	var misses, writes, writebacks uint64
	for _, a := range chunk {
		b := a.Addr >> shift
		set := t0[byte(b)] ^ t1[byte(b>>8)] ^ t2[byte(b>>16)]
		for j := range wide {
			set ^= wide[j][byte(b>>(8*uint(j+minDMTables)))]
		}
		var dirty uint64
		if a.Kind == trace.Write {
			dirty = dmDirty
		}
		writes += dirty
		key := b<<2 | dmValid
		l := lines[set]
		if l|dmDirty == key|dmDirty {
			lines[set] = l | dirty
			continue
		}
		misses++
		writebacks += l & dmDirty
		lines[set] = key | dirty
	}
	s.st.Accesses += uint64(len(chunk))
	s.st.Misses += misses
	s.st.Writes += writes
	s.st.Writebacks += writebacks
}

// simulateEach is SimulateDirectMapped's fallback: one Cache pass per
// function.
func simulateEach(ctx context.Context, tr *trace.Trace, cfg Config, fs []*hash.XOR) ([]Stats, error) {
	out := make([]Stats, len(fs))
	for i, f := range fs {
		cfg.Index = f
		c, err := New(cfg)
		if err != nil {
			return nil, err
		}
		c.DisableClassification()
		if out[i], err = c.RunCtx(ctx, tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}
