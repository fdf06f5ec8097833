package profile

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"xoridx/internal/xerr"
)

func mustAnalyze(t *testing.T, blocks []uint64, n, cacheBlocks, topVectors, topPairs int) *Analysis {
	t.Helper()
	a, err := AnalyzeConflicts(blocks, n, cacheBlocks, topVectors, topPairs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyzeConflictsFindsThePair(t *testing.T) {
	// Two structures at 0x0 and 0x4000 bytes thrash; a third stream is
	// conflict-free noise.
	var blocks []uint64
	for i := 0; i < 100; i++ {
		blocks = append(blocks, 0x10, 0x10^0x400) // hot pair
		blocks = append(blocks, uint64(0x2000+i)) // streaming noise
	}
	a := mustAnalyze(t, blocks, 16, 1024, 4, 10)
	if len(a.HotPairs) == 0 {
		t.Fatal("no hot pairs found")
	}
	top := a.HotPairs[0]
	if top.BlockA != 0x10 || top.BlockB != 0x410 {
		t.Fatalf("top pair = %#x/%#x, want 0x10/0x410", top.BlockA, top.BlockB)
	}
	if top.Vector != 0x400 {
		t.Fatalf("vector = %#x", top.Vector)
	}
	if top.Count < 190 {
		t.Fatalf("count = %d, want ~199", top.Count)
	}
	// Pair counts must not exceed the vector's histogram count.
	if top.Count > a.Profile.Table[top.Vector] {
		t.Fatalf("pair count %d exceeds vector count %d", top.Count, a.Profile.Table[top.Vector])
	}
}

func TestAnalyzeRollsBackCapacityPairs(t *testing.T) {
	// A sweep larger than the capacity filter: everything is capacity,
	// so no pairs survive.
	var blocks []uint64
	for r := 0; r < 3; r++ {
		for b := uint64(0); b < 64; b++ {
			blocks = append(blocks, b)
		}
	}
	a := mustAnalyze(t, blocks, 12, 16, 8, 10)
	if len(a.HotPairs) != 0 {
		t.Fatalf("capacity-only trace produced pairs: %+v", a.HotPairs)
	}
}

func TestAnalysisReport(t *testing.T) {
	var blocks []uint64
	for i := 0; i < 50; i++ {
		blocks = append(blocks, 0, 0x100)
	}
	a := mustAnalyze(t, blocks, 16, 256, 4, 5)
	rep := a.Report(4)
	for _, frag := range []string{
		"hottest conflict vectors",
		"hottest conflicting address pairs",
		"0x00000400", // block 0x100 * 4 bytes
		"pad/realign",
	} {
		if !strings.Contains(rep, frag) {
			t.Errorf("report missing %q:\n%s", frag, rep)
		}
	}
}

func TestAnalyzeTopPairsTruncates(t *testing.T) {
	var blocks []uint64
	for i := uint64(0); i < 8; i++ {
		for r := 0; r < 20; r++ {
			blocks = append(blocks, i, i^0x40)
		}
	}
	a := mustAnalyze(t, blocks, 12, 64, 2, 3)
	if len(a.HotPairs) > 3 {
		t.Fatalf("topPairs not honoured: %d", len(a.HotPairs))
	}
}

func TestAnalyzeConflictsRejectsBadGeometry(t *testing.T) {
	for _, g := range [][2]int{{0, 16}, {65, 16}, {12, 0}, {12, -1}} {
		if _, err := AnalyzeConflicts([]uint64{1, 2, 1}, g[0], g[1], 4, 4); !errors.Is(err, xerr.ErrInvalidOptions) {
			t.Errorf("n=%d cacheBlocks=%d: err = %v, want wrapped ErrInvalidOptions", g[0], g[1], err)
		}
	}
}

// TestAnalyzePairsSumToHotVectors checks the pair walk against the
// profile it explains: with room for every pair, the pairs behind each
// hot vector add up to exactly that vector's histogram count.
func TestAnalyzePairsSumToHotVectors(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1400 + trial)))
		n := 8 + rng.Intn(5)
		cacheBlocks := 1 + rng.Intn(64)
		blocks := diffTrace(rng)
		a := mustAnalyze(t, blocks, n, cacheBlocks, 4, 1<<30)
		perVector := make(map[uint64]uint64)
		for _, pc := range a.HotPairs {
			perVector[pc.Vector] += pc.Count
		}
		for _, vc := range a.Profile.HotVectors(4) {
			if got := perVector[uint64(vc.Vec)]; got != vc.Count {
				t.Fatalf("trial %d (n=%d cap=%d): pairs behind vector %#x sum to %d, histogram says %d",
					trial, n, cacheBlocks, vc.Vec, got, vc.Count)
			}
		}
	}
}
