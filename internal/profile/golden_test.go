package profile

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The snapshot codecs persist the recency listing of the profiling
// state, not its in-memory layout. These golden digests pin the exact
// bytes of the three snapshot kinds for one fixed mid-pass state, so a
// change to how the pass keeps its recency state cannot move the XPC1
// or XWP1 formats without a deliberate version bump.

const (
	goldenN           = 16
	goldenCacheBlocks = 64
	goldenLen         = 30000
	goldenCut         = 17000
)

// goldenTrace is the fixed synthetic stream behind the digests: hot
// conflicts, wide sweeps and a tail of fresh blocks, long enough that
// the distance tree compacts and grows mid-pass.
func goldenTrace() []uint64 {
	return windowedTrace(rand.New(rand.NewSource(14)), goldenLen, goldenN)
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenSnapshotBytes(t *testing.T) {
	blocks := goldenTrace()[:goldenCut]

	t.Run("sequential XPC1", func(t *testing.T) {
		bd := NewBuilder(goldenN, goldenCacheBlocks)
		for _, b := range blocks {
			bd.Add(b)
		}
		if got, want := sha256Hex(snapshotBytes(t, bd)), goldenSequential; got != want {
			t.Fatalf("snapshot sha256 %s, want %s", got, want)
		}
	})

	t.Run("sharded XPC1", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "profile.ckpt")
		_, err := Build(context.Background(), Stream(sliceSource(blocks)), goldenN, goldenCacheBlocks,
			Options{Workers: 2, ChunkSize: 1024, Checkpoint: path, CheckpointEvery: 4096})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sha256Hex(data), goldenSharded; got != want {
			t.Fatalf("snapshot sha256 %s, want %s", got, want)
		}
	})

	t.Run("windowed XWP1", func(t *testing.T) {
		w, err := NewWindowed(goldenN, goldenCacheBlocks, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range blocks {
			w.Add(b)
			if (i+1)%5000 == 0 {
				w.Rotate()
			}
		}
		var buf bytes.Buffer
		if err := w.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if got, want := sha256Hex(buf.Bytes()), goldenWindowed; got != want {
			t.Fatalf("snapshot sha256 %s, want %s", got, want)
		}
	})
}

// Digests recorded with the linked-list recency stack the snapshot
// format was defined against.
const (
	goldenSequential = "894e4c9440a9a29cc9e1a868d3c10f40867c9ad258277a9969f1d9613e330c28"
	goldenSharded    = "894e4c9440a9a29cc9e1a868d3c10f40867c9ad258277a9969f1d9613e330c28"
	goldenWindowed   = "c6b54e8dc5edbb81d7427e6161ccfdc376225195aede0010dc374e47ece1c87a"
)
