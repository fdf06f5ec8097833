package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"xoridx/internal/gf2"
)

// digest accumulates every output a pass produces — per cell the
// matrix, misses and fallback flag; per epoch the sequence number,
// matrix, estimate and swap flag — into one hash. Runs of the same
// code and seed must print the same digest.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) flag(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digest) matrix(m gf2.Matrix) {
	d.u64(uint64(m.N))
	d.u64(uint64(m.M))
	for _, c := range m.Cols {
		d.u64(uint64(c))
	}
}

// sum returns the digest as 16 hex digits.
func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }
