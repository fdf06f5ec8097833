package trace

import (
	"errors"
	"fmt"
	"io"
	"os"

	"encoding/binary"

	"xoridx/internal/gf2"
)

// MmapReader decodes the binary trace format straight out of a byte
// slice — in production a read-only memory mapping of the trace file
// (see Open), in tests and fuzzing any in-memory buffer. It mirrors
// Reader's API and error contract exactly, which is what the
// differential matrix in mmap_test.go pins:
//
//   - Corrupt or truncated input returns a *FormatError wrapping
//     xerr.ErrFormat with the byte offset of the failure.
//   - Record decoding is atomic: a failed Next consumes nothing.
//   - After the last declared record Next returns io.EOF.
//
// Unlike the buffered Reader there is no underlying io.Reader, so no
// transient-error class exists: every failure is either io.EOF or a
// *FormatError. The kernel pages the mapping in on demand, so decoding
// performs zero read syscalls and zero buffer copies — ReadBlocks
// writes block addresses straight from the mapped pages into the
// caller's chunk, which is how a profile.Build over profile.Stream
// shards directly over the mapping (DESIGN.md §17).
//
// An MmapReader must not be shared between goroutines. Close releases
// the mapping (a no-op for NewMmapReaderBytes); no method may be
// called after Close.
type MmapReader struct {
	data  []byte
	pos   int // byte offset of the next undecoded record
	name  string
	ops   uint64
	count uint64 // total accesses declared in the header
	read  uint64 // accesses decoded so far
	prev  [3]uint64
	unmap func() error
}

// ErrMmapUnsupported reports that this platform has no mmap support
// compiled in; Open falls back to the buffered Reader when it sees it.
var ErrMmapUnsupported = errors.New("trace: mmap is not supported on this platform")

// NewMmapReaderBytes parses the header of an encoded trace held in a
// byte slice and returns a reader positioned at the first access
// record. The slice is aliased, not copied; the caller must keep it
// immutable and alive for the reader's lifetime.
func NewMmapReaderBytes(data []byte) (*MmapReader, error) {
	r := &MmapReader{data: data}
	if err := r.parseHeader(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *MmapReader) parseHeader() error {
	if len(r.data) < len(magic) {
		return &FormatError{Offset: 0, What: "magic", Err: io.ErrUnexpectedEOF}
	}
	if string(r.data[:len(magic)]) != magic {
		return &FormatError{Offset: 0, What: fmt.Sprintf("magic %q", r.data[:len(magic)])}
	}
	r.pos = len(magic)
	nameLen, err := r.headerUvarint("name length")
	if err != nil {
		return err
	}
	if nameLen > 1<<20 {
		return &FormatError{Offset: int64(r.pos), What: fmt.Sprintf("unreasonable name length %d", nameLen)}
	}
	if uint64(len(r.data)-r.pos) < nameLen {
		return &FormatError{Offset: int64(r.pos), What: "name", Err: io.ErrUnexpectedEOF}
	}
	r.name = string(r.data[r.pos : r.pos+int(nameLen)])
	r.pos += int(nameLen)
	if r.ops, err = r.headerUvarint("ops"); err != nil {
		return err
	}
	if r.count, err = r.headerUvarint("access count"); err != nil {
		return err
	}
	return nil
}

// headerUvarint decodes one header varint with Reader's classification:
// truncation is a FormatError, a varint overflowing 64 bits surfaces as
// a plain error exactly like binary.ReadUvarint's does through
// Reader.readUvarint.
func (r *MmapReader) headerUvarint(what string) (uint64, error) {
	v, k := binary.Uvarint(r.data[r.pos:])
	if k > 0 {
		r.pos += k
		return v, nil
	}
	if k == 0 && len(r.data)-r.pos < binary.MaxVarintLen64 {
		return 0, &FormatError{Offset: int64(r.pos), What: what, Err: io.ErrUnexpectedEOF}
	}
	// k < 0, or a full MaxVarintLen64 window of continuation bytes that
	// ended the buffer: binary.ReadUvarint consumes all ten bytes before
	// noticing either way, so both classify as overflow.
	return 0, fmt.Errorf("trace: reading %s at byte offset %d: %w", what, r.pos, errUvarintOverflow)
}

// errUvarintOverflow mirrors binary.ReadUvarint's overflow error text.
var errUvarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// Name returns the trace name from the header.
func (r *MmapReader) Name() string { return r.name }

// Ops returns the operation count from the header.
func (r *MmapReader) Ops() uint64 { return r.ops }

// Len returns the total number of accesses declared in the header.
func (r *MmapReader) Len() uint64 { return r.count }

// Pos returns the number of accesses decoded so far.
func (r *MmapReader) Pos() uint64 { return r.read }

// Offset returns the byte offset into the encoded stream consumed so
// far (header included).
func (r *MmapReader) Offset() int64 { return int64(r.pos) }

// Next decodes the next access; see Reader.Next for the contract.
func (r *MmapReader) Next() (Access, error) {
	if r.read >= r.count {
		return Access{}, io.EOF
	}
	if r.pos >= len(r.data) {
		return Access{}, &FormatError{Offset: int64(r.pos), Record: r.read, HaveRecord: true,
			What: "kind", Err: io.ErrUnexpectedEOF}
	}
	kb := r.data[r.pos]
	if Kind(kb) > Fetch {
		return Access{}, &FormatError{Offset: int64(r.pos), Record: r.read, HaveRecord: true,
			What: fmt.Sprintf("invalid kind %d", kb)}
	}
	// Bound the varint window to what Reader's Peek would see, so the
	// two decoders classify overlong varints identically.
	rest := r.data[r.pos+1:]
	if len(rest) > maxRecordLen-1 {
		rest = rest[:maxRecordLen-1]
	}
	delta, k := binary.Varint(rest)
	if k < 0 {
		return Access{}, &FormatError{Offset: int64(r.pos), Record: r.read, HaveRecord: true,
			What: "delta varint overflow"}
	}
	if k == 0 {
		return Access{}, &FormatError{Offset: int64(r.pos), Record: r.read, HaveRecord: true,
			What: "delta", Err: io.ErrUnexpectedEOF}
	}
	r.pos += 1 + k
	addr := uint64(int64(r.prev[kb]) + delta)
	r.prev[kb] = addr
	r.read++
	return Access{Addr: addr, Kind: Kind(kb)}, nil
}

// ReadBlocks fills dst with the next block addresses truncated to n
// bits; see Reader.ReadBlocks for the contract.
func (r *MmapReader) ReadBlocks(dst []uint64, blockBytes, n int) (int, error) {
	if len(dst) == 0 {
		return 0, errors.New("trace: ReadBlocks needs a non-empty buffer")
	}
	mask := uint64(gf2.Mask(n))
	shift := uint(log2(blockBytes))
	for i := range dst {
		a, err := r.Next()
		if err == io.EOF {
			if i == 0 {
				return 0, io.EOF
			}
			return i, nil
		}
		if err != nil {
			return i, err
		}
		dst[i] = a.Addr >> shift & mask
	}
	return len(dst), nil
}

// BlockSource adapts the reader to the chunked pull shape the sharded
// profile builders consume; see Reader.BlockSource.
func (r *MmapReader) BlockSource(blockBytes, n int) func(dst []uint64) (int, error) {
	return func(dst []uint64) (int, error) {
		return r.ReadBlocks(dst, blockBytes, n)
	}
}

// ReadAll decodes every remaining access into an in-memory Trace.
func (r *MmapReader) ReadAll() (*Trace, error) {
	t := &Trace{Name: r.name, Ops: r.ops}
	if remaining := r.count - r.read; remaining < 1<<24 {
		t.Accesses = make([]Access, 0, remaining)
	}
	for {
		a, err := r.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Accesses = append(t.Accesses, a)
	}
}

// Close releases the memory mapping, if any. Safe to call more than
// once; no other method may be used afterwards.
func (r *MmapReader) Close() error {
	unmap := r.unmap
	r.unmap = nil
	r.data = nil
	if unmap != nil {
		return unmap()
	}
	return nil
}

// StreamReader is the common streaming surface of the buffered Reader
// and the mmap-backed MmapReader: everything the profiling pipeline
// needs to consume a trace without materializing it.
type StreamReader interface {
	Name() string
	Ops() uint64
	Len() uint64
	Pos() uint64
	Offset() int64
	Next() (Access, error)
	ReadBlocks(dst []uint64, blockBytes, n int) (int, error)
	BlockSource(blockBytes, n int) func(dst []uint64) (int, error)
}

// Source is an open trace file behind the StreamReader interface,
// bundling the decoder with whatever resource backs it (a memory
// mapping or an open file). Mapped reports which path Open took.
type Source struct {
	StreamReader
	Mapped bool
	close  func() error
}

// Close releases the mapping or the file handle.
func (s *Source) Close() error {
	if s.close == nil {
		return nil
	}
	c := s.close
	s.close = nil
	return c()
}

// Open opens a binary trace file for streaming. With preferMmap set it
// maps the file read-only (advising the kernel of the sequential scan)
// and decodes in place with zero copies; when the platform has no mmap
// support, the file is empty, or the mapping fails for any other
// reason, it degrades gracefully to the buffered Reader on a plain
// file handle — same records, same error contract, just through the
// page cache's read path instead of the mapping.
func Open(path string, preferMmap bool) (*Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if preferMmap {
		if src, ok := tryMmap(f); ok {
			f.Close() // the mapping outlives the descriptor
			return src, nil
		}
	}
	rd, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Source{StreamReader: rd, close: f.Close}, nil
}

// tryMmap attempts the mapped path; ok is false when the caller should
// fall back to the buffered Reader — unsupported platform, unmappable
// or empty file, or an unparsable header (the buffered path reproduces
// the exact *FormatError, so the fallback loses nothing).
func tryMmap(f *os.File) (*Source, bool) {
	fi, err := f.Stat()
	if err != nil || fi.Size() <= 0 || int64(int(fi.Size())) != fi.Size() {
		return nil, false
	}
	data, err := mmapFile(f, int(fi.Size()))
	if err != nil {
		return nil, false
	}
	r, err := NewMmapReaderBytes(data)
	if err != nil {
		munmapFile(data)
		return nil, false
	}
	r.unmap = func() error { return munmapFile(data) }
	return &Source{StreamReader: r, Mapped: true, close: r.Close}, true
}
