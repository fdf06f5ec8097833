package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"xoridx/internal/gf2"
)

// Reader streams accesses out of the binary format one record at a
// time, without materializing the whole trace. It is the input side of
// the chunked profiling pipeline (profile.Build over profile.Stream):
// a ROADMAP-scale trace is decoded in fixed-size block chunks that are
// handed to the sharded profile builders as they arrive.
//
// The header (name, ops, access count) is read eagerly by NewReader;
// records are decoded lazily by Next / ReadBlocks. A Reader must not be
// shared between goroutines.
//
// Error contract (the resilience layer depends on all three):
//
//   - Corrupt or truncated input — a bad magic, an invalid Kind byte,
//     a mid-record EOF — returns a *FormatError wrapping
//     xerr.ErrFormat and carrying the byte offset of the failure.
//   - Any other underlying read failure (e.g. a transient EIO from
//     faulty media) passes through unclassified, so callers can test
//     it with faultio.IsTransient and retry.
//   - Record decoding is atomic: Next consumes no bytes unless the
//     whole record parses, so after a transient failure the very same
//     Next call can simply be repeated.
type Reader struct {
	br     *bufio.Reader
	name   string
	ops    uint64
	count  uint64 // total accesses declared in the header
	read   uint64 // accesses decoded so far
	offset int64  // bytes consumed from the encoded stream so far
	prev   [3]uint64
}

// maxRecordLen is the longest possible access record: one kind byte
// plus a maximal signed varint.
const maxRecordLen = 1 + binary.MaxVarintLen64

// NewReader parses the header of a binary-format trace and returns a
// streaming reader positioned at the first access record.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{br: bufio.NewReader(r)}
	head := make([]byte, len(magic))
	if err := rd.readFull(head, "magic"); err != nil {
		return nil, err
	}
	if string(head) != magic {
		return nil, &FormatError{Offset: 0, What: fmt.Sprintf("magic %q", head)}
	}
	nameLen, err := rd.readUvarint("name length")
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<20 {
		return nil, &FormatError{Offset: rd.offset, What: fmt.Sprintf("unreasonable name length %d", nameLen)}
	}
	name := make([]byte, nameLen)
	if err := rd.readFull(name, "name"); err != nil {
		return nil, err
	}
	if rd.ops, err = rd.readUvarint("ops"); err != nil {
		return nil, err
	}
	if rd.count, err = rd.readUvarint("access count"); err != nil {
		return nil, err
	}
	rd.name = string(name)
	return rd, nil
}

// readFull fills dst from the stream, classifying failures: an EOF
// inside the structure is corruption (FormatError), anything else
// passes through as a plain read error at the current offset.
func (r *Reader) readFull(dst []byte, what string) error {
	start := r.offset
	n, err := io.ReadFull(r.br, dst)
	r.offset += int64(n)
	if err == nil {
		return nil
	}
	if isEOFish(err) {
		return &FormatError{Offset: start, What: what, Err: err}
	}
	return fmt.Errorf("trace: reading %s at byte offset %d: %w", what, start, err)
}

// readUvarint decodes one header varint with the same classification
// as readFull.
func (r *Reader) readUvarint(what string) (uint64, error) {
	start := r.offset
	v, err := binary.ReadUvarint(countedByteReader{r})
	if err == nil {
		return v, nil
	}
	if isEOFish(err) {
		return 0, &FormatError{Offset: start, What: what, Err: err}
	}
	return 0, fmt.Errorf("trace: reading %s at byte offset %d: %w", what, start, err)
}

// countedByteReader adapts the reader for binary.ReadUvarint while
// keeping the byte offset exact.
type countedByteReader struct{ r *Reader }

func (c countedByteReader) ReadByte() (byte, error) {
	b, err := c.r.br.ReadByte()
	if err == nil {
		c.r.offset++
	}
	return b, err
}

// isEOFish reports whether err means the stream ended (as opposed to
// failing transiently).
func isEOFish(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// Name returns the trace name from the header.
func (r *Reader) Name() string { return r.name }

// Ops returns the operation count from the header.
func (r *Reader) Ops() uint64 { return r.ops }

// Len returns the total number of accesses declared in the header.
func (r *Reader) Len() uint64 { return r.count }

// Pos returns the number of accesses decoded so far.
func (r *Reader) Pos() uint64 { return r.read }

// Offset returns the byte offset into the encoded stream consumed so
// far (header included).
func (r *Reader) Offset() int64 { return r.offset }

// Next decodes the next access. After the last declared record it
// returns io.EOF. A *FormatError (wrapping xerr.ErrFormat, carrying
// the record's byte offset) means malformed or truncated input; any
// other error is an underlying read failure, after which Next may be
// called again — no bytes are consumed unless a whole record parses.
func (r *Reader) Next() (Access, error) {
	if r.read >= r.count {
		return Access{}, io.EOF
	}
	// Peek the longest possible record; near the end of the stream the
	// peek may return fewer bytes alongside the reason.
	buf, peekErr := r.br.Peek(maxRecordLen)
	if len(buf) == 0 {
		if peekErr == nil || isEOFish(peekErr) {
			return Access{}, &FormatError{Offset: r.offset, Record: r.read, HaveRecord: true,
				What: "kind", Err: io.ErrUnexpectedEOF}
		}
		return Access{}, fmt.Errorf("trace: access %d read at byte offset %d: %w", r.read, r.offset, peekErr)
	}
	kb := buf[0]
	if Kind(kb) > Fetch {
		return Access{}, &FormatError{Offset: r.offset, Record: r.read, HaveRecord: true,
			What: fmt.Sprintf("invalid kind %d", kb)}
	}
	delta, k := binary.Varint(buf[1:])
	if k < 0 {
		return Access{}, &FormatError{Offset: r.offset, Record: r.read, HaveRecord: true,
			What: "delta varint overflow"}
	}
	if k == 0 {
		// The varint needs more bytes than the stream could supply:
		// either the trace is truncated mid-record, or the fill failed
		// transiently. Nothing has been consumed either way.
		if peekErr == nil || isEOFish(peekErr) {
			return Access{}, &FormatError{Offset: r.offset, Record: r.read, HaveRecord: true,
				What: "delta", Err: io.ErrUnexpectedEOF}
		}
		return Access{}, fmt.Errorf("trace: access %d read at byte offset %d: %w", r.read, r.offset, peekErr)
	}
	// The record parsed in full: consume it atomically.
	if _, err := r.br.Discard(1 + k); err != nil {
		// Unreachable: the bytes were just peeked.
		return Access{}, fmt.Errorf("trace: access %d discard: %w", r.read, err)
	}
	r.offset += int64(1 + k)
	addr := uint64(int64(r.prev[kb]) + delta)
	r.prev[kb] = addr
	r.read++
	return Access{Addr: addr, Kind: Kind(kb)}, nil
}

// ReadBlocks fills dst with the next block addresses truncated to n
// bits — the form the profiling algorithm consumes (see Trace.Blocks) —
// and returns how many it decoded. It returns (k, nil) with 0 < k <=
// len(dst) while records remain, then (0, io.EOF) at the end of the
// trace. Decoding can stop and resume mid-chunk at any record boundary,
// so callers may use any buffer size, including 1. After a transient
// read failure (an error that is neither io.EOF nor a *FormatError),
// calling ReadBlocks again resumes exactly where it stopped.
func (r *Reader) ReadBlocks(dst []uint64, blockBytes, n int) (int, error) {
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
// profile builders consume (profile.BlockSource): each call decodes up
// to len(dst) block addresses truncated to n bits and returns io.EOF
// after the last record. The builder side tops up short deliveries
// itself, so chunk boundaries are the consumer's choice, not the
// decoder's — the returned closure may be handed any buffer size.
func (r *Reader) BlockSource(blockBytes, n int) func(dst []uint64) (int, error) {
	return func(dst []uint64) (int, error) {
		return r.ReadBlocks(dst, blockBytes, n)
	}
}

// ReadAll decodes every remaining access into an in-memory Trace —
// Decode is NewReader + ReadAll.
func (r *Reader) ReadAll() (*Trace, error) {
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
