package log

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/storage/record"
)

// SegmentRange is a raw byte range of whole, visible record batches inside
// one segment file, held open on its own read-only descriptor. It is the
// zero-copy fetch path's currency: the wire layer splices it straight into
// the response frame with WriteTo, which on Linux TCP connections uses
// sendfile(2) — stored bytes are wire bytes (the byte-identical batch
// invariant), so they never pass through user space. The descriptor is
// independent of the log's append handle (no shared seek position) and, on
// POSIX systems, keeps serving even if retention unlinks the file mid-serve.
// Callers must Close it after the response is written.
type SegmentRange struct {
	f   *os.File
	pos int64
	n   int64
}

// Len returns the range length in bytes.
func (r *SegmentRange) Len() int64 { return r.n }

// WriteTo streams the range into w.
func (r *SegmentRange) WriteTo(w io.Writer) (int64, error) {
	if r.n == 0 || r.f == nil {
		return 0, nil
	}
	if _, err := r.f.Seek(r.pos, io.SeekStart); err != nil {
		return 0, err
	}
	return io.CopyN(w, r.f, r.n)
}

// Bytes materializes the range in memory, for callers that decode the
// batches instead of forwarding them.
func (r *SegmentRange) Bytes() ([]byte, error) {
	if r.n == 0 || r.f == nil {
		return []byte{}, nil
	}
	buf := make([]byte, r.n)
	if _, err := r.f.ReadAt(buf, r.pos); err != nil {
		return nil, err
	}
	return buf, nil
}

// Close releases the range's file descriptor.
func (r *SegmentRange) Close() error {
	if r.f == nil {
		return nil
	}
	return r.f.Close()
}

// resolve is the log's one range resolver: it locates the read (offset,
// maxBytes, limit) as n bytes at pos of segment s — up to maxBytes of whole
// batches starting with the first batch whose last offset is at or beyond
// offset, at least one batch when any qualifies (a large batch can never
// wedge a reader whose maxBytes is smaller than it), excluding batches whose
// last offset reaches limit. s == nil means nothing lives at or beyond
// offset (a read at the log end); n == 0 with s != nil means the first
// qualifying batch is not visible under limit. Offsets below the log start
// or beyond its end return ErrOffsetOutOfRange. The caller holds l.mu.
func (l *Log) resolve(offset int64, maxBytes int, limit int64) (s *segment, pos, n int64, err error) {
	if l.closed {
		return nil, 0, 0, ErrClosed
	}
	end := l.active().nextOffset
	if offset == end {
		return nil, 0, 0, nil
	}
	if offset < l.startOffset || offset > end {
		return nil, 0, 0, fmt.Errorf("%w: offset %d not in [%d, %d]", ErrOffsetOutOfRange, offset, l.startOffset, end)
	}
	// Start at the last segment whose base is <= offset; if its data ends
	// before the offset (compaction gaps), fall through to the next one.
	idx := sort.Search(len(l.segments), func(i int) bool {
		return l.segments[i].baseOffset > offset
	}) - 1
	if idx < 0 {
		idx = 0
	}
	for ; idx < len(l.segments); idx++ {
		seg := l.segments[idx]
		pos, n, err := seg.rangeAt(offset, maxBytes, limit)
		if err != nil {
			return nil, 0, 0, err
		}
		if pos < 0 {
			continue // nothing at or beyond offset in this segment
		}
		return seg, pos, n, nil
	}
	return nil, 0, 0, nil
}

// Read returns up to maxBytes of whole batches starting at offset: the
// range ReadRange(offset, maxBytes, -1) resolves, copied into memory.
// Reading at the log end offset returns (nil, nil).
func (l *Log) Read(offset int64, maxBytes int) ([]byte, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s, pos, n, err := l.resolve(offset, maxBytes, math.MaxInt64)
	if err != nil || s == nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := s.file.ReadAt(buf, pos); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadRange resolves a read into a raw byte range of the owning segment
// file instead of a copy, excluding batches whose last offset reaches limit
// (the caller's high watermark; limit < 0 means unbounded, the follower
// replication view):
//
//   - (nil, nil) when nothing lives at or beyond offset (reading at the log
//     end);
//   - a zero-length range when the first qualifying batch is not yet below
//     limit;
//   - otherwise a range of whole visible batches, at least one.
//
// The returned range MUST be closed by the caller.
func (l *Log) ReadRange(offset int64, maxBytes int, limit int64) (*SegmentRange, error) {
	if limit < 0 {
		limit = math.MaxInt64
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	s, pos, n, err := l.resolve(offset, maxBytes, limit)
	if err != nil || s == nil {
		return nil, err
	}
	if n == 0 {
		return &SegmentRange{}, nil
	}
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	return &SegmentRange{f: f, pos: pos, n: n}, nil
}

// rangeAt computes this segment's share of resolve: the byte range for
// (offset, maxBytes) bounded by limit (exclusive last-offset cap). pos == -1
// means no batch at or beyond offset lives in this segment; n == 0 with
// pos >= 0 means the first qualifying batch is not visible under limit.
func (s *segment) rangeAt(offset int64, maxBytes int, limit int64) (int64, int64, error) {
	pos := s.lookup(offset)
	var hdr [record.HeaderLen]byte
	var first record.BatchInfo
	found := false
	// Skip batches that end before the wanted offset.
	for pos+int64(record.HeaderLen) <= s.size {
		if _, err := s.file.ReadAt(hdr[:], pos); err != nil && err != io.EOF {
			return 0, 0, err
		}
		info, perr := record.PeekBatchInfo(hdr[:])
		if perr != nil {
			return 0, 0, fmt.Errorf("log: read header at %d: %w", pos, perr)
		}
		if info.LastOffset >= offset {
			first = info
			found = true
			break
		}
		pos += int64(info.Length)
	}
	if !found {
		return -1, 0, nil
	}
	if first.LastOffset >= limit {
		return pos, 0, nil
	}
	// Budget: at least one whole batch, else maxBytes, capped at the
	// segment end.
	want := int64(maxBytes)
	if want < int64(first.Length) {
		want = int64(first.Length)
	}
	if pos+want > s.size {
		want = s.size - pos
	}
	// Extend over whole visible batches within the budget.
	n := int64(0)
	cur := pos
	info := first
	for {
		next := n + int64(info.Length)
		if next > want || info.LastOffset >= limit {
			break
		}
		n = next
		cur += int64(info.Length)
		if cur+int64(record.HeaderLen) > s.size {
			break
		}
		if _, err := s.file.ReadAt(hdr[:], cur); err != nil && err != io.EOF {
			return 0, 0, err
		}
		ni, perr := record.PeekBatchInfo(hdr[:])
		if perr != nil {
			return 0, 0, fmt.Errorf("log: read header at %d: %w", cur, perr)
		}
		info = ni
	}
	return pos, n, nil
}
