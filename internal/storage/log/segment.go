// Package log implements the partition commit log of the messaging layer:
// an append-only sequence of record batches split into segment files with
// sparse in-memory offset indexes, per-topic retention, and recovery that
// truncates torn or corrupt tails. This is the storage substrate the paper
// builds the whole stack on (§3.1 "distributed commit log", §4.1).
package log

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/storage/record"
)

// Errors returned by log operations.
var (
	// ErrOffsetOutOfRange reports a read below the log start offset or
	// beyond the log end offset.
	ErrOffsetOutOfRange = errors.New("log: offset out of range")
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("log: closed")
	// ErrNonMonotonic reports an append whose base offset is below the
	// current log end offset.
	ErrNonMonotonic = errors.New("log: non-monotonic append")
)

// indexEntry maps a relative offset to a byte position within the segment
// file. Entries are sparse: one per indexIntervalBytes of appended data.
type indexEntry struct {
	relOffset int32
	position  int64
}

// segment is one file of the log: batches covering offsets
// [baseOffset, nextOffset).
type segment struct {
	baseOffset int64
	path       string
	file       *os.File
	size       int64
	nextOffset int64
	firstTS    int64 // first batch's max timestamp (0 if empty)
	maxTS      int64 // largest batch max-timestamp seen
	index      []indexEntry
	indexLag   int64 // bytes appended since last index entry
}

const segmentSuffix = ".log"

// segmentPath renders the canonical file name for a base offset.
func segmentPath(dir string, baseOffset int64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d%s", baseOffset, segmentSuffix))
}

// createSegment creates an empty segment file starting at baseOffset.
func createSegment(dir string, baseOffset int64) (*segment, error) {
	path := segmentPath(dir, baseOffset)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("log: create segment: %w", err)
	}
	return &segment{
		baseOffset: baseOffset,
		path:       path,
		file:       f,
		nextOffset: baseOffset,
	}, nil
}

// openSegment opens an existing segment file and rebuilds its in-memory
// index by scanning. A torn or corrupt tail (e.g. from a crash mid-write) is
// truncated away — torn reports that — and everything before it is kept.
// trustedBytes is the synced prefix the durability checkpoint vouches for
// (0 = verify everything).
func openSegment(dir string, baseOffset int64, indexInterval int64, trustedBytes int64) (s *segment, torn bool, err error) {
	path := segmentPath(dir, baseOffset)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("log: open segment: %w", err)
	}
	s = &segment{
		baseOffset: baseOffset,
		path:       path,
		file:       f,
		nextOffset: baseOffset,
	}
	if torn, err = s.recover(indexInterval, trustedBytes); err != nil {
		f.Close()
		return nil, false, err
	}
	return s, torn, nil
}

// recover scans the file, rebuilding the index and truncating at the first
// corruption. Batches entirely inside the trusted prefix (fsynced before the
// checkpoint was written) are header-walked without CRC verification; the
// tail beyond it — the only bytes a crash can tear — is CRC-checked batch by
// batch. torn reports that a tail was cut.
func (s *segment) recover(indexInterval int64, trustedBytes int64) (torn bool, err error) {
	data, err := io.ReadAll(s.file)
	if err != nil {
		return false, fmt.Errorf("log: recover %s: %w", s.path, err)
	}
	var pos int64
	valid := int64(0)
	for int(pos) < len(data) {
		info, err := record.PeekBatchInfo(data[pos:])
		if err != nil {
			break
		}
		end := pos + int64(info.Length)
		if end > int64(len(data)) {
			break // partial batch: torn tail
		}
		if end > trustedBytes {
			// Unsynced (or unvouched) bytes: a CRC mismatch is a torn
			// write and truncates the rest.
			if _, err := record.CheckBatch(data[pos:end]); err != nil {
				break
			}
		}
		// The offset prefix is outside CRC coverage; reject batches whose
		// offsets regress or go negative as corruption.
		if info.BaseOffset < s.nextOffset || info.BaseOffset < s.baseOffset {
			break
		}
		s.noteAppend(info, pos, indexInterval)
		pos = end
		valid = pos
	}
	torn = valid < int64(len(data))
	if torn {
		if err := s.file.Truncate(valid); err != nil {
			return false, fmt.Errorf("log: truncate torn tail of %s: %w", s.path, err)
		}
	}
	s.size = valid
	_, err = s.file.Seek(valid, io.SeekStart)
	return torn, err
}

// noteAppend updates segment bookkeeping for a batch appended (or
// discovered during recovery) at byte position pos.
func (s *segment) noteAppend(info record.BatchInfo, pos int64, indexInterval int64) {
	if s.size == 0 && pos == 0 && s.firstTS == 0 {
		s.firstTS = info.MaxTimestamp
	}
	if info.MaxTimestamp > s.maxTS {
		s.maxTS = info.MaxTimestamp
	}
	s.nextOffset = info.LastOffset + 1
	s.indexLag += int64(info.Length)
	if len(s.index) == 0 || s.indexLag >= indexInterval {
		s.index = append(s.index, indexEntry{
			relOffset: int32(info.BaseOffset - s.baseOffset),
			position:  pos,
		})
		s.indexLag = 0
	}
}

// append writes an encoded batch at the end of the segment.
func (s *segment) append(batch []byte, info record.BatchInfo, indexInterval int64) error {
	if _, err := s.file.Write(batch); err != nil {
		return fmt.Errorf("log: append: %w", err)
	}
	s.noteAppend(info, s.size, indexInterval)
	s.size += int64(len(batch))
	return nil
}

// lookup returns the greatest indexed byte position whose batch base offset
// is at or below the wanted offset.
func (s *segment) lookup(offset int64) int64 {
	rel := offset - s.baseOffset
	lo, hi := 0, len(s.index)-1
	pos := int64(0)
	for lo <= hi {
		mid := (lo + hi) / 2
		if int64(s.index[mid].relOffset) <= rel {
			pos = s.index[mid].position
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return pos
}

// truncateTo removes all data at offsets >= offset. It rescans the file to
// find the cut position and rebuilds the index.
func (s *segment) truncateTo(offset int64, indexInterval int64) error {
	data := make([]byte, s.size)
	if _, err := s.file.ReadAt(data, 0); err != nil && err != io.EOF {
		return err
	}
	var pos int64
	s.index = nil
	s.indexLag = 0
	s.maxTS = 0
	s.firstTS = 0
	s.nextOffset = s.baseOffset
	cut := int64(0)
	for int(pos) < len(data) {
		info, err := record.PeekBatchInfo(data[pos:])
		if err != nil {
			break
		}
		if info.LastOffset >= offset {
			break
		}
		s.noteAppend(info, pos, indexInterval)
		pos += int64(info.Length)
		cut = pos
	}
	if err := s.file.Truncate(cut); err != nil {
		return err
	}
	s.size = cut
	_, err := s.file.Seek(cut, io.SeekStart)
	return err
}

// close closes the segment file.
func (s *segment) close() error { return s.file.Close() }

// remove closes and deletes the segment file.
func (s *segment) remove() error {
	s.file.Close()
	return os.Remove(s.path)
}
