// Package dfs is a miniature distributed file system standing in for
// HDFS/GFS as the substrate of the baseline MR/DFS data integration stack
// the paper argues against (§1, §2). It provides coarse-grained,
// chunk-oriented file storage with namenode-style metadata: files are
// written whole and become visible only on Close. Chunks are real files on
// local disk, so data paths are genuinely exercised. Namenode metadata
// persists in an fsimage file inside the directory, so reopening it (from
// the same or another process) restores the committed namespace — archived
// data outlives the process that wrote it.
package dfs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors returned by the file system.
var (
	// ErrNotFound reports a missing path.
	ErrNotFound = errors.New("dfs: file not found")
	// ErrExists reports a create of an existing path.
	ErrExists = errors.New("dfs: file exists")
	// ErrClosed reports use of a closed handle or file system.
	ErrClosed = errors.New("dfs: closed")
	// ErrReadOnly reports a mutation through a read-only handle.
	ErrReadOnly = errors.New("dfs: read-only file system")
)

// Config parameterises the file system.
type Config struct {
	// Dir is the local backing directory.
	Dir string
	// ChunkBytes is the chunk size (default 4 MiB).
	ChunkBytes int64
	// ReadOnly opens a lock-free reader over the committed fsimage:
	// mutations are refused, and the handle can coexist with one live
	// writer (it sees the namespace as of Open; committed chunks are
	// immutable). Offline scans and backfills use this to read an archive
	// a streaming archiver is still writing.
	ReadOnly bool
}

func (c Config) withDefaults() Config {
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 4 << 20
	}
	return c
}

// FileInfo describes one file.
type FileInfo struct {
	Path    string
	Size    int64
	Chunks  int
	ModTime time.Time
}

// fileMeta is the namenode's record of one file.
type fileMeta struct {
	chunks  []string // backing chunk file names
	size    int64
	modTime time.Time
}

// FS is the file system: namenode metadata plus chunk storage.
type FS struct {
	cfg  Config
	lock *os.File // exclusive directory lock held while open

	mu        sync.Mutex
	files     map[string]*fileMeta
	nextChunk int64
	closed    bool

	stats Stats
}

// Stats counts file system activity.
type Stats struct {
	MetadataOps   int64
	BytesRead     int64
	BytesWritten  int64
	ChunksRead    int64
	ChunksWritten int64
	// Commits counts namespace commits: fsimage writes, one fsync each,
	// failed ones included.
	Commits int64
}

// Open creates or opens a file system rooted at cfg.Dir. Namenode metadata
// persists in an fsimage file inside the directory, so a file system
// reopened by a later process sees every committed file — the property
// that lets separate archiver, MR, and backfill processes share one tree.
func Open(cfg Config) (*FS, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("dfs: Dir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "chunks"), 0o755); err != nil {
		return nil, err
	}
	// One live WRITING handle per directory: concurrent writers would
	// interleave chunk allocation and overwrite each other's fsimage.
	// Read-only handles skip the lock and read the committed image.
	var lock *os.File
	if !cfg.ReadOnly {
		var err error
		if lock, err = lockDir(cfg.Dir); err != nil {
			return nil, err
		}
	}
	fs := &FS{cfg: cfg, lock: lock, files: make(map[string]*fileMeta)}
	if err := fs.loadImage(); err != nil {
		unlockDir(lock)
		return nil, err
	}
	return fs, nil
}

// persistedFile is one file's record in the fsimage.
type persistedFile struct {
	Chunks    []string `json:"chunks"`
	Size      int64    `json:"size"`
	ModTimeMs int64    `json:"modTimeMs"`
}

// persistedImage is the on-disk namenode state.
type persistedImage struct {
	NextChunk int64                    `json:"nextChunk"`
	Files     map[string]persistedFile `json:"files"`
}

// imagePath locates the fsimage file.
func (fs *FS) imagePath() string { return filepath.Join(fs.cfg.Dir, "namenode.json") }

// loadImage restores namenode metadata written by a previous process.
func (fs *FS) loadImage() error {
	data, err := os.ReadFile(fs.imagePath())
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	var img persistedImage
	if err := json.Unmarshal(data, &img); err != nil {
		return fmt.Errorf("dfs: corrupt fsimage %s: %w", fs.imagePath(), err)
	}
	fs.nextChunk = img.NextChunk
	for path, pf := range img.Files {
		fs.files[path] = &fileMeta{
			chunks:  pf.Chunks,
			size:    pf.Size,
			modTime: time.UnixMilli(pf.ModTimeMs),
		}
	}
	return nil
}

// persistLocked checkpoints namenode metadata (callers hold fs.mu). The
// write-tmp-then-rename protocol keeps the image atomic. Each commit
// rewrites the full image (O(files)); an append-only journal with periodic
// compaction would make this O(1) per mutation if namespaces grow beyond
// the tens of thousands of files this repo exercises.
func (fs *FS) persistLocked() error {
	fs.stats.Commits++
	img := persistedImage{NextChunk: fs.nextChunk, Files: make(map[string]persistedFile, len(fs.files))}
	for path, meta := range fs.files {
		img.Files[path] = persistedFile{
			Chunks:    meta.chunks,
			Size:      meta.size,
			ModTimeMs: meta.modTime.UnixMilli(),
		}
	}
	data, err := json.Marshal(img)
	if err != nil {
		return err
	}
	tmp := fs.imagePath() + ".tmp"
	if err := writeFileSync(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, fs.imagePath())
}

// writeFileSync writes data to path and fsyncs it before returning, so the
// rename that follows cannot commit a torn image after a crash.
func writeFileSync(path string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Stats returns activity counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// IsReadOnly reports whether the handle refuses mutations.
func (fs *FS) IsReadOnly() bool { return fs.cfg.ReadOnly }

// Refresh reloads the committed fsimage from disk on a read-only handle,
// advancing its namespace snapshot past files a concurrent writer has
// committed or pruned since Open. Writers own the image and never refresh.
func (fs *FS) Refresh() error {
	if !fs.cfg.ReadOnly {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	fs.stats.MetadataOps++
	fs.files = make(map[string]*fileMeta)
	return fs.loadImage()
}

// chunkPath renders a chunk's backing path.
func (fs *FS) chunkPath(name string) string {
	return filepath.Join(fs.cfg.Dir, "chunks", name)
}

// Create opens a new file for writing. The file becomes visible to
// readers only on Close — the coarse-grained, whole-file semantics that
// make a DFS unsuitable for record-at-a-time access (paper §1).
func (fs *FS) Create(path string) (*Writer, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, ErrClosed
	}
	if fs.cfg.ReadOnly {
		return nil, fmt.Errorf("%w: create %s", ErrReadOnly, path)
	}
	fs.stats.MetadataOps++
	if _, ok := fs.files[path]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	return &Writer{fs: fs, path: path}, nil
}

// WriteFile creates path with the given contents.
func (fs *FS) WriteFile(path string, data []byte) error {
	w, err := fs.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// ReadFile returns a file's full contents: its chunks as of the call, each
// read straight into the one output buffer.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return nil, ErrClosed
	}
	fs.stats.MetadataOps++
	meta, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	out := make([]byte, 0, meta.size)
	for _, name := range meta.chunks {
		var err error
		if out, err = fs.readChunk(name, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// List returns files whose paths start with prefix, sorted.
func (fs *FS) List(prefix string) []FileInfo {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats.MetadataOps++
	var out []FileInfo
	for path, meta := range fs.files {
		if strings.HasPrefix(path, prefix) {
			out = append(out, FileInfo{
				Path:    path,
				Size:    meta.size,
				Chunks:  len(meta.chunks),
				ModTime: meta.modTime,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Stat describes one file.
func (fs *FS) Stat(path string) (FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.stats.MetadataOps++
	meta, ok := fs.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return FileInfo{Path: path, Size: meta.size, Chunks: len(meta.chunks), ModTime: meta.modTime}, nil
}

// Delete removes a file and its chunks.
func (fs *FS) Delete(path string) error {
	n, err := fs.remove(path, func(p string) bool { return p == path })
	if err == nil && n == 0 {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return err
}

// DeletePrefix removes every file under prefix in one namespace commit, as
// an HDFS recursive delete is one namenode operation, and returns how many
// it removed: all of them, or none when the commit fails.
func (fs *FS) DeletePrefix(prefix string) int {
	n, _ := fs.remove(prefix, func(p string) bool { return strings.HasPrefix(p, prefix) })
	return n
}

// remove deletes every file whose path matches, in one namespace commit.
// The fsimage is persisted before the chunks go, so a crash mid-delete
// leaves at worst orphan chunks — never a committed namespace pointing at
// missing data — and a failed commit removes nothing.
func (fs *FS) remove(target string, match func(string) bool) (int, error) {
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return 0, ErrClosed
	}
	if fs.cfg.ReadOnly {
		fs.mu.Unlock()
		return 0, fmt.Errorf("%w: delete %s", ErrReadOnly, target)
	}
	fs.stats.MetadataOps++
	gone := make(map[string]*fileMeta)
	for path, meta := range fs.files {
		if match(path) {
			gone[path] = meta
			delete(fs.files, path)
		}
	}
	if len(gone) > 0 {
		if err := fs.persistLocked(); err != nil {
			maps.Copy(fs.files, gone) // persist failed: the delete did not commit
			fs.mu.Unlock()
			return 0, err
		}
	}
	fs.mu.Unlock()
	for _, meta := range gone {
		fs.removeChunks(meta.chunks)
	}
	return len(gone), nil
}

// removeChunks deletes chunk files no committed file refers to.
func (fs *FS) removeChunks(chunks []string) {
	for _, c := range chunks {
		os.Remove(fs.chunkPath(c))
	}
}

// Rename atomically moves a file — the commit step of MR job output.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	if fs.cfg.ReadOnly {
		return fmt.Errorf("%w: rename %s", ErrReadOnly, oldPath)
	}
	fs.stats.MetadataOps++
	meta, ok := fs.files[oldPath]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, oldPath)
	}
	if _, ok := fs.files[newPath]; ok {
		return fmt.Errorf("%w: %s", ErrExists, newPath)
	}
	delete(fs.files, oldPath)
	fs.files[newPath] = meta
	if err := fs.persistLocked(); err != nil {
		delete(fs.files, newPath)
		fs.files[oldPath] = meta // persist failed: the rename did not commit
		return err
	}
	return nil
}

// Close invalidates the file system handle and releases the directory lock
// (chunks remain on disk).
func (fs *FS) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !fs.closed {
		fs.closed = true
		unlockDir(fs.lock)
		fs.lock = nil
	}
	return nil
}

// Writer accumulates chunks; Close commits the file to the namenode.
type Writer struct {
	fs     *FS
	path   string
	buf    []byte
	chunks []string
	size   int64
	done   bool
}

// Write buffers data, spilling full chunks to storage.
func (w *Writer) Write(p []byte) (int, error) {
	if w.done {
		return 0, ErrClosed
	}
	w.buf = append(w.buf, p...)
	w.size += int64(len(p))
	for int64(len(w.buf)) >= w.fs.cfg.ChunkBytes {
		chunk := w.buf[:w.fs.cfg.ChunkBytes]
		if err := w.spill(chunk); err != nil {
			return 0, err
		}
		w.buf = w.buf[w.fs.cfg.ChunkBytes:]
	}
	return len(p), nil
}

// spill writes one chunk to backing storage.
func (w *Writer) spill(chunk []byte) error {
	w.fs.mu.Lock()
	w.fs.nextChunk++
	name := fmt.Sprintf("c%012d", w.fs.nextChunk)
	w.fs.stats.BytesWritten += int64(len(chunk))
	w.fs.stats.ChunksWritten++
	w.fs.mu.Unlock()
	if err := os.WriteFile(w.fs.chunkPath(name), chunk, 0o644); err != nil {
		return err
	}
	w.chunks = append(w.chunks, name)
	return nil
}

// Close flushes the tail chunk and commits the file.
func (w *Writer) Close() error {
	if w.done {
		return ErrClosed
	}
	w.done = true
	if len(w.buf) > 0 {
		if err := w.spill(w.buf); err != nil {
			return err
		}
	}
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.closed {
		// The handle was closed (and its directory lock released) after
		// this writer was created; committing now could overwrite an
		// fsimage another process owns.
		return ErrClosed
	}
	w.fs.stats.MetadataOps++
	if _, ok := w.fs.files[w.path]; ok {
		w.fs.removeChunks(w.chunks) // the create lost: its chunks are nobody's
		return fmt.Errorf("%w: %s", ErrExists, w.path)
	}
	w.fs.files[w.path] = &fileMeta{chunks: w.chunks, size: w.size, modTime: time.Now()}
	if err := w.fs.persistLocked(); err != nil {
		delete(w.fs.files, w.path) // persist failed: the file did not commit
		w.fs.removeChunks(w.chunks)
		return err
	}
	return nil
}

// Abort discards the file's chunks without committing.
func (w *Writer) Abort() {
	w.done = true
	w.fs.removeChunks(w.chunks)
}

// readChunk appends one chunk's bytes to dst, counting the read.
func (fs *FS) readChunk(name string, dst []byte) ([]byte, error) {
	f, err := os.Open(fs.chunkPath(name))
	if err != nil {
		return dst, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return dst, err
	}
	n := int(info.Size())
	dst = slices.Grow(dst, n)
	if _, err := io.ReadFull(f, dst[len(dst):len(dst)+n]); err != nil {
		return dst, err
	}
	fs.mu.Lock()
	fs.stats.BytesRead += int64(n)
	fs.stats.ChunksRead++
	fs.mu.Unlock()
	return dst[:len(dst)+n], nil
}
