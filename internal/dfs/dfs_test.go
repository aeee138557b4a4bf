package dfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openFS(t *testing.T, cfg Config) *FS {
	t.Helper()
	cfg.Dir = t.TempDir()
	fs, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := openFS(t, Config{ChunkBytes: 64})
	data := bytes.Repeat([]byte("0123456789"), 50) // 500B -> 8 chunks
	if err := fs.WriteFile("/data/input", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/data/input")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes, want %d", len(got), len(data))
	}
	info, err := fs.Stat("/data/input")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 500 || info.Chunks != 8 {
		t.Fatalf("stat = %+v", info)
	}
}

func TestCreateExclusive(t *testing.T) {
	fs := openFS(t, Config{})
	if err := fs.WriteFile("/f", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/f", []byte("b")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestFileInvisibleUntilClose(t *testing.T) {
	fs := openFS(t, Config{})
	w, err := fs.Create("/pending")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("partial"))
	if _, err := fs.ReadFile("/pending"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted file visible: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/pending"); err != nil {
		t.Fatalf("committed file not visible: %v", err)
	}
}

func TestAbortDiscards(t *testing.T) {
	fs := openFS(t, Config{ChunkBytes: 4})
	w, _ := fs.Create("/a")
	w.Write([]byte("12345678")) // spills chunks
	w.Abort()
	if _, err := fs.ReadFile("/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted file visible: %v", err)
	}
}

func TestListAndDelete(t *testing.T) {
	fs := openFS(t, Config{})
	fs.WriteFile("/logs/a", []byte("1"))
	fs.WriteFile("/logs/b", []byte("2"))
	fs.WriteFile("/other/c", []byte("3"))
	got := fs.List("/logs/")
	if len(got) != 2 || got[0].Path != "/logs/a" || got[1].Path != "/logs/b" {
		t.Fatalf("List = %+v", got)
	}
	if err := fs.Delete("/logs/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/logs/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if n := fs.DeletePrefix("/logs/"); n != 1 {
		t.Fatalf("DeletePrefix = %d", n)
	}
	if len(fs.List("/")) != 1 {
		t.Fatal("wrong survivors")
	}
}

// A recursive delete is one namenode operation: DeletePrefix removes every
// file under the prefix in one namespace commit, and a commit that fails
// removes nothing, in the namespace or on disk.
func TestDeletePrefixIsOneCommit(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(Config{Dir: dir, ChunkBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for _, p := range []string{"/job/tmp/a", "/job/tmp/b", "/job/tmp/c", "/job/out"} {
		if err := fs.WriteFile(p, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	chunks := func() int {
		entries, err := os.ReadDir(filepath.Join(dir, "chunks"))
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	before, chunksBefore := fs.Stats().Commits, chunks()

	// A directory where the fsimage is staged makes the commit fail.
	stage := filepath.Join(dir, "namenode.json.tmp")
	if err := os.Mkdir(stage, 0o755); err != nil {
		t.Fatal(err)
	}
	if n := fs.DeletePrefix("/job/tmp/"); n != 0 {
		t.Fatalf("DeletePrefix with a failing commit removed %d files", n)
	}
	if got := len(fs.List("/job/tmp/")); got != 3 || chunks() != chunksBefore {
		t.Fatalf("after a failed commit: %d of 3 files, %d of %d chunks", got, chunks(), chunksBefore)
	}
	if err := os.Remove(stage); err != nil {
		t.Fatal(err)
	}

	before = fs.Stats().Commits
	if n := fs.DeletePrefix("/job/tmp/"); n != 3 {
		t.Fatalf("DeletePrefix = %d, want 3", n)
	}
	if commits := fs.Stats().Commits - before; commits != 1 {
		t.Fatalf("DeletePrefix of 3 files made %d namespace commits, want 1", commits)
	}
	if got := fs.List("/job/"); len(got) != 1 || got[0].Path != "/job/out" {
		t.Fatalf("survivors = %+v", got)
	}
	if chunks() != chunksBefore-9 {
		t.Fatalf("%d chunks left, want %d", chunks(), chunksBefore-9)
	}
	// The namespace a reopen sees is the committed one.
	fs.Close()
	again, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := again.List("/job/"); len(got) != 1 {
		t.Fatalf("reopened namespace holds %d files under /job/, want 1", len(got))
	}
}

func TestRename(t *testing.T) {
	fs := openFS(t, Config{})
	fs.WriteFile("/tmp/x", []byte("data"))
	if err := fs.Rename("/tmp/x", "/out/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/tmp/x"); !errors.Is(err, ErrNotFound) {
		t.Fatal("old path still visible")
	}
	got, err := fs.ReadFile("/out/x")
	if err != nil || string(got) != "data" {
		t.Fatalf("renamed contents = %q %v", got, err)
	}
	fs.WriteFile("/tmp/y", []byte("other"))
	if err := fs.Rename("/tmp/y", "/out/x"); !errors.Is(err, ErrExists) {
		t.Fatalf("rename over existing: %v", err)
	}
	if err := fs.Rename("/missing", "/z"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rename missing: %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	fs := openFS(t, Config{ChunkBytes: 100})
	fs.WriteFile("/f", bytes.Repeat([]byte("x"), 250))
	fs.ReadFile("/f")
	s := fs.Stats()
	if s.BytesWritten != 250 || s.ChunksWritten != 3 {
		t.Fatalf("write stats = %+v", s)
	}
	if s.BytesRead != 250 || s.ChunksRead != 3 {
		t.Fatalf("read stats = %+v", s)
	}
	if s.MetadataOps == 0 {
		t.Fatal("no metadata ops recorded")
	}
}

func TestCostModelCharged(t *testing.T) {
	var mu sync.Mutex
	var slept time.Duration
	cost := CostModel{
		MetadataOp:  time.Millisecond,
		ChunkAccess: time.Millisecond,
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept += d
			mu.Unlock()
		},
	}
	fs := openFS(t, Config{ChunkBytes: 100, Cost: cost})
	fs.WriteFile("/f", bytes.Repeat([]byte("x"), 250)) // create meta + 3 chunks + commit meta
	mu.Lock()
	got := slept
	mu.Unlock()
	want := 2*time.Millisecond + 3*time.Millisecond
	if got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
}

func TestBandwidthCharge(t *testing.T) {
	var mu sync.Mutex
	var slept time.Duration
	cost := CostModel{
		WriteBandwidth: 1 << 20, // 1 MiB/s
		Sleep: func(d time.Duration) {
			mu.Lock()
			slept += d
			mu.Unlock()
		},
	}
	fs := openFS(t, Config{ChunkBytes: 1 << 20, Replication: 2, Cost: cost})
	fs.WriteFile("/f", bytes.Repeat([]byte("x"), 1<<19)) // 0.5 MiB * 2 replicas
	mu.Lock()
	got := slept
	mu.Unlock()
	if got != time.Second {
		t.Fatalf("charged %v, want 1s (0.5MiB at 1MiB/s with 2 replicas)", got)
	}
}

func TestEmptyFile(t *testing.T) {
	fs := openFS(t, Config{})
	if err := fs.WriteFile("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty read = %d bytes, %v", len(got), err)
	}
}

func TestClosedFS(t *testing.T) {
	fs := openFS(t, Config{})
	if err := fs.WriteFile("/pre", []byte("x")); err != nil {
		t.Fatal(err)
	}
	w, err := fs.Create("/late")
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if _, err := fs.Create("/x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("create on closed: %v", err)
	}
	if _, err := fs.ReadFile("/x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("open on closed: %v", err)
	}
	// Mutations after Close must not touch the fsimage: the directory
	// lock is gone and another process may own it now.
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("writer commit on closed: %v", err)
	}
	if err := fs.Delete("/pre"); !errors.Is(err, ErrClosed) {
		t.Fatalf("delete on closed: %v", err)
	}
	if err := fs.Rename("/pre", "/post"); !errors.Is(err, ErrClosed) {
		t.Fatalf("rename on closed: %v", err)
	}
}

func TestNamenodePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/keep/a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/keep/b", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/drop", []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("/drop"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/keep/b", "/keep/c"); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// A second process opens the same directory: committed state must be
	// exactly what the first one left.
	fs2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	got, err := fs2.ReadFile("/keep/a")
	if err != nil || string(got) != "alpha" {
		t.Fatalf("reopen read /keep/a = %q, %v", got, err)
	}
	got, err = fs2.ReadFile("/keep/c")
	if err != nil || string(got) != "beta" {
		t.Fatalf("reopen read /keep/c = %q, %v", got, err)
	}
	if _, err := fs2.ReadFile("/drop"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted file visible after reopen: %v", err)
	}
	if _, err := fs2.ReadFile("/keep/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("renamed-away path visible after reopen: %v", err)
	}
	// New writes must not collide with chunk names from the first run.
	if err := fs2.WriteFile("/keep/d", []byte("delta")); err != nil {
		t.Fatal(err)
	}
	got, err = fs2.ReadFile("/keep/a")
	if err != nil || string(got) != "alpha" {
		t.Fatalf("old file damaged by new writes: %q, %v", got, err)
	}
}
