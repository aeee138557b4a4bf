package tier

import (
	"errors"
	"strings"
	"testing"
)

// errInjectedCrash stands in for a SIGKILL between segment upload and
// manifest commit.
var errInjectedCrash = errors.New("injected crash")

// TestCrashBetweenUploadAndCommit exercises the exact window a dying leader
// leaves an orphan: the segment file is renamed into place on the DFS but
// the manifest never commits. The next open (a new leader, or the restarted
// one re-elected) must sweep the orphan and re-offload — no acked record
// lost, no duplicate tiered segment.
func TestCrashBetweenUploadAndCommit(t *testing.T) {
	const n = 400
	l := openTestLog(t, t.TempDir(), n)
	defer l.Close()
	fs := openTestFS(t)

	var uploaded string
	crashy, err := Open(fs, "feed", 0, Config{
		OnUploaded: func(path string) error {
			uploaded = path
			return errInjectedCrash // die before the manifest commit
		},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashy.Offload(l, l.NextOffset()); !errors.Is(err, errInjectedCrash) {
		t.Fatalf("offload error = %v, want injected crash", err)
	}
	if uploaded == "" {
		t.Fatal("hook never saw an upload")
	}
	// The crash left an orphan: a committed-looking file the manifest does
	// not reference.
	if _, err := fs.Stat(uploaded); err != nil {
		t.Fatalf("orphan segment missing from DFS: %v", err)
	}
	if crashy.NextOffset() != 0 {
		t.Fatalf("manifest advanced past the crash: frontier %d", crashy.NextOffset())
	}
	// The guard never moved, so hot retention cannot delete anything —
	// the records exist on no committed tier yet.
	if got := l.OffloadedTo(); got != 0 {
		t.Fatalf("offload guard %d, want 0 (nothing committed)", got)
	}

	// Recovery: a new engine sweeps the orphan on open and re-offloads.
	p, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(uploaded); err == nil {
		t.Fatalf("orphan %s survived recovery sweep", uploaded)
	}
	if _, err := p.Offload(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	assertContiguous(t, fs, p)

	// Every offloaded record reads back exactly once.
	assertColdOnce(t, p)
}

// TestCrashLeavesTmpFile covers the earlier half of the window: the crash
// lands mid-write, before the rename, leaving only a .tmp file. Recovery
// sweeps it and the range re-offloads cleanly.
func TestCrashLeavesTmpFile(t *testing.T) {
	l := openTestLog(t, t.TempDir(), 300)
	defer l.Close()
	fs := openTestFS(t)

	// Fabricate the post-crash DFS state directly: a partial tmp upload.
	tmp := segmentPath("/tier", "feed", 0, 0, 99) + ".tmp"
	if err := fs.WriteFile(tmp, []byte("partial")); err != nil {
		t.Fatal(err)
	}
	p, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range fs.List(SegmentsPrefix("/tier", "feed")) {
		if strings.HasSuffix(info.Path, ".tmp") {
			t.Fatalf("tmp file survived recovery sweep: %s", info.Path)
		}
	}
	if _, err := p.Offload(l, l.NextOffset()); err != nil {
		t.Fatal(err)
	}
	assertContiguous(t, fs, p)
}

// TestZombieLeaderFenced proves a stale engine (the old leader, paused
// through a hand-over) cannot regress the manifest a newer leader has been
// committing to: its next commit observes the newer sequence and aborts
// with ErrConflict, and its uploaded segment is withdrawn.
func TestZombieLeaderFenced(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	lOld := openTestLog(t, dirA, 300)
	defer lOld.Close()
	fs := openTestFS(t)

	zombie, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The new leader (same offsets replicated to its own log) offloads
	// everything first.
	lNew := openTestLog(t, dirB, 300)
	defer lNew.Close()
	fresh, err := Open(fs, "feed", 0, Config{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Offload(lNew, lNew.NextOffset()); err != nil {
		t.Fatal(err)
	}
	// The zombie wakes up holding a stale (empty) manifest and tries to
	// offload the same range.
	if _, err := zombie.Offload(lOld, lOld.NextOffset()); !errors.Is(err, ErrConflict) {
		t.Fatalf("zombie offload error = %v, want ErrConflict", err)
	}
	assertContiguous(t, fs, fresh)
	// The fence must leave the winner's committed files untouched: a
	// conflicted writer may no longer own the file at its upload path
	// (the winner can have swept and re-uploaded the same range), so the
	// conflict path never deletes it.
	for _, s := range fresh.manifest().Segments {
		if _, err := fs.Stat(s.Path); err != nil {
			t.Fatalf("winner's committed segment %s gone after zombie conflict: %v", s.Path, err)
		}
	}
}
