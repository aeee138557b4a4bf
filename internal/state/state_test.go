package state

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
)

// storeImpls runs a subtest against every Store implementation.
func storeImpls(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) {
		s := NewMem()
		defer s.Close()
		fn(t, s)
	})
	t.Run("kv", func(t *testing.T) {
		kv, err := OpenKV(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := &checkpointingKV{KV: kv, every: 64}
		defer s.Close()
		fn(t, s)
	})
}

// checkpointingKV checkpoints its KV every so many writes, at the write
// count, so store tests cross the flush and merge paths.
type checkpointingKV struct {
	*KV
	every, writes int64
}

func (s *checkpointingKV) Put(key, value []byte) error {
	if err := s.KV.Put(key, value); err != nil {
		return err
	}
	return s.tick()
}

func (s *checkpointingKV) Delete(key []byte) error {
	if err := s.KV.Delete(key); err != nil {
		return err
	}
	return s.tick()
}

func (s *checkpointingKV) tick() error {
	if s.writes++; s.writes%s.every != 0 {
		return nil
	}
	return s.KV.Checkpoint(s.writes)
}

func TestPutGetDelete(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		if err := s.Put([]byte("a"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		v, ok, err := s.Get([]byte("a"))
		if err != nil || !ok || string(v) != "1" {
			t.Fatalf("Get = %q %v %v", v, ok, err)
		}
		if err := s.Put([]byte("a"), []byte("2")); err != nil {
			t.Fatal(err)
		}
		v, _, _ = s.Get([]byte("a"))
		if string(v) != "2" {
			t.Fatalf("overwrite failed: %q", v)
		}
		if err := s.Delete([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := s.Get([]byte("a")); ok {
			t.Fatal("deleted key still present")
		}
		// Deleting absent keys is a no-op.
		if err := s.Delete([]byte("never")); err != nil {
			t.Fatal(err)
		}
	})
}

func TestGetAbsent(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		v, ok, err := s.Get([]byte("ghost"))
		if err != nil || ok || v != nil {
			t.Fatalf("absent Get = %q %v %v", v, ok, err)
		}
	})
}

func TestLenTracksLiveKeys(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		for i := 0; i < 100; i++ {
			s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
		}
		if got := s.Len(); got != 100 {
			t.Fatalf("Len = %d, want 100", got)
		}
		s.Put([]byte("k000"), []byte("v2")) // overwrite: no growth
		if got := s.Len(); got != 100 {
			t.Fatalf("Len after overwrite = %d", got)
		}
		for i := 0; i < 40; i++ {
			s.Delete([]byte(fmt.Sprintf("k%03d", i)))
		}
		if got := s.Len(); got != 60 {
			t.Fatalf("Len after deletes = %d, want 60", got)
		}
	})
}

func TestRangeOrderedAndBounded(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		for _, k := range []string{"d", "b", "a", "c", "e"} {
			s.Put([]byte(k), []byte("v-"+k))
		}
		var got []string
		s.Range(nil, nil, func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		})
		want := []string{"a", "b", "c", "d", "e"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Range = %v", got)
		}
		// Bounded [b, d).
		got = nil
		s.Range([]byte("b"), []byte("d"), func(k, v []byte) bool {
			got = append(got, string(k))
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint([]string{"b", "c"}) {
			t.Fatalf("bounded Range = %v", got)
		}
		// Early stop.
		got = nil
		s.Range(nil, nil, func(k, v []byte) bool {
			got = append(got, string(k))
			return len(got) < 2
		})
		if len(got) != 2 {
			t.Fatalf("early stop = %v", got)
		}
	})
}

func TestValueIsolation(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		v := []byte("orig")
		s.Put([]byte("k"), v)
		v[0] = 'X'
		got, _, _ := s.Get([]byte("k"))
		if string(got) != "orig" {
			t.Fatalf("store shares caller buffer: %q", got)
		}
		got[0] = 'Y'
		got2, _, _ := s.Get([]byte("k"))
		if string(got2) != "orig" {
			t.Fatalf("store shares returned buffer: %q", got2)
		}
	})
}

func TestClosedStoreErrors(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		s.Close()
		if err := s.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Put on closed: %v", err)
		}
		if _, _, err := s.Get([]byte("k")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Get on closed: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("double close: %v", err)
		}
	})
}

func TestKVFlushAndReopen(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := &checkpointingKV{KV: kv, every: 32}
	for i := 0; i < 500; i++ {
		s.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < 100; i++ {
		s.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	if err := kv.Checkpoint(600); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	if got := kv2.Offset(); got != 600 {
		t.Fatalf("Offset after reopen = %d, want 600", got)
	}
	if got := kv2.Len(); got != 400 {
		t.Fatalf("Len after reopen = %d, want 400", got)
	}
	for i := 0; i < 100; i++ {
		if _, ok, _ := kv2.Get([]byte(fmt.Sprintf("k%04d", i))); ok {
			t.Fatalf("deleted key k%04d resurrected", i)
		}
	}
	for i := 100; i < 500; i++ {
		v, ok, _ := kv2.Get([]byte(fmt.Sprintf("k%04d", i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%04d = %q %v", i, v, ok)
		}
	}
}

// Writes after the last checkpoint are gone after a reopen: the disk holds
// only what a checkpoint covers, and the changelog replays the rest.
func TestKVWritesAfterCheckpointGone(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	kv.Put([]byte("a"), []byte("1"))
	kv.Put([]byte("b"), []byte("1"))
	if err := kv.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	kv.Put([]byte("a"), []byte("2"))
	kv.Delete([]byte("b"))
	kv.Put([]byte("c"), []byte("1"))
	kv.Close()

	if kv, err = OpenKV(dir); err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	a, _, _ := kv.Get([]byte("a"))
	_, bFound, _ := kv.Get([]byte("b"))
	_, cFound, _ := kv.Get([]byte("c"))
	if kv.Offset() != 2 || string(a) != "1" || !bFound || cFound || kv.Len() != 2 {
		t.Fatalf("after reopen: offset %d, a %q, b found %v, c found %v, len %d; want 2, \"1\", true, false, 2",
			kv.Offset(), a, bFound, cFound, kv.Len())
	}
}

// A checkpoint file that fails its CRC opens the store empty at offset 0,
// and the run files it named are deleted with every other run and tmp file.
func TestKVCorruptCheckpointOpensEmpty(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		kv.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
		if err := kv.Checkpoint(int64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	kv.Close()
	path := filepath.Join(dir, checkpointName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "000099.run.tmp"), []byte("torn"), 0o644)

	if kv, err = OpenKV(dir); err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if kv.Offset() != 0 || kv.Len() != 0 {
		t.Fatalf("corrupt checkpoint opened at offset %d with %d keys; want 0, 0", kv.Offset(), kv.Len())
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.run*")); len(left) != 0 {
		t.Fatalf("files the checkpoint does not name survived the open: %v", left)
	}
}

func TestKVMergeCompactsRuns(t *testing.T) {
	kv, err := OpenKV(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	s := &checkpointingKV{KV: kv, every: 16}
	// Hammer a small key space so runs contain many shadowed versions.
	for i := 0; i < 600; i++ {
		s.Put([]byte(fmt.Sprintf("k%d", i%8)), []byte(fmt.Sprintf("v%d", i)))
	}
	if got := len(kv.runs); got > mergeAt {
		t.Fatalf("runs = %d, merge not keeping up", got)
	}
	if files, _ := filepath.Glob(filepath.Join(kv.dir, "*"+runSuffix)); len(files) != len(kv.runs) {
		t.Fatalf("%d run files for %d runs: merged runs not deleted", len(files), len(kv.runs))
	}
	if got := kv.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	for i := 0; i < 8; i++ {
		if _, ok, _ := kv.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("k%d missing after merges", i)
		}
	}
}

func TestKVMergeDropsTombstones(t *testing.T) {
	kv, err := OpenKV(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 64; i++ {
		kv.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	kv.Checkpoint(64)
	for i := 0; i < 64; i++ {
		kv.Delete([]byte(fmt.Sprintf("k%d", i)))
	}
	kv.Checkpoint(128)
	kv.mu.Lock()
	kv.mergeLocked()
	total := 0
	for _, r := range kv.runs {
		total += len(r.entries)
	}
	kv.mu.Unlock()
	if total != 0 {
		t.Fatalf("merged run holds %d entries, want 0 (tombstones dropped)", total)
	}
}

// TestQuickStoreMatchesModel property-checks both stores against a plain
// map over random operation sequences.
func TestQuickStoreMatchesModel(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		dir, err := os.MkdirTemp("", "kvq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		kv, err := OpenKV(dir)
		if err != nil {
			return false
		}
		defer func() { kv.Close() }()
		s := &checkpointingKV{KV: kv, every: 8}
		mem := NewMem()
		defer mem.Close()
		model := make(map[string]string)

		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			key := []byte(fmt.Sprintf("k%d", rng.Intn(16)))
			switch op % 3 {
			case 0, 1:
				val := []byte(fmt.Sprintf("v%d", rng.Int()))
				if s.Put(key, val) != nil || mem.Put(key, val) != nil {
					return false
				}
				model[string(key)] = string(val)
			case 2:
				if s.Delete(key) != nil || mem.Delete(key) != nil {
					return false
				}
				delete(model, string(key))
			}
		}
		// Every key agrees across model, MemStore and KV, and again once
		// the KV is checkpointed and reopened.
		agree := func() bool {
			for i := 0; i < 16; i++ {
				key := []byte(fmt.Sprintf("k%d", i))
				want, wantOK := model[string(key)]
				for _, s := range []Store{kv, mem} {
					got, ok, err := s.Get(key)
					if err != nil || ok != wantOK || (ok && string(got) != want) {
						return false
					}
				}
			}
			return kv.Len() == len(model) && mem.Len() == len(model)
		}
		if !agree() || kv.Checkpoint(s.writes+1) != nil || kv.Close() != nil {
			return false
		}
		if kv, err = OpenKV(dir); err != nil {
			return false
		}
		return agree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBinarySearch(t *testing.T) {
	entries := []entry{
		{key: []byte("a"), value: []byte("1")},
		{key: []byte("c"), value: nil}, // tombstone
		{key: []byte("e"), value: []byte("5")},
	}
	decoded, err := decodeRun(encodeRun(entries))
	if err != nil {
		t.Fatal(err)
	}
	r := &run{entries: decoded}
	if v, ok := r.get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("get a = %q %v", v, ok)
	}
	if v, ok := r.get([]byte("c")); !ok || v != nil {
		t.Fatalf("tombstone = %q %v", v, ok)
	}
	if _, ok := r.get([]byte("b")); ok {
		t.Fatal("absent key found")
	}
}

// Every damaged run file is refused, not read short: the entry count is
// under the checksum with the entries.
func TestRunCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	kv.Put([]byte("k1"), []byte("v1"))
	kv.Put([]byte("k2"), []byte("v2"))
	if err := kv.Checkpoint(2); err != nil {
		t.Fatal(err)
	}
	kv.Close()
	good, err := os.ReadFile(filepath.Join(dir, runName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for name, damage := range map[string]func(b []byte){
		"last byte flipped":   func(b []byte) { b[len(b)-1] ^= 0xFF },
		"count rewritten 2→1": func(b []byte) { b[7] = 1 },
	} {
		data := append([]byte(nil), good...)
		damage(data)
		os.WriteFile(filepath.Join(dir, runName(0)), data, 0o644)
		if r, err := openRun(dir, 0); err == nil {
			t.Fatalf("%s: corrupt run accepted with %d entries", name, len(r.entries))
		}
	}
}

// FuzzOpenRun: decoding a run file never panics, allocates within a small
// multiple of the file's size whatever its count says, and accepts only
// files that encodeRun writes byte for byte from what was decoded.
func FuzzOpenRun(f *testing.F) {
	for _, es := range [][]entry{
		nil,
		{{key: []byte("k"), value: []byte("v")}},
		{{key: []byte{}, value: []byte{}}, {key: []byte("a"), value: nil}, {key: []byte("b"), value: bytes.Repeat([]byte("x"), 300)}},
	} {
		data := encodeRun(es)
		f.Add(data)
		if len(es) > 1 {
			data = append([]byte(nil), data...)
			data[7]-- // the count, one short of the entries
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		entries, err := decodeRun(data)
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+8*len(data)); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, over the bound %d", len(data), alloc, bound)
		}
		if err == nil && !bytes.Equal(encodeRun(entries), data) {
			t.Fatalf("accepted %d bytes that re-encode differently", len(data))
		}
	})
}

func TestLargeValuesRoundTrip(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		big := bytes.Repeat([]byte("x"), 1<<16)
		if err := s.Put([]byte("big"), big); err != nil {
			t.Fatal(err)
		}
		v, ok, err := s.Get([]byte("big"))
		if err != nil || !ok || !bytes.Equal(v, big) {
			t.Fatalf("big value mismatch: %d bytes, ok=%v err=%v", len(v), ok, err)
		}
	})
}

// An empty value is a value, not a tombstone (nil is), in the memtable, in
// a flushed run, after a merge and across a reopen.
func TestEmptyValueIsNotATombstone(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		if err := s.Put([]byte("k"), []byte{}); err != nil {
			t.Fatal(err)
		}
		if _, found, err := s.Get([]byte("k")); !found || err != nil || s.Len() != 1 {
			t.Fatalf("Get after empty Put: found %v, err %v, len %d", found, err, s.Len())
		}
	})
	dir := t.TempDir()
	kv, err := OpenKV(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c", "d", "e"}
	for i, k := range keys { // each checkpoint flushes; the last merges
		if err := kv.Put([]byte(k), []byte{}); err != nil {
			t.Fatal(err)
		}
		if err := kv.Checkpoint(int64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(kv.runs) != 1 {
		t.Fatalf("runs = %d after %d checkpoints, want 1 (merged)", len(kv.runs), len(keys))
	}
	kv.Close()
	if kv, err = OpenKV(dir); err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	var got []string
	kv.Range(nil, nil, func(k, _ []byte) bool { got = append(got, string(k)); return true })
	if _, found, _ := kv.Get([]byte("a")); !found || kv.Len() != len(keys) || len(got) != len(keys) {
		t.Fatalf("after reopen: a found %v, len %d, range %v; want found, %d, %v", found, kv.Len(), got, len(keys), keys)
	}
}
