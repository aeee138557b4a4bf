package state

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
		s, err := OpenKV(t.TempDir(), KVConfig{MemtableEntries: 64, MaxRuns: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fn(t, s)
	})
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
	kv, err := OpenKV(dir, KVConfig{MemtableEntries: 32, MaxRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		kv.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < 100; i++ {
		kv.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, err := OpenKV(dir, KVConfig{MemtableEntries: 32, MaxRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
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

func TestKVWALReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	kv, err := OpenKV(dir, KVConfig{MemtableEntries: 1 << 20}) // never flush
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		kv.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	kv.Delete([]byte("k7"))
	// Simulate a crash: do NOT close (no flush); reopen replays the WAL.
	kv.wal.f.Sync()

	kv2, err := OpenKV(dir, KVConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	if _, ok, _ := kv2.Get([]byte("k7")); ok {
		t.Fatal("deleted key survived WAL replay")
	}
	v, ok, _ := kv2.Get([]byte("k42"))
	if !ok || string(v) != "v42" {
		t.Fatalf("k42 = %q %v", v, ok)
	}
}

func TestKVWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	kv, _ := OpenKV(dir, KVConfig{MemtableEntries: 1 << 20})
	for i := 0; i < 20; i++ {
		kv.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	kv.wal.f.Sync()
	// Append garbage to the WAL, as a torn write would leave.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3, 4, 5})
	f.Close()

	kv2, err := OpenKV(dir, KVConfig{})
	if err != nil {
		t.Fatalf("reopen with torn WAL: %v", err)
	}
	defer kv2.Close()
	if got := kv2.Len(); got != 20 {
		t.Fatalf("Len = %d, want 20", got)
	}
	// New writes continue cleanly.
	if err := kv2.Put([]byte("new"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestKVMergeCompactsRuns(t *testing.T) {
	kv, err := OpenKV(t.TempDir(), KVConfig{MemtableEntries: 16, MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	// Hammer a small key space so runs contain many shadowed versions.
	for i := 0; i < 600; i++ {
		kv.Put([]byte(fmt.Sprintf("k%d", i%8)), []byte(fmt.Sprintf("v%d", i)))
	}
	if got := len(kv.runs); got > 3 {
		t.Fatalf("runs = %d, merge not keeping up", got)
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
	kv, err := OpenKV(t.TempDir(), KVConfig{MemtableEntries: 8, MaxRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 64; i++ {
		kv.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	for i := 0; i < 64; i++ {
		kv.Delete([]byte(fmt.Sprintf("k%d", i)))
	}
	kv.Flush()
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
		kv, err := OpenKV(dir, KVConfig{MemtableEntries: 8, MaxRuns: 2})
		if err != nil {
			return false
		}
		defer kv.Close()
		mem := NewMem()
		defer mem.Close()
		model := make(map[string]string)

		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			key := []byte(fmt.Sprintf("k%d", rng.Intn(16)))
			switch op % 3 {
			case 0, 1:
				val := []byte(fmt.Sprintf("v%d", rng.Int()))
				if kv.Put(key, val) != nil || mem.Put(key, val) != nil {
					return false
				}
				model[string(key)] = string(val)
			case 2:
				if kv.Delete(key) != nil || mem.Delete(key) != nil {
					return false
				}
				delete(model, string(key))
			}
		}
		// Every key agrees across model, MemStore and KV.
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
		if kv.Len() != len(model) || mem.Len() != len(model) {
			return false
		}
		return true
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
	r, err := writeRun(filepath.Join(t.TempDir(), "000001.run"), entries)
	if err != nil {
		t.Fatal(err)
	}
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

func TestRunCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "000001.run")
	_, err := writeRun(path, []entry{{key: []byte("k"), value: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	if _, err := openRun(path); err == nil {
		t.Fatal("corrupt run accepted")
	}
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
	kv, err := OpenKV(dir, KVConfig{MemtableEntries: 1, MaxRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} { // each Put flushes; the third merges
		if err := kv.Put([]byte(k), []byte{}); err != nil {
			t.Fatal(err)
		}
	}
	kv.Close()
	if kv, err = OpenKV(dir, KVConfig{}); err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	var keys []string
	kv.Range(nil, nil, func(k, _ []byte) bool { keys = append(keys, string(k)); return true })
	if _, found, _ := kv.Get([]byte("a")); !found || kv.Len() != 3 || len(keys) != 3 {
		t.Fatalf("after reopen: a found %v, len %d, range %v; want found, 3, [a b c]", found, kv.Len(), keys)
	}
}
