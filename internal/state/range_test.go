package state

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestKVRangeAcrossRunsAndMemtable pins the merged-view semantics Range
// must provide when the latest state of the keyspace is spread over several
// sorted runs plus the live memtable, with tombstones interleaved at every
// level: newest layer wins, tombstones hide older values (including
// run-resident ones), and a re-put after a flushed delete resurrects the
// key. The table materializer's scan path (TableRange) depends on exactly
// this.
func TestKVRangeAcrossRunsAndMemtable(t *testing.T) {
	kv, err := OpenKV(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }

	// Run 1: keys 0..59 at v1.
	for i := 0; i < 60; i++ {
		if err := kv.Put(key(i), []byte(fmt.Sprintf("v1-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Checkpoint(1); err != nil {
		t.Fatal(err)
	}

	// Run 2: overwrite every 3rd key to v2, tombstone every 5th.
	for i := 0; i < 60; i += 3 {
		if err := kv.Put(key(i), []byte(fmt.Sprintf("v2-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i += 5 {
		if err := kv.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Checkpoint(2); err != nil {
		t.Fatal(err)
	}

	// Memtable (unflushed): overwrite every 7th key to v3, tombstone every
	// 11th, and resurrect key 10 (deleted in run 2) at v4.
	for i := 0; i < 60; i += 7 {
		if err := kv.Put(key(i), []byte(fmt.Sprintf("v3-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i += 11 {
		if err := kv.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Put(key(10), []byte("v4-010")); err != nil {
		t.Fatal(err)
	}

	if got := len(kv.runs); got != 2 {
		t.Fatalf("runs = %d, want 2 (test must span multiple runs)", got)
	}

	// Model: replay the same layers on a plain map.
	model := make(map[string]string)
	for i := 0; i < 60; i++ {
		model[string(key(i))] = fmt.Sprintf("v1-%03d", i)
	}
	for i := 0; i < 60; i += 3 {
		model[string(key(i))] = fmt.Sprintf("v2-%03d", i)
	}
	for i := 0; i < 60; i += 5 {
		delete(model, string(key(i)))
	}
	for i := 0; i < 60; i += 7 {
		model[string(key(i))] = fmt.Sprintf("v3-%03d", i)
	}
	for i := 0; i < 60; i += 11 {
		delete(model, string(key(i)))
	}
	model[string(key(10))] = "v4-010"

	got := make(map[string]string)
	var prev string
	if err := kv.Range(nil, nil, func(k, v []byte) bool {
		if string(k) <= prev && prev != "" {
			t.Fatalf("Range out of order: %q after %q", k, prev)
		}
		prev = string(k)
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(model) {
		t.Fatalf("Range saw %d keys, model has %d", len(got), len(model))
	}
	for k, want := range model {
		if got[k] != want {
			t.Fatalf("key %q = %q, want %q", k, got[k], want)
		}
	}

	// Point reads agree with the merged view (same layers, Get path).
	if v, ok, _ := kv.Get(key(10)); !ok || string(v) != "v4-010" {
		t.Fatalf("resurrected key = %q %v, want v4-010", v, ok)
	}
	if _, ok, _ := kv.Get(key(55)); ok {
		t.Fatal("key deleted in memtable (55 = 11*5) still visible")
	}
	if kv.Len() != len(model) {
		t.Fatalf("Len = %d, want %d", kv.Len(), len(model))
	}
}

// TestStoreRangeConformance drives both Store implementations through the
// same randomized put/delete workload and asserts Range agrees with a map
// model on contents, order, bounds, and early stop — the conformance
// contract that lets the broker's table host treat the backing store as
// interchangeable.
func TestStoreRangeConformance(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		rng := rand.New(rand.NewSource(6))
		model := make(map[string]string)
		for op := 0; op < 2000; op++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(300))
			if rng.Intn(4) == 0 {
				if err := s.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(model, k)
			} else {
				v := fmt.Sprintf("val-%06d", op)
				if err := s.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
			// Occasionally force the KV through its flush path so later
			// ranges cross run boundaries, not just the memtable.
			if kv, ok := s.(*checkpointingKV); ok && op%500 == 499 {
				if err := kv.Checkpoint(int64(op)); err != nil {
					t.Fatal(err)
				}
			}
		}

		sorted := make([]string, 0, len(model))
		for k := range model {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)

		// Full scan: exact contents in ascending order.
		var keys []string
		if err := s.Range(nil, nil, func(k, v []byte) bool {
			keys = append(keys, string(k))
			if model[string(k)] != string(v) {
				t.Fatalf("key %q = %q, model %q", k, v, model[string(k)])
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(keys) != fmt.Sprint(sorted) {
			t.Fatalf("full Range = %d keys, model %d; first diff around %v", len(keys), len(sorted), keys)
		}

		// Bounded scans [from, to) at random cut points agree with the
		// model's slice of the sorted keyspace.
		for trial := 0; trial < 20; trial++ {
			from := fmt.Sprintf("key-%03d", rng.Intn(300))
			to := fmt.Sprintf("key-%03d", rng.Intn(300))
			var want []string
			for _, k := range sorted {
				if k >= from && k < to {
					want = append(want, k)
				}
			}
			var got []string
			if err := s.Range([]byte(from), []byte(to), func(k, v []byte) bool {
				got = append(got, string(k))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Range[%q,%q) = %v, want %v", from, to, got, want)
			}
		}

		// Early stop halts exactly where the callback says.
		var n int
		if err := s.Range(nil, nil, func(k, v []byte) bool {
			n++
			return n < 7
		}); err != nil {
			t.Fatal(err)
		}
		if want := 7; len(sorted) >= want && n != want {
			t.Fatalf("early stop visited %d keys, want %d", n, want)
		}
	})
}
