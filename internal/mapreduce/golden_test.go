package mapreduce

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dfs"
)

// goldenParts is the sha256 of every part file goldenJob writes, captured
// from the engine that hashed with hash/fnv and encoded through a
// strings.Builder. FNV-1a partitioning, key order within a part, value order
// within a key and the line encoding are all in these bytes.
var goldenParts = map[string]string{
	"/out/part-00000": "e7b56142185cc8f825f65eed20e89722ae94067af8916b01e55cea79594594f5",
	"/out/part-00001": "b421d08a59f4e897f14ee09f49faae3f82de79fb02edf8b24520eb591eaba24a",
	"/out/part-00002": "541445c9b078c5b0ca570f6ab8f32d6a5e1441f88f557be9da2e97fd0e36af8e",
	"/out/part-00003": "57fc3c7100c7d6a63b48b522245d3ed3906a484b2003e436c3ffecb95034a989",
}

// goldenJob runs a fixed job over five input files: keys with multi-byte
// UTF-8, values with a tab inside, empty values and values emitted in map
// order, so both FNV bytes and line bytes vary.
func goldenJob(t *testing.T) map[string][]byte {
	t.Helper()
	e, fs := newEngine(t, EngineConfig{MapParallelism: 3})
	for f := 0; f < 5; f++ {
		var recs []KV
		for i := 0; i < 400; i++ {
			n := f*400 + i
			recs = append(recs, KV{
				Key:   strconv.Itoa(n),
				Value: fmt.Sprintf("w%d é%d\tt%d", n%37, n*7%101, n%5),
			})
		}
		if err := fs.WriteFile(fmt.Sprintf("/in/%d", f), EncodeLines(recs)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.Run(JobSpec{
		Name: "golden", InputPrefix: "/in/", OutputDir: "/out", NumReducers: 4,
		Map: func(key, value string, emit func(k, v string)) error {
			for _, w := range strings.Fields(value) {
				emit(w, key)
			}
			if strings.HasSuffix(key, "0") {
				emit("ends-in-0", "")
			}
			return nil
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			emit(key, strconv.Itoa(len(values)))
			emit(key, strings.Join(values[:min(3, len(values))], "\t"))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, info := range fs.List("/out/") {
		data, err := fs.ReadFile(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		out[info.Path] = data
	}
	return out
}

func TestPartFilesGolden(t *testing.T) {
	parts := goldenJob(t)
	if len(parts) != len(goldenParts) {
		t.Fatalf("%d part files, want %d", len(parts), len(goldenParts))
	}
	for path, data := range parts {
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != goldenParts[path] {
			t.Errorf("%s: sha256 %s, want %s (%d bytes)", path, got, goldenParts[path], len(data))
		}
	}
}

// A reducer that fails after others have finished leaves nothing committed:
// every part is written under a tmp name and renamed only once all reducers
// have succeeded, and a failure removes the tmp parts and the intermediates.
func TestReduceErrorCommitsNothing(t *testing.T) {
	e, fs := newEngine(t, EngineConfig{})
	var records []KV
	for i := 0; i < 200; i++ {
		records = append(records, KV{Key: fmt.Sprintf("key-%d", i), Value: "1"})
	}
	if err := fs.WriteFile("/in/big", EncodeLines(records)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("reduce exploded")
	var calls atomic.Int64
	_, err := e.Run(JobSpec{
		Name: "late-fail", InputPrefix: "/in/", OutputDir: "/out", NumReducers: 4,
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			if calls.Add(1) == 121 {
				return boom
			}
			return IdentityReducer(key, values, emit)
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the reducer's", err)
	}
	if left := fs.List("/out"); len(left) != 0 {
		t.Fatalf("failed job left %v", left)
	}
	if n := len(fs.List("tmp/")); n != 0 {
		t.Fatalf("%d intermediate files leaked after failure", n)
	}
}

// A commit whose rename fails, here on a part a previous run left in place,
// takes back the parts it already renamed and leaves the old one untouched.
func TestCommitConflictTakesBackParts(t *testing.T) {
	e, fs := newEngine(t, EngineConfig{})
	if err := fs.WriteFile("/in/x", EncodeLines([]KV{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}})); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/out/part-00002", []byte("old\t1\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(JobSpec{Name: "clash", InputPrefix: "/in/", OutputDir: "/out", NumReducers: 4}); !errors.Is(err, dfs.ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
	left := fs.List("/out")
	if len(left) != 1 || left[0].Path != "/out/part-00002" {
		t.Fatalf("after a failed commit: %v", left)
	}
	if data, err := fs.ReadFile("/out/part-00002"); err != nil || string(data) != "old\t1\n" {
		t.Fatalf("old part = %q, %v", data, err)
	}
	if n := len(fs.List("tmp/")); n != 0 {
		t.Fatalf("%d intermediate files leaked after failure", n)
	}
}

// decodeLinesSplit is DecodeLines as it was written over strings.Split: the
// reference for the IndexByte walk.
func decodeLinesSplit(data []byte) []KV {
	var out []KV
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		k, v, found := strings.Cut(line, "\t")
		if !found {
			out = append(out, KV{Key: line})
			continue
		}
		out = append(out, KV{Key: k, Value: v})
	}
	return out
}

func TestDecodeLinesEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []KV
	}{
		{"", nil},
		{"\n\n\n", nil},
		{"k\tv", []KV{{"k", "v"}}},
		{"k\tv\n", []KV{{"k", "v"}}},
		{"noTab\n", []KV{{"noTab", ""}}},
		{"noTab", []KV{{"noTab", ""}}},
		{"a\t1\t2\n", []KV{{"a", "1\t2"}}},
		{"\tv\nk\t\n", []KV{{"", "v"}, {"k", ""}}},
		{"x\n\n\ny\tz", []KV{{"x", ""}, {"y", "z"}}},
		{"\n\tonly-value\n", []KV{{"", "only-value"}}},
		{"cr\r\n", []KV{{"cr\r", ""}}},
		{"é\t✓\n", []KV{{"é", "✓"}}},
	} {
		got := DecodeLines([]byte(tc.in))
		if len(got) != len(tc.want) || len(got) > 0 && !slices.Equal(got, tc.want) {
			t.Errorf("DecodeLines(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if ref := decodeLinesSplit([]byte(tc.in)); !slices.Equal(got, ref) {
			t.Errorf("DecodeLines(%q) = %q, the strings.Split decoder %q", tc.in, got, ref)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(40))
		for j := range b {
			b[j] = "ab\t\n"[rng.Intn(4)]
		}
		if got, ref := DecodeLines(b), decodeLinesSplit(b); !slices.Equal(got, ref) {
			t.Fatalf("DecodeLines(%q) = %q, the strings.Split decoder %q", b, got, ref)
		}
	}
}

// fnv32a partitions exactly as hash/fnv's FNV-1a did.
func TestFNV32aMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		b := make([]byte, rng.Intn(30))
		rng.Read(b)
		h := fnv.New32a()
		h.Write(b)
		if got, want := fnv32a(string(b)), h.Sum32(); got != want {
			t.Fatalf("fnv32a(%q) = %#x, hash/fnv %#x", b, got, want)
		}
	}
}
