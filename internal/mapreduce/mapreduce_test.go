package mapreduce

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
)

func newEngine(t *testing.T, cfg EngineConfig) (*Engine, *dfs.FS) {
	t.Helper()
	fs, err := dfs.Open(dfs.Config{Dir: t.TempDir(), ChunkBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return NewEngine(fs, cfg), fs
}

// wordCount is the canonical MR job.
func wordCountSpec(in, out string) JobSpec {
	return JobSpec{
		Name:        "wordcount",
		InputPrefix: in,
		OutputDir:   out,
		Map: func(key, value string, emit func(k, v string)) error {
			for _, w := range strings.Fields(value) {
				emit(w, "1")
			}
			return nil
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			emit(key, strconv.Itoa(len(values)))
			return nil
		},
		NumReducers: 3,
	}
}

// readOutput gathers all part files of an output dir into a map.
func readOutput(t *testing.T, fs *dfs.FS, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, info := range fs.List(dir + "/") {
		data, err := fs.ReadFile(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range DecodeLines(data) {
			out[kv.Key] = kv.Value
		}
	}
	return out
}

func TestWordCount(t *testing.T) {
	e, fs := newEngine(t, EngineConfig{})
	fs.WriteFile("/in/a", EncodeLines([]KV{
		{Key: "1", Value: "the quick brown fox"},
		{Key: "2", Value: "the lazy dog"},
	}))
	fs.WriteFile("/in/b", EncodeLines([]KV{
		{Key: "3", Value: "the fox"},
	}))
	stats, err := e.Run(wordCountSpec("/in/", "/out"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.MapInputRecords != 3 {
		t.Fatalf("map input = %d", stats.MapInputRecords)
	}
	if stats.IntermediateRecords != 9 {
		t.Fatalf("intermediate = %d", stats.IntermediateRecords)
	}
	got := readOutput(t, fs, "/out")
	want := map[string]string{"the": "3", "fox": "2", "quick": "1", "brown": "1", "lazy": "1", "dog": "1"}
	if len(got) != len(want) {
		t.Fatalf("output = %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%s] = %s, want %s", k, got[k], v)
		}
	}
	// Intermediates cleaned up after commit.
	if n := len(fs.List("tmp/")); n != 0 {
		t.Fatalf("%d intermediate files leaked", n)
	}
}

func TestIdentityDefaults(t *testing.T) {
	e, fs := newEngine(t, EngineConfig{})
	fs.WriteFile("/in/x", EncodeLines([]KV{{Key: "k1", Value: "v1"}, {Key: "k2", Value: "v2"}}))
	if _, err := e.Run(JobSpec{Name: "id", InputPrefix: "/in/", OutputDir: "/out"}); err != nil {
		t.Fatal(err)
	}
	got := readOutput(t, fs, "/out")
	if got["k1"] != "v1" || got["k2"] != "v2" {
		t.Fatalf("identity output = %v", got)
	}
}

func TestEmptyInputFails(t *testing.T) {
	e, _ := newEngine(t, EngineConfig{})
	if _, err := e.Run(JobSpec{Name: "x", InputPrefix: "/none/", OutputDir: "/out"}); err == nil {
		t.Fatal("no-input job should fail")
	}
}

func TestMapErrorAborts(t *testing.T) {
	e, fs := newEngine(t, EngineConfig{})
	fs.WriteFile("/in/x", EncodeLines([]KV{{Key: "k", Value: "v"}}))
	_, err := e.Run(JobSpec{
		Name: "boom", InputPrefix: "/in/", OutputDir: "/out",
		Map: func(k, v string, emit func(k, v string)) error {
			return fmt.Errorf("map exploded")
		},
	})
	if err == nil || !strings.Contains(err.Error(), "map exploded") {
		t.Fatalf("err = %v", err)
	}
	if n := len(fs.List("tmp/")); n != 0 {
		t.Fatalf("%d intermediate files leaked after failure", n)
	}
	if n := len(fs.List("/out/")); n != 0 {
		t.Fatal("failed job committed output")
	}
}

func TestSchedulerDelayDominatesLatency(t *testing.T) {
	var slept time.Duration
	e, fs := newEngine(t, EngineConfig{
		SchedulerDelay: 100 * time.Millisecond,
		Sleep:          func(d time.Duration) { slept += d },
	})
	fs.WriteFile("/in/x", EncodeLines([]KV{{Key: "k", Value: "v"}}))
	if _, err := e.Run(JobSpec{Name: "t", InputPrefix: "/in/", OutputDir: "/out"}); err != nil {
		t.Fatal(err)
	}
	// One launch pause + one barrier pause per job.
	if slept != 200*time.Millisecond {
		t.Fatalf("scheduler slept %v, want 200ms", slept)
	}
}

func TestEncodeDecodeLines(t *testing.T) {
	in := []KV{{Key: "a", Value: "1\t2"}, {Key: "", Value: "x"}, {Key: "c", Value: ""}}
	got := DecodeLines(EncodeLines(in))
	if len(got) != 3 {
		t.Fatalf("decode = %v", got)
	}
	if got[0].Key != "a" || got[0].Value != "1\t2" {
		t.Fatalf("tab in value mishandled: %+v", got[0])
	}
	if DecodeLines([]byte("noTab\n"))[0].Key != "noTab" {
		t.Fatal("tabless line mishandled")
	}
	if len(DecodeLines(nil)) != 0 {
		t.Fatal("nil decode should be empty")
	}
}

func TestManyReducersPartitionAllKeys(t *testing.T) {
	e, fs := newEngine(t, EngineConfig{})
	var records []KV
	for i := 0; i < 200; i++ {
		records = append(records, KV{Key: fmt.Sprintf("key-%d", i), Value: "1"})
	}
	fs.WriteFile("/in/big", EncodeLines(records))
	spec := JobSpec{Name: "wide", InputPrefix: "/in/", OutputDir: "/out", NumReducers: 8}
	if _, err := e.Run(spec); err != nil {
		t.Fatal(err)
	}
	got := readOutput(t, fs, "/out")
	if len(got) != 200 {
		t.Fatalf("outputs = %d, want 200 (keys lost in partitioning)", len(got))
	}
	if parts := fs.List("/out/"); len(parts) != 8 {
		t.Fatalf("part files = %d, want 8", len(parts))
	}
}
