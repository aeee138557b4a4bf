//go:build !race

package mapreduce

import (
	"strconv"
	"testing"
)

// The race detector's instrumentation allocates, so these pins build only
// without it; CI runs them in its non-race step.

// EncodeLines sizes its output once: one allocation whatever the count.
func TestEncodeLinesAllocatesOnce(t *testing.T) {
	for _, n := range []int{1, 1000} {
		recs := make([]KV, n)
		for i := range recs {
			recs[i] = KV{Key: "page-" + strconv.Itoa(i), Value: "1"}
		}
		if allocs := testing.AllocsPerRun(20, func() { EncodeLines(recs) }); allocs != 1 {
			t.Errorf("%d records: %v allocations per EncodeLines, want 1", n, allocs)
		}
	}
}

// A map task's emit allocates nothing once its partitions have grown (the
// warm-up run): routing a record costs no more than the append.
func TestEmitAllocatesNothing(t *testing.T) {
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = "page-" + strconv.Itoa(i)
	}
	parts := make(partitions, 4)
	allocs := testing.AllocsPerRun(20, func() {
		for p := range parts {
			parts[p] = parts[p][:0]
		}
		for _, k := range keys {
			parts.emit(k, "1")
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per 1000 emits, want none", allocs)
	}
}
