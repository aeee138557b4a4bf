//go:build !race

package archive

import (
	"testing"

	"repro/internal/client"
	"repro/internal/storage/record"
)

// The race detector's instrumentation allocates, so this pin builds only
// without it; CI runs it in its non-race step.

// DecodeKV allocates per segment and per batch — the []KV and the []Record
// it decodes batches into, each batch's arena and its one string of keys and
// values — never per record: a segment of batches of 1 000 records costs
// what one of batches of 10 does.
func TestDecodeKVAllocsIndependentOfRecordCount(t *testing.T) {
	for _, codec := range []record.Codec{record.CodecNone, record.CodecFlate} {
		var allocs [2]float64
		for i, per := range []int{10, 1000} {
			var batches []client.Batch
			for b := 0; b < 3; b++ {
				batches = append(batches, feedBatches(t, codec, int64(b*per), per, per)...)
			}
			data := concat(batches)
			allocs[i] = testing.AllocsPerRun(20, func() {
				if kvs, err := DecodeKV(data); err != nil || len(kvs) != 3*per {
					t.Fatalf("%s: DecodeKV: %d records, %v", codec, len(kvs), err)
				}
			})
		}
		if allocs[0] != allocs[1] || allocs[1] > 2+2*3 {
			t.Errorf("%s: %v allocations per DecodeKV of 3 batches of 10 records, %v of 1 000; want the same, at most 8", codec, allocs[0], allocs[1])
		}
	}
}
