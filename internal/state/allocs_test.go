//go:build !race

package state

import (
	"fmt"
	"runtime/debug"
	"testing"

	"repro/internal/storage/record"
)

// The race detector's instrumentation allocates, so this pin builds only
// without it; CI runs it in its non-race step.

// countWriter is a Writer that allocates nothing.
type countWriter struct{ puts, deletes int }

func (w *countWriter) Put(_, _ []byte) error { w.puts++; return nil }
func (w *countWriter) Delete(_ []byte) error { w.deletes++; return nil }

// The fold allocates per batch, never per record: each batch's arena, plus
// the []Record it reuses once per call — the same for batches of 10 records
// as of 1 000, compressed or not.
func TestApplyBatchesAllocs(t *testing.T) {
	const batches = 10
	for _, codec := range []record.Codec{record.CodecNone, record.CodecFlate} {
		for _, n := range []int{10, 1000} {
			var data []byte
			for b := 0; b < batches; b++ {
				recs := make([]record.Record, n)
				for i := range recs {
					recs[i] = record.Record{Key: fmt.Appendf(nil, "key-%d", i%97), Value: make([]byte, 100)}
				}
				sealed, err := record.Compress(record.EncodeBatch(int64(b*n), recs), codec)
				if err != nil {
					t.Fatal(err)
				}
				data = append(data, sealed...)
			}
			w := &countWriter{}
			// A collection during the runs can empty the inflater's pool;
			// the pin counts the fold's allocations, not the pool's refills.
			gc := debug.SetGCPercent(-1)
			allocs := testing.AllocsPerRun(20, func() {
				if next, _, err := ApplyBatches(w, data, 0); err != nil || next != int64(batches*n) {
					t.Fatalf("%s: next %d, %v", codec, next, err)
				}
			})
			debug.SetGCPercent(gc)
			if want := float64(batches + 1); allocs != want {
				t.Errorf("%s, %d records per batch: %v allocations per fold of %d batches, want %v", codec, n, allocs, batches, want)
			}
		}
	}
}
