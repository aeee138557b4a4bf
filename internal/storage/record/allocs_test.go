//go:build !race

package record

import (
	"bytes"
	"compress/flate"
	"io"
	"testing"
)

// The race detector's instrumentation allocates, so these pins build only
// without it; CI runs them in its non-race step.

// stdlibInflateAllocs is the floor no caller can get under: what
// compress/flate itself allocates per inflation of region (Huffman link
// tables, for alphabets that need codes longer than 9 bits) when its reader,
// its source and its destination are all reused.
func stdlibInflateAllocs(t *testing.T, region []byte) float64 {
	var src bytes.Reader
	fr := flate.NewReader(&src)
	dst := make([]byte, 1<<20)
	return testing.AllocsPerRun(50, func() {
		src.Reset(region)
		err := fr.(flate.Resetter).Reset(&src, nil)
		for err == nil {
			_, err = fr.Read(dst)
		}
		if err != io.EOF {
			t.Fatal(err)
		}
	})
}

// DecodeBatch allocates per batch — the arena and the []Record — never per
// record: two allocations over the inflater's floor, for 10 records as for
// 1 000.
func TestDecodeBatchAllocsIndependentOfRecordCount(t *testing.T) {
	for _, codec := range allCodecs {
		for _, n := range []int{10, 1000} {
			sealed := seal(t, EncodeBatch(0, benchCompressible(n, 100)), codec)
			var floor float64
			if codec != CodecNone {
				floor = stdlibInflateAllocs(t, sealed[batchHeaderLen:])
			}
			allocs := testing.AllocsPerRun(50, func() {
				if b, _, err := DecodeBatch(sealed); err != nil || len(b.Records) != n {
					t.Fatalf("%s: DecodeBatch: %d records, %v", codec, len(b.Records), err)
				}
			})
			if allocs != floor+2 {
				t.Errorf("%s, %d records: %v allocations per DecodeBatch over a floor of %v, want 2 more", codec, n, allocs, floor)
			}
		}
	}
}

// The leader's produce-path validation only looks at the inflated bytes: it
// walks the pooled scratch and, once the pool is warm, allocates nothing of
// its own.
func TestValidateBatchCompressedAllocatesNothing(t *testing.T) {
	sealed := seal(t, EncodeBatch(0, benchCompressible(1000, 100)), CodecFlate)
	floor := stdlibInflateAllocs(t, sealed[batchHeaderLen:])
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ValidateBatch(sealed); err != nil {
			t.Fatalf("ValidateBatch: %v", err)
		}
	})
	if allocs != floor {
		t.Errorf("%v allocations per ValidateBatch over a floor of %v, want none of its own", allocs, floor)
	}
}
