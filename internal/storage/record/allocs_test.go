//go:build !race

package record

import "testing"

// The race detector's instrumentation allocates, so these pins build only
// without it; CI runs them in its non-race step.

// DecodeBatch allocates per batch — the arena and the []Record — never per
// record, and inflating allocates nothing once the inflater pool is warm:
// two allocations, for 10 records as for 1 000, compressed or not.
func TestDecodeBatchAllocsIndependentOfRecordCount(t *testing.T) {
	for _, codec := range allCodecs {
		for _, n := range []int{10, 1000} {
			sealed := seal(t, EncodeBatch(0, benchCompressible(n, 100)), codec)
			allocs := testing.AllocsPerRun(50, func() {
				if b, _, err := DecodeBatch(sealed); err != nil || len(b.Records) != n {
					t.Fatalf("%s: DecodeBatch: %d records, %v", codec, len(b.Records), err)
				}
			})
			if allocs != 2 {
				t.Errorf("%s, %d records: %v allocations per DecodeBatch, want 2", codec, n, allocs)
			}
		}
	}
}

// DecodeRecords is DecodeBatch without the []Record: decoding a batch and
// walking every record allocates the arena alone.
func TestDecodeRecordsAllocatesTheArenaAlone(t *testing.T) {
	for _, codec := range allCodecs {
		for _, n := range []int{10, 1000} {
			sealed := seal(t, EncodeBatch(0, benchCompressible(n, 100)), codec)
			var r Record
			allocs := testing.AllocsPerRun(50, func() {
				rs, _, err := DecodeRecords(sealed)
				for err == nil && rs.Len() > 0 {
					err = rs.Next(&r)
				}
				if err != nil {
					t.Fatalf("%s: %v", codec, err)
				}
			})
			if allocs != 1 {
				t.Errorf("%s, %d records: %v allocations per decode, want 1", codec, n, allocs)
			}
		}
	}
}

// The leader's produce-path validation only looks at the inflated bytes: it
// inflates into the pooled scratch with the pooled tables, walks it and,
// once the pool is warm, allocates nothing.
func TestValidateBatchCompressedAllocatesNothing(t *testing.T) {
	for _, n := range []int{10, 1000} {
		sealed := seal(t, EncodeBatch(0, benchCompressible(n, 100)), CodecFlate)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := ValidateBatch(sealed); err != nil {
				t.Fatalf("ValidateBatch: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("%d records: %v allocations per ValidateBatch, want none", n, allocs)
		}
	}
}
