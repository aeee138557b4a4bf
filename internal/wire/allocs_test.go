//go:build !race

package wire

import (
	"io"
	"testing"
)

// The race detector's instrumentation allocates, so these pins build only
// without it; CI runs them in its non-race step. They pin the operations
// behind the standing benchmark's wire.allocs_per_frame.

// sliceRange is an in-memory ByteRange, standing in for a segment file range
// on the zero-copy fetch path.
type sliceRange []byte

func (s sliceRange) Len() int64                         { return int64(len(s)) }
func (s sliceRange) WriteTo(w io.Writer) (int64, error) { n, err := w.Write(s); return int64(n), err }

// TestWriteFetchResponseFrameAllocatesNothing: the broker's hottest write,
// a fetch response carrying a record blob copied or spliced, allocates
// nothing per frame once the writer pool is warm.
func TestWriteFetchResponseFrameAllocatesNothing(t *testing.T) {
	buffered := benchFetchResponse()
	spliced := benchFetchResponse()
	p := &spliced.Topics[0].Partitions[0]
	p.RecordsRange, p.Records = sliceRange(p.Records), nil
	for name, resp := range map[string]*FetchResponse{"buffered": buffered, "spliced": spliced} {
		if err := WriteResponseFrame(io.Discard, 1, resp); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := WriteResponseFrame(io.Discard, 1, resp); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: WriteResponseFrame allocates %v per frame, want 0", name, allocs)
		}
	}
}

// TestDecodeProduceRequestAllocs: decoding a produce request allocates its
// Reader, the client id, the topic array, the topic name and the partition
// array — five, whatever the partition count, since the record blobs alias
// the frame.
func TestDecodeProduceRequestAllocs(t *testing.T) {
	hdr := &RequestHeader{API: APIProduce, CorrelationID: 1, ClientID: "benchmark"}
	for _, partitions := range []int{1, 12} {
		req := &ProduceRequest{RequiredAcks: 1, TimeoutMs: 5000, Topics: []ProduceTopic{{Name: "probe"}}}
		for i := 0; i < partitions; i++ {
			req.Topics[0].Partitions = append(req.Topics[0].Partitions,
				ProducePartition{Partition: int32(i), Records: make([]byte, 1024)})
		}
		payload := EncodeRequest(hdr, req)
		allocs := testing.AllocsPerRun(100, func() {
			_, r, err := DecodeRequest(payload)
			if err != nil {
				t.Fatal(err)
			}
			var got ProduceRequest
			got.Decode(r)
			if err := r.Done(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 5 {
			t.Errorf("%d partitions: produce request decode allocates %v, want 5", partitions, allocs)
		}
	}
}
