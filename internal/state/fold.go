package state

import (
	"fmt"
	"slices"

	"repro/internal/storage/record"
)

// ApplyBatches folds the whole batches in data into w by the changelog rule
// that tables, store restore and the broker's offset manager share: the
// latest value per key wins, and a nil value deletes. Records below from
// (the head of a batch a read started inside) are skipped. It returns the
// offset after the last applied record (from if none was) and the number
// of records applied.
//
// A batch is applied whole or not at all: each is decoded completely, into
// a []Record reused across the call, before w sees any of its records. The
// fold stops at the first batch that fails its CRC, its inflation or a
// record parse, with next at that batch's start: w holds exactly the
// batches before it. A trailing partial batch ends the fold, as at a fetch
// boundary, but non-empty data that applies no record is corruption, so a
// read loop over the fold always advances or stops. An error from w stops
// the fold inside its batch.
func ApplyBatches(w Writer, data []byte, from int64) (next int64, n int, err error) {
	next = from
	var recs []record.Record
	for rest := data; len(rest) > 0; {
		rs, size, err := record.DecodeRecords(rest)
		if err == record.ErrShort {
			break
		}
		if err == nil {
			recs = slices.Grow(recs[:0], rs.Len())[:rs.Len()]
			for i := 0; i < len(recs) && err == nil; i++ {
				err = rs.Next(&recs[i])
			}
		}
		if err != nil {
			return next, n, err
		}
		for i := range recs {
			r := &recs[i]
			if r.Offset < next {
				continue
			}
			if r.Value == nil {
				err = w.Delete(r.Key)
			} else {
				err = w.Put(r.Key, r.Value)
			}
			if err != nil {
				return next, n, err
			}
			next, n = r.Offset+1, n+1
		}
		rest = rest[size:]
	}
	if next == from && len(data) > 0 {
		return next, n, fmt.Errorf("%w: no record applied at offset %d", record.ErrCorrupt, from)
	}
	return next, n, nil
}
