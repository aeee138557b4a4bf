package state

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/storage/record"
)

// The record package's batch layout: the batch length at byte 8 counts the
// bytes after it, the CRC-32C at byte crcAt covers everything from byte
// crcFrom on, and records start at byte recordsAt.
const crcAt, crcFrom, recordsAt = 32, 36, 62

// fixCRC recomputes the CRC of a (possibly garbled) batch in place.
func fixCRC(b []byte) {
	binary.BigEndian.PutUint32(b[crcAt:], crc32.Checksum(b[crcFrom:], crc32.MakeTable(crc32.Castagnoli)))
}

// resealAll makes every batch of data whose length field fits pass its CRC,
// so a fuzz mutation reaches the record parse behind the checksum.
func resealAll(data []byte) []byte {
	out := append([]byte(nil), data...)
	for pos := 0; pos+recordsAt <= len(out); {
		n := int(int32(binary.BigEndian.Uint32(out[pos+8:]))) + 12
		if n < recordsAt || pos+n > len(out) {
			break
		}
		fixCRC(out[pos : pos+n])
		pos += n
	}
	return out
}

// op is one write the fold made: a put of value, or a delete.
type op struct {
	key, value string
	del        bool
}

// opLog is a Writer that records what it is told.
type opLog []op

func (l *opLog) Put(k, v []byte) error {
	*l = append(*l, op{key: string(k), value: string(v)})
	return nil
}

func (l *opLog) Delete(k []byte) error {
	*l = append(*l, op{key: string(k), del: true})
	return nil
}

// referenceWalk is the fold's contract written over record.DecodeBatch:
// the records at or past the running offset of every whole batch up to the
// first that fails to decode, the offset after the last of them, and
// whether the fold must report an error.
func referenceWalk(data []byte, from int64) (ops opLog, next int64, failed bool) {
	next = from
	for rest := data; len(rest) > 0; {
		b, size, err := record.DecodeBatch(rest)
		if errors.Is(err, record.ErrShort) {
			break
		}
		if err != nil {
			return ops, next, true
		}
		for _, r := range b.Records {
			if r.Offset < next {
				continue
			}
			if r.Value == nil {
				ops.Delete(r.Key)
			} else {
				ops.Put(r.Key, r.Value)
			}
			next = r.Offset + 1
		}
		rest = rest[size:]
	}
	return ops, next, next == from && len(data) > 0
}

// foldSeeds are whole logs for the fold: both codecs, tombstones, nil keys,
// headers, several batches, and garbled variants — a CRC-valid batch whose
// last record does not parse, a failed CRC, a cut tail.
func foldSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, codec := range []record.Codec{record.CodecNone, record.CodecFlate} {
		var log []byte
		base := int64(0)
		for i := 0; i < 3; i++ {
			recs := []record.Record{
				{Key: fmt.Appendf(nil, "k%d", i), Value: []byte("v"), Timestamp: 5},
				{Key: fmt.Appendf(nil, "k%d", i+1), Timestamp: 6},
				{Value: []byte("nil key"), Timestamp: 7},
				{Key: []byte("k0"), Value: []byte{}, Headers: []record.Header{{Key: "h", Value: []byte("x")}}},
			}
			batch, err := record.Compress(record.EncodeBatch(base, recs), codec)
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, batch...)
			base += int64(len(recs))
		}
		seeds = append(seeds, log)
		garbled := record.EncodeBatch(base, []record.Record{{Key: []byte("a"), Value: []byte("b")}, {Key: []byte("c")}})
		binary.BigEndian.PutUint32(garbled[len(garbled)-4:], 0x7fffffff)
		fixCRC(garbled)
		if garbled, err := record.Compress(garbled, codec); err == nil {
			seeds = append(seeds, append(append([]byte(nil), log...), garbled...))
		}
		crc := append([]byte(nil), log...)
		crc[len(crc)-1] ^= 1
		seeds = append(seeds, crc, log[:len(log)-3])
	}
	return seeds
}

// FuzzApplyBatches holds the changelog fold to its contract on arbitrary
// bytes: it never panics and always returns, the writer receives exactly
// the records of the whole batches before the first one that fails, and
// next and the error agree with a reference walk over record.DecodeBatch.
// reseal re-CRCs the mutated batches so mutations reach the record parse.
func FuzzApplyBatches(f *testing.F) {
	for _, s := range foldSeeds(f) {
		f.Add(s, int64(0), false)
		f.Add(s, int64(2), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, from int64, reseal bool) {
		if reseal {
			data = resealAll(data)
		}
		wantOps, wantNext, wantFail := referenceWalk(data, from)
		var got opLog
		next, n, err := ApplyBatches(&got, data, from)
		if !reflect.DeepEqual(got, wantOps) {
			t.Fatalf("writer got %d ops %v, want %d %v", len(got), got, len(wantOps), wantOps)
		}
		if next != wantNext || n != len(wantOps) || (err != nil) != wantFail {
			t.Fatalf("next %d, n %d, err %v; want next %d, n %d, failure %v", next, n, err, wantNext, len(wantOps), wantFail)
		}
		if err != nil && !errors.Is(err, record.ErrCorrupt) {
			t.Fatalf("fold error %v is not record.ErrCorrupt", err)
		}
	})
}

// TestApplyBatchesStopsBeforeGarbledBatch: the batches before a CRC-valid
// batch with a garbled record are applied, no record of it is, and next is
// its base offset; records below from are skipped, and bytes that apply no
// record are corruption.
func TestApplyBatchesStopsBeforeGarbledBatch(t *testing.T) {
	first := record.EncodeBatch(0, []record.Record{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}})
	bad := record.EncodeBatch(2, []record.Record{{Key: []byte("a")}, {Key: []byte("c"), Value: []byte("3")}})
	binary.BigEndian.PutUint32(bad[len(bad)-4:], 0x7fffffff)
	fixCRC(bad)

	var got opLog
	next, n, err := ApplyBatches(&got, append(append([]byte(nil), first...), bad...), 1)
	want := opLog{{key: "b", value: "2"}}
	if !errors.Is(err, record.ErrCorrupt) || next != 2 || n != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("got ops %v, next %d, n %d, err %v; want %v, next 2, n 1, ErrCorrupt", got, next, n, err, want)
	}
	for _, data := range [][]byte{first[:len(first)-1], first} {
		if next, _, err := ApplyBatches(&got, data, 2); !errors.Is(err, record.ErrCorrupt) || next != 2 {
			t.Fatalf("%d bytes applying nothing from 2: next %d, err %v; want 2, ErrCorrupt", len(data), next, err)
		}
	}
	if next, n, err := ApplyBatches(&got, nil, 7); err != nil || next != 7 || n != 0 {
		t.Fatalf("empty data: next %d, n %d, err %v; want 7, 0, nil", next, n, err)
	}
}
