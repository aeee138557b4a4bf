package record

import (
	"fmt"
	"testing"
)

// makeRecords builds n records with small keys and payload-byte values.
func makeRecords(n, valueBytes int) []Record {
	value := make([]byte, valueBytes)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Timestamp: int64(1000 + i),
			Key:       []byte(fmt.Sprintf("key-%d", i%64)),
			Value:     value,
		}
	}
	return recs
}

func BenchmarkEncodeBatch(b *testing.B) {
	recs := makeRecords(64, 512)
	b.ReportAllocs()
	b.SetBytes(64 * 512)
	for i := 0; i < b.N; i++ {
		EncodeBatch(0, recs)
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	buf := EncodeBatch(0, makeRecords(64, 512))
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeekBatchInfo(b *testing.B) {
	buf := EncodeBatch(0, makeRecords(64, 512))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PeekBatchInfo(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanRecords(b *testing.B) {
	buf := EncodeBatch(0, makeRecords(64, 512))
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		n := 0
		ScanRecords(buf, func(Record) error {
			n++
			return nil
		})
		if n != 64 {
			b.Fatal("wrong count")
		}
	}
}

func BenchmarkEncodeBatchInto(b *testing.B) {
	recs := makeRecords(64, 512)
	buf := make([]byte, 0, 64<<10)
	b.ReportAllocs()
	b.SetBytes(64 * 512)
	for i := 0; i < b.N; i++ {
		buf = EncodeBatchInto(buf[:0], 0, recs)
	}
}

func BenchmarkCheckBatch(b *testing.B) {
	buf := EncodeBatch(0, makeRecords(64, 512))
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, err := CheckBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCompressible builds records whose values compress well (repetitive
// log lines).
func benchCompressible(n, valueBytes int) []Record {
	value := make([]byte, valueBytes)
	for i := range value {
		value[i] = "timestamp=2015-01-04 level=INFO service=liquid msg=ok "[i%52]
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Timestamp: int64(1000 + i), Value: value}
	}
	return recs
}

func BenchmarkCompressFlate(b *testing.B) {
	buf := EncodeBatch(0, benchCompressible(64, 512))
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, err := Compress(buf, CodecFlate); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeCompressedBatch(b *testing.B) {
	plain := EncodeBatch(0, benchCompressible(64, 512))
	sealed, err := Compress(plain, CodecFlate)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(plain)))
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBatch(sealed); err != nil {
			b.Fatal(err)
		}
	}
}
