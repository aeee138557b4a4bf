package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
)

// E2ThroughputVsLogSize validates §4.1: append and tail-read throughput of
// the commit log stay constant as the log grows (the property that makes
// long retention cheap).
func E2ThroughputVsLogSize(scale Scale) Table {
	t := Table{
		ID:      "E2",
		Title:   "read/write throughput vs log size",
		Claim:   "§4.1: throughput remains constant independent of log size",
		Headers: []string{"log size (MB)", "append MB/s", "tail-read MB/s"},
	}
	sizesMB := []int{16, 64, 128, 256}
	if scale.Quick {
		sizesMB = []int{4, 16}
	}
	const recordBytes = 1024
	value := make([]byte, recordBytes)
	dir, err := os.MkdirTemp("", "e2-")
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer os.RemoveAll(dir)
	l, err := log.Open(dir, log.Config{SegmentBytes: 32 << 20, RetentionMs: -1, RetentionBytes: -1})
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer l.Close()

	var written int64
	batch := make([]record.Record, 64)
	for _, sizeMB := range sizesMB {
		target := int64(sizeMB) << 20
		// Grow the log to the target while timing the appends.
		start := time.Now()
		var grew int64
		for written < target {
			for i := range batch {
				batch[i] = record.Record{Timestamp: 1, Value: value}
			}
			if _, err := l.Append(batch); err != nil {
				t.Notes = append(t.Notes, "append failed: "+err.Error())
				return t
			}
			written += int64(len(batch) * recordBytes)
			grew += int64(len(batch) * recordBytes)
		}
		appendRate := mbPerSec(grew, time.Since(start))

		// Quiesce OS write-back so read timing is not charged for
		// flushing the data just written.
		if err := l.Flush(); err != nil {
			t.Notes = append(t.Notes, "flush failed: "+err.Error())
			return t
		}

		// Tail read: the last ~4MB of the log.
		tail := int64(4 << 20)
		startOffset := l.NextOffset() - tail/recordBytes
		start = time.Now()
		var readBytes int64
		off := startOffset
		for off < l.NextOffset() {
			data, err := l.Read(off, 1<<20)
			if err != nil || len(data) == 0 {
				break
			}
			readBytes += int64(len(data))
			info, err := record.PeekBatchInfo(data[len(data)-lastBatchLen(data):])
			if err != nil {
				break
			}
			off = info.LastOffset + 1
		}
		readRate := mbPerSec(readBytes, time.Since(start))
		t.Rows = append(t.Rows, []string{fmt.Sprint(sizeMB), appendRate, readRate})
	}
	t.Notes = append(t.Notes, "expected shape: both columns roughly flat across sizes")
	return t
}

// lastBatchLen returns the length of the final complete batch in data.
func lastBatchLen(data []byte) int {
	pos, last := 0, 0
	for pos < len(data) {
		n, err := record.PeekBatchLen(data[pos:])
		if err != nil {
			break
		}
		last = n
		pos += n
	}
	return last
}

// E7AcksTradeoff validates §4.3's durability/performance trade-off across
// acknowledgement levels with replication factor 3.
func E7AcksTradeoff(scale Scale) Table {
	t := Table{
		ID:      "E7",
		Title:   "durability vs produce performance (RF=3)",
		Claim:   "§4.3: the chosen durability level impacts throughput and latency",
		Headers: []string{"acks", "mean ms", "p99 ms", "msgs/s"},
	}
	s, err := newStack(3, nil)
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer s.Shutdown()
	n := scale.pick(300, 2000)
	levels := []struct {
		name string
		acks int16
	}{
		{"0 (fire-and-forget)", client.AcksNone},
		{"1 (leader)", 1},
		{"all (full ISR)", client.AcksAll},
	}
	for li, lvl := range levels {
		topic := fmt.Sprintf("acks-%d", li)
		if err := s.CreateFeed(topic, 1, 3); err != nil {
			t.Notes = append(t.Notes, "failed: "+err.Error())
			return t
		}
		p := s.NewProducer(client.ProducerConfig{Acks: lvl.acks})
		var lat durations
		value := make([]byte, 512)
		start := time.Now()
		for i := 0; i < n; i++ {
			s0 := time.Now()
			if _, err := p.SendSync(client.Message{Topic: topic, Value: value}); err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("acks=%s produce error: %v", lvl.name, err))
				break
			}
			lat = append(lat, time.Since(s0))
		}
		total := time.Since(start)
		p.Close()
		t.Rows = append(t.Rows, []string{
			lvl.name, ms(lat.mean()), ms(lat.p(0.99)),
			fmt.Sprintf("%.0f", float64(len(lat))/total.Seconds()),
		})
	}
	t.Notes = append(t.Notes, "expected shape: latency rises (and throughput falls) from acks=0 to acks=all")
	return t
}
