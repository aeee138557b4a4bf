package main

import (
	"time"

	"repro/internal/client"
)

// seqChecker verifies a stream of stamped values as a consumer delivers
// them: every value is the generator's, offsets are contiguous within a
// partition, sequence numbers rise within a partition (the writer is one
// goroutine and a partition is a total order), and — when the first
// expected sequence number is known — each record is delivered exactly
// once.
type seqChecker struct {
	pool  *valuePool
	parts []partState
	first int64  // sequence number bit 0 of seen stands for; -1 to not track
	seen  []byte // one bit per sequence number from first

	received int64
	bad      int64 // corrupt, out of order, gapped or duplicated records
}

type partState struct {
	started    bool
	nextOffset int64
	lastSeq    int64
}

func newSeqChecker(pool *valuePool, partitions int32, firstSeq int64) *seqChecker {
	return &seqChecker{pool: pool, parts: make([]partState, partitions), first: firstSeq}
}

// observe checks one delivered message and returns the due time it carries.
func (c *seqChecker) observe(m *client.Message) (seq int64, due time.Duration) {
	c.received++
	seq, due, ok := c.pool.check(m.Value)
	p := &c.parts[m.Partition]
	if p.started && (m.Offset != p.nextOffset || seq <= p.lastSeq) {
		ok = false
	}
	p.started, p.nextOffset, p.lastSeq = true, m.Offset+1, seq
	if ok && c.first >= 0 {
		i := seq - c.first
		if i < 0 {
			ok = false
		} else {
			for int64(len(c.seen))*8 <= i {
				c.seen = append(c.seen, make([]byte, 1<<14)...)
			}
			if c.seen[i/8]&(1<<(i%8)) != 0 {
				ok = false // delivered twice
			}
			c.seen[i/8] |= 1 << (i % 8)
		}
	}
	if !ok {
		c.bad++
	}
	return seq, due
}

// missing counts the sequence numbers in [first, next) never delivered.
func (c *seqChecker) missing(next int64) int64 {
	var n int64
	for i := int64(0); i < next-c.first; i++ {
		if i/8 >= int64(len(c.seen)) || c.seen[i/8]&(1<<(i%8)) == 0 {
			n++
		}
	}
	return n
}
