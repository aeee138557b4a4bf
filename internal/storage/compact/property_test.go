package compact

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/storage/log"
	"repro/internal/storage/record"
)

// TestQuickCompactionPreservesLatestState property-checks the core
// compaction invariant over random keyed workloads: replaying the log
// after compaction yields exactly the same final key->value state as
// before, and the log end offset never moves.
func TestQuickCompactionPreservesLatestState(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		ops := int(opsRaw%2000) + 50
		dir, err := os.MkdirTemp("", "cprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		l, err := log.Open(dir, log.Config{SegmentBytes: 2 << 10, Compacted: true})
		if err != nil {
			return false
		}
		defer l.Close()

		rng := rand.New(rand.NewSource(seed))
		keys := rng.Intn(30) + 1
		for i := 0; i < ops; i++ {
			key := []byte(fmt.Sprintf("k%d", rng.Intn(keys)))
			var value []byte
			if rng.Intn(10) != 0 { // 10% tombstones
				value = []byte(fmt.Sprintf("v%d", i))
			}
			if _, err := l.Append([]record.Record{{Timestamp: 1, Key: key, Value: value}}); err != nil {
				return false
			}
		}
		replay := func() (map[string]string, bool) {
			state := make(map[string]string)
			off := l.StartOffset()
			for {
				data, err := l.Read(off, 1<<20)
				if err != nil {
					return nil, false
				}
				if len(data) == 0 {
					return state, true
				}
				record.ScanRecords(data, func(r record.Record) error {
					if r.Offset < off {
						return nil
					}
					off = r.Offset + 1
					if r.Value == nil {
						delete(state, string(r.Key))
					} else {
						state[string(r.Key)] = string(r.Value)
					}
					return nil
				})
			}
		}
		before, ok := replay()
		if !ok {
			return false
		}
		end := l.NextOffset()
		if _, err := Compact(l, l.NextOffset()); err != nil {
			return false
		}
		after, ok := replay()
		if !ok {
			return false
		}
		if l.NextOffset() != end {
			return false
		}
		if len(before) != len(after) {
			return false
		}
		for k, v := range before {
			if after[k] != v {
				return false
			}
		}
		// A second pass is a fixed point for state.
		if _, err := Compact(l, l.NextOffset()); err != nil {
			return false
		}
		again, ok := replay()
		if !ok || len(again) != len(after) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionUnderConcurrentAppends runs the cleaner while a writer
// keeps appending: no error, no state corruption.
func TestCompactionUnderConcurrentAppends(t *testing.T) {
	l, err := log.Open(t.TempDir(), log.Config{SegmentBytes: 2 << 10, Compacted: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			l.Append([]record.Record{{
				Timestamp: 1,
				Key:       []byte(fmt.Sprintf("k%d", i%16)),
				Value:     []byte(fmt.Sprintf("v%d", i)),
			}})
			i++
		}
	}()
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := Compact(l, l.NextOffset()); err != nil {
			t.Fatalf("compact during appends: %v", err)
		}
	}
	close(stop)
	<-done
	// Log is still consistent: monotone offsets on full replay.
	off := l.StartOffset()
	for {
		data, err := l.Read(off, 1<<20)
		if err != nil {
			t.Fatalf("read after concurrent compaction: %v", err)
		}
		if len(data) == 0 {
			break
		}
		err = record.ScanRecords(data, func(r record.Record) error {
			if r.Offset >= off {
				off = r.Offset + 1
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
