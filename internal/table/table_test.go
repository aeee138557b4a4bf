package table

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/state"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// fakeSource is an in-memory committed log for materializer tests: batches
// are appended under a lock, readers see everything at or above `earliest`,
// and Notify wakes the tailer exactly like the broker's replica does.
type fakeSource struct {
	mu       sync.Mutex
	batches  [][]byte // encoded batches, in offset order
	bases    []int64  // base offset per batch
	hw       int64
	earliest int64
	code     wire.ErrorCode // forced error, ErrNone = healthy
	notify   chan struct{}
	idle     chan int64 // if set, receives the offset of each empty read
}

func newFakeSource() *fakeSource {
	return &fakeSource{notify: make(chan struct{})}
}

// append encodes one batch of records at the current end of the log and
// advances the high watermark past it.
func (f *fakeSource) append(recs ...record.Record) {
	f.raiseHW(recs...)
	f.mu.Lock()
	defer f.mu.Unlock()
	close(f.notify)
	f.notify = make(chan struct{})
}

// raiseHW is append without the wake-up: the window between an acked write
// raising the HW and the materializer noticing it.
func (f *fakeSource) raiseHW(recs ...record.Record) {
	f.mu.Lock()
	defer f.mu.Unlock()
	base := f.hw
	for i := range recs {
		recs[i].Offset = base + int64(i)
	}
	f.batches = append(f.batches, record.EncodeBatch(base, recs))
	f.bases = append(f.bases, base)
	f.hw = base + int64(len(recs))
}

// compactTo drops batches entirely below offset, advancing earliest — the
// log-start jump a compaction or a retention sweep produces.
func (f *fakeSource) compactTo(offset int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keep := 0
	for i, b := range f.batches {
		batch, _, err := record.DecodeBatch(b)
		if err != nil {
			panic(err)
		}
		if batch.LastOffset() < offset {
			keep = i + 1
		}
	}
	f.batches = f.batches[keep:]
	f.bases = f.bases[keep:]
	f.earliest = offset
	close(f.notify)
	f.notify = make(chan struct{})
}

func (f *fakeSource) fail(code wire.ErrorCode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.code = code
	close(f.notify)
	f.notify = make(chan struct{})
}

func (f *fakeSource) ReadCommitted(offset int64, maxBytes int) ([]byte, int64, int64, wire.ErrorCode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.code != wire.ErrNone {
		return nil, f.hw, f.earliest, f.code
	}
	if offset < f.earliest {
		return nil, f.hw, f.earliest, wire.ErrOffsetOutOfRange
	}
	var out []byte
	for i, b := range f.batches {
		batch, _, err := record.DecodeBatch(b)
		if err != nil {
			panic(err)
		}
		if batch.LastOffset() < offset || f.bases[i] >= f.hw {
			continue
		}
		if len(out) > 0 && len(out)+len(b) > maxBytes {
			break
		}
		out = append(out, b...)
	}
	if len(out) == 0 && f.idle != nil {
		select {
		case f.idle <- offset:
		default:
		}
	}
	return out, f.hw, f.earliest, wire.ErrNone
}

func (f *fakeSource) Notify() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.notify
}

func (f *fakeSource) HighWatermark() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hw
}

// awaitApplied blocks until the partition has applied through hw (lag 0) or
// the deadline passes.
func awaitApplied(t *testing.T, p *Partition, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		applied, _ := p.Freshness()
		if applied >= want {
			return
		}
		if err := p.Err(); err != nil {
			t.Fatalf("materializer failed while waiting for offset %d: %v", want, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("applied %d never reached %d", applied, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func rec(key, value string) record.Record {
	r := record.Record{Key: []byte(key)}
	if value != "" {
		r.Value = []byte(value)
	}
	return r
}

func TestPartitionMaterializesChangelog(t *testing.T) {
	src := newFakeSource()
	src.append(rec("a", "1"), rec("b", "1"), rec("c", "1"))
	p := NewPartition(src, state.NewMem(), nil)
	defer p.Close()
	awaitApplied(t, p, 3)

	// Upserts, overwrites and tombstones arriving after bootstrap.
	src.append(rec("b", "2"), rec("a", "")) // overwrite b, delete a
	src.append(rec("d", "1"))
	awaitApplied(t, p, 6)

	if v, ok, _ := p.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("b = %q %v, want overwrite to 2", v, ok)
	}
	if _, ok, _ := p.Get([]byte("a")); ok {
		t.Fatal("tombstoned key a still visible")
	}
	if v, ok, _ := p.Get([]byte("d")); !ok || string(v) != "1" {
		t.Fatalf("d = %q %v", v, ok)
	}
	if got := p.ApproxLen(); got != 3 {
		t.Fatalf("ApproxLen = %d, want 3 (b, c, d)", got)
	}
	applied, hw := p.Freshness()
	if applied != 6 || hw != 6 {
		t.Fatalf("freshness = %d/%d, want 6/6", applied, hw)
	}

	var keys []string
	if err := p.Range(nil, nil, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != fmt.Sprint([]string{"b", "c", "d"}) {
		t.Fatalf("Range keys = %v", keys)
	}
}

// TestFreshnessReadsLiveHighWatermark pins the read-your-acked-writes
// rule: a write raises the HW before the parked materializer wakes, and in
// that window Freshness must report lag rather than the stale view as
// caught up.
func TestFreshnessReadsLiveHighWatermark(t *testing.T) {
	src := newFakeSource()
	src.idle = make(chan int64, 1)
	src.append(rec("a", "1"), rec("b", "1"), rec("c", "1"))
	p := NewPartition(src, state.NewMem(), nil)
	defer p.Close()
	// The first empty read at offset 3 comes after applying 0..2: the
	// materializer is parked on Notify with applied == hw == 3.
	for o := range src.idle {
		if o == 3 {
			break
		}
	}
	if applied, hw := p.Freshness(); applied != 3 || hw != 3 {
		t.Fatalf("parked freshness = %d/%d, want 3/3", applied, hw)
	}
	src.raiseHW(rec("a", "2"), rec("b", "2"))
	if applied, hw := p.Freshness(); applied != 3 || hw != 5 {
		t.Fatalf("freshness after an unnoticed write = %d/%d, want 3/5", applied, hw)
	}
}

// TestPartitionJumpsCompactedPrefix pins the bootstrap-vs-compaction rule:
// when the log start has advanced past the materializer's position, it must
// jump to earliest and keep going — a compacted log only drops superseded
// records, so the state at earliest subsumes the dropped prefix.
func TestPartitionJumpsCompactedPrefix(t *testing.T) {
	src := newFakeSource()
	src.append(rec("a", "old"), rec("b", "old"))
	src.append(rec("a", "new"), rec("b", "new"))
	// Compaction dropped the first batch before the materializer started.
	src.compactTo(2)

	p := NewPartition(src, state.NewMem(), nil)
	defer p.Close()
	awaitApplied(t, p, 4)
	if v, ok, _ := p.Get([]byte("a")); !ok || string(v) != "new" {
		t.Fatalf("a = %q %v after prefix jump", v, ok)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("healthy materializer reports %v", err)
	}
}

// TestPartitionTerminalOnLeadershipLoss pins the failure contract the
// broker's detach path relies on: a non-retriable read error ends the loop
// and surfaces through Err, and Close still returns cleanly afterwards.
func TestPartitionTerminalOnLeadershipLoss(t *testing.T) {
	src := newFakeSource()
	src.append(rec("a", "1"))
	p := NewPartition(src, state.NewMem(), nil)
	awaitApplied(t, p, 1)

	src.fail(wire.ErrNotLeaderForPartition)
	deadline := time.Now().Add(10 * time.Second)
	for p.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("materializer never turned terminal after leadership loss")
		}
		time.Sleep(time.Millisecond)
	}
	if code := wire.Code(p.Err()); code != wire.ErrNotLeaderForPartition {
		t.Fatalf("terminal error = %v, want not-leader", p.Err())
	}
	// The last applied state stays readable until the broker detaches.
	if v, ok, _ := p.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("a = %q %v after terminal failure", v, ok)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close after terminal failure: %v", err)
	}
}

func TestPartitionCloseStopsTailer(t *testing.T) {
	src := newFakeSource()
	p := NewPartition(src, state.NewMem(), nil)
	done := make(chan error, 1)
	go func() { done <- p.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle tailer")
	}
	// Idempotent.
	if err := p.Close(); !errors.Is(err, state.ErrClosed) && err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestHashKeyRange(t *testing.T) {
	for _, n := range []int32{1, 2, 8, 64} {
		for i := 0; i < 200; i++ {
			key := []byte(fmt.Sprintf("key-%d", i))
			p := HashKey(key, n)
			if p < 0 || p >= n {
				t.Fatalf("HashKey(%q, %d) = %d out of range", key, n, p)
			}
		}
	}
	if a, b := HashKey([]byte("x"), 8), HashKey([]byte("x"), 8); a != b {
		t.Fatalf("HashKey not deterministic: %d vs %d", a, b)
	}
}

func TestCodecs(t *testing.T) {
	sc := StringCodec()
	b, err := sc.Encode("hello")
	if err != nil || string(b) != "hello" {
		t.Fatalf("string encode = %q %v", b, err)
	}
	s, err := sc.Decode(b)
	if err != nil || s != "hello" {
		t.Fatalf("string decode = %q %v", s, err)
	}

	bc := BytesCodec()
	raw := []byte{0, 1, 2}
	eb, err := bc.Encode(raw)
	if err != nil || !bytes.Equal(eb, raw) {
		t.Fatalf("bytes encode = %v %v", eb, err)
	}

	type profile struct {
		Name  string `json:"name"`
		Views int    `json:"views"`
	}
	jc := JSONCodec[profile]()
	in := profile{Name: "ada", Views: 7}
	jb, err := jc.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := jc.Decode(jb)
	if err != nil || out != in {
		t.Fatalf("json round trip = %+v %v", out, err)
	}
}
