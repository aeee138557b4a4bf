package state

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// mergeAt is the run count past which a checkpoint merges the runs into one.
const mergeAt = 4

// checkpointName is the file that names a store's durable state.
const checkpointName = "CHECKPOINT"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// KV is a persistent log-structured store, the RocksDB stand-in of the
// processing layer (paper §4.4). Writes land in a memtable; reads consult
// the memtable, then the immutable sorted runs newest first. The disk
// changes only at a Checkpoint, which makes the store's contents a cache of
// its changelog's prefix: the runs a checkpoint file names hold the fold of
// the changelog below the offset it records, and nothing else on disk is
// trusted.
type KV struct {
	dir string

	mu       sync.RWMutex
	mem      map[string][]byte // nil value = tombstone, as in runs
	runs     []*run            // oldest first
	offset   int64             // the changelog offset the runs cover
	nextRun  int
	closed   bool
	liveKeys int
}

// OpenKV opens or creates a persistent store in dir, loading exactly the
// runs its checkpoint names and deleting every other run and tmp file. With
// no checkpoint, or one that fails its CRC or names a run that does not
// load, the store opens empty at offset 0: the changelog still holds
// everything.
func OpenKV(dir string) (*KV, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	kv := &KV{dir: dir, mem: make(map[string][]byte)}
	offset, nums, err := readCheckpoint(dir)
	for i := 0; err == nil && i < len(nums); i++ {
		var r *run
		if r, err = openRun(dir, nums[i]); err == nil {
			kv.runs = append(kv.runs, r)
			kv.nextRun = nums[i] + 1
		}
	}
	if err != nil {
		kv.runs, kv.nextRun = nil, 0
	} else {
		kv.offset = offset
	}
	if err := kv.sweep(); err != nil {
		return nil, err
	}
	for _, v := range kv.merged() {
		if v != nil {
			kv.liveKeys++
		}
	}
	return kv, nil
}

// merged is the store's view, the memtable over the runs newest first;
// tombstones are nil values. The caller holds kv.mu.
func (kv *KV) merged() map[string][]byte {
	latest := maps.Clone(kv.mem)
	for i := len(kv.runs) - 1; i >= 0; i-- {
		for _, e := range kv.runs[i].entries {
			if _, ok := latest[string(e.key)]; !ok {
				latest[string(e.key)] = e.value
			}
		}
	}
	return latest
}

// Get implements Store.
func (kv *KV) Get(key []byte) ([]byte, bool, error) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if kv.closed {
		return nil, false, ErrClosed
	}
	if v, _ := kv.lookupLocked(key); v != nil {
		return append([]byte(nil), v...), true, nil
	}
	return nil, false, nil
}

// Put implements Store. It touches memory only.
func (kv *KV) Put(key, value []byte) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	if prev, _ := kv.lookupLocked(key); prev == nil {
		kv.liveKeys++
	}
	kv.mem[string(key)] = append([]byte{}, value...) // non-nil: nil is a tombstone
	return nil
}

// Delete implements Store. It touches memory only.
func (kv *KV) Delete(key []byte) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	if prev, _ := kv.lookupLocked(key); prev != nil {
		kv.liveKeys--
	}
	kv.mem[string(key)] = nil
	return nil
}

// lookupLocked resolves a key through memtable and runs; value nil means
// tombstone or absent.
func (kv *KV) lookupLocked(key []byte) ([]byte, bool) {
	if v, ok := kv.mem[string(key)]; ok {
		return v, true
	}
	for i := len(kv.runs) - 1; i >= 0; i-- {
		if v, ok := kv.runs[i].get(key); ok {
			return v, true
		}
	}
	return nil, false
}

// Offset returns the changelog offset the store's checkpoint covers: a
// restore replays the changelog from there.
func (kv *KV) Offset() int64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.offset
}

// Checkpoint makes the store's contents its durable state, covering the
// changelog below offset. It writes the memtable as a run, merges the runs
// into one when there are more than mergeAt, commits a checkpoint file
// naming the offset and the runs, and deletes every run file the checkpoint
// does not name. A failure leaves the previous checkpoint in force.
func (kv *KV) Checkpoint(offset int64) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	if len(kv.mem) == 0 && offset == kv.offset {
		return nil
	}
	if len(kv.mem) > 0 {
		entries := make([]entry, 0, len(kv.mem))
		for k, v := range kv.mem {
			entries = append(entries, entry{key: []byte(k), value: v})
		}
		slices.SortFunc(entries, compareEntries)
		if err := kv.addRunLocked(entries); err != nil {
			return err
		}
		kv.mem = make(map[string][]byte)
	}
	if len(kv.runs) > mergeAt {
		if err := kv.mergeLocked(); err != nil {
			return err
		}
	}
	buf := make([]byte, 4, 12+4*len(kv.runs))
	buf = binary.BigEndian.AppendUint64(buf, uint64(offset))
	for _, r := range kv.runs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.n))
	}
	binary.BigEndian.PutUint32(buf, crc32.Checksum(buf[4:], crcTable))
	if err := commitFile(filepath.Join(kv.dir, checkpointName), buf); err != nil {
		return err
	}
	kv.offset = offset
	return kv.sweep()
}

// addRunLocked writes sorted entries as the newest run.
func (kv *KV) addRunLocked(entries []entry) error {
	if err := commitFile(filepath.Join(kv.dir, runName(kv.nextRun)), encodeRun(entries)); err != nil {
		return err
	}
	kv.runs = append(kv.runs, &run{n: kv.nextRun, entries: entries})
	kv.nextRun++
	return nil
}

// mergeLocked merges all runs into one, dropping shadowed entries and —
// since nothing older remains — tombstones. The old run files stay until a
// checkpoint that no longer names them.
func (kv *KV) mergeLocked() error {
	old, entries := kv.runs, snapshot(kv.merged(), nil, nil)
	kv.runs = nil
	if err := kv.addRunLocked(entries); err != nil {
		kv.runs = old
		return err
	}
	return nil
}

// sweep deletes every run and tmp file in the store's directory that the
// store's runs do not name. The caller holds kv.mu or owns kv.
func (kv *KV) sweep() error {
	keep := make(map[string]bool, len(kv.runs))
	for _, r := range kv.runs {
		keep[runName(r.n)] = true
	}
	des, err := os.ReadDir(kv.dir)
	if err != nil {
		return err
	}
	for _, de := range des {
		name := de.Name()
		if !keep[name] && (strings.HasSuffix(name, runSuffix) || strings.HasSuffix(name, ".tmp")) {
			if err := os.Remove(filepath.Join(kv.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Range implements Store.
func (kv *KV) Range(from, to []byte, fn func(key, value []byte) bool) error {
	kv.mu.RLock()
	if kv.closed {
		kv.mu.RUnlock()
		return ErrClosed
	}
	es := snapshot(kv.merged(), from, to)
	kv.mu.RUnlock()
	each(es, fn)
	return nil
}

// Len implements Store.
func (kv *KV) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return kv.liveKeys
}

// Close releases the store's memory. It writes nothing: what the last
// checkpoint does not cover is the changelog's to replay.
func (kv *KV) Close() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.closed, kv.mem, kv.runs = true, nil, nil
	return nil
}

// readCheckpoint reads the checkpoint file in dir. Format:
//
//	crc     uint32  // CRC-32C over everything after it
//	offset  uint64
//	runs    uint32* // run numbers, oldest first
func readCheckpoint(dir string) (offset int64, runs []int, err error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		return 0, nil, err
	}
	if len(data) < 12 || len(data)%4 != 0 || crc32.Checksum(data[4:], crcTable) != binary.BigEndian.Uint32(data) {
		return 0, nil, errors.New("state: checkpoint corrupt")
	}
	for b := data[12:]; len(b) > 0; b = b[4:] {
		runs = append(runs, int(binary.BigEndian.Uint32(b)))
	}
	return int64(binary.BigEndian.Uint64(data[4:])), runs, nil
}

// commitFile writes data to path through a synced tmp file and a rename, so
// a crash leaves either the old file or the whole new one.
func commitFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ---------------------------------------------------------------- runs

const runSuffix = ".run"

func runName(n int) string { return fmt.Sprintf("%06d%s", n, runSuffix) }

// tombstoneLen is the value length that marks a tombstone in a run.
const tombstoneLen = 0xFFFFFFFF

// run is one immutable sorted file, fully resident in memory. Format:
//
//	crc     uint32  // CRC-32C over everything after it
//	count   uint32
//	entries { keyLen uint32, key, valLen uint32 (tombstoneLen = tombstone), value }*
type run struct {
	n       int
	entries []entry
}

// encodeRun is the run file of sorted entries.
func encodeRun(entries []entry) []byte {
	buf := binary.BigEndian.AppendUint32(make([]byte, 4), uint32(len(entries)))
	for _, e := range entries {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.key)))
		buf = append(buf, e.key...)
		if e.value == nil {
			buf = binary.BigEndian.AppendUint32(buf, tombstoneLen)
		} else {
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.value)))
			buf = append(buf, e.value...)
		}
	}
	binary.BigEndian.PutUint32(buf, crc32.Checksum(buf[4:], crcTable))
	return buf
}

// openRun loads run n of dir.
func openRun(dir string, n int) (*run, error) {
	data, err := os.ReadFile(filepath.Join(dir, runName(n)))
	if err != nil {
		return nil, err
	}
	entries, err := decodeRun(data)
	if err != nil {
		return nil, fmt.Errorf("state: run %d: %w", n, err)
	}
	return &run{n: n, entries: entries}, nil
}

// decodeRun parses a run file whose checksum covers its count and entries,
// and whose entries fill it exactly. Keys and values alias data.
func decodeRun(data []byte) ([]entry, error) {
	if len(data) < 8 || crc32.Checksum(data[4:], crcTable) != binary.BigEndian.Uint32(data) {
		return nil, errors.New("corrupt")
	}
	count, body := binary.BigEndian.Uint32(data[4:]), data[8:]
	if uint64(count) > uint64(len(body)/8) { // an entry takes at least 8 bytes
		return nil, errors.New("count exceeds body")
	}
	entries := make([]entry, 0, count)
	field := func(n int) []byte {
		if n > len(body) {
			return nil
		}
		f := body[:n:n]
		body = body[n:]
		return f
	}
	for range count {
		kl := field(4)
		if kl == nil {
			return nil, errors.New("short")
		}
		key := field(int(binary.BigEndian.Uint32(kl)))
		vl := field(4)
		if key == nil || vl == nil {
			return nil, errors.New("short")
		}
		var value []byte
		if l := binary.BigEndian.Uint32(vl); l != tombstoneLen {
			if value = field(int(l)); value == nil {
				return nil, errors.New("short")
			}
		}
		entries = append(entries, entry{key: key, value: value})
	}
	if len(body) != 0 {
		return nil, errors.New("trailing bytes")
	}
	return entries, nil
}

// get binary-searches the run. ok distinguishes "present (maybe
// tombstone)" from "absent".
func (r *run) get(key []byte) ([]byte, bool) {
	i := sort.Search(len(r.entries), func(i int) bool {
		return compareEntries(r.entries[i], entry{key: key}) >= 0
	})
	if i < len(r.entries) && string(r.entries[i].key) == string(key) {
		return r.entries[i].value, true
	}
	return nil, false
}
