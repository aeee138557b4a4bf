package state

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// KVConfig parameterises the persistent store.
type KVConfig struct {
	// MemtableEntries is the flush threshold: once the memtable holds
	// this many entries it is written out as a sorted run.
	MemtableEntries int
	// MaxRuns triggers a full merge once exceeded.
	MaxRuns int
	// SyncWAL fsyncs the write-ahead log on every write (durable but
	// slow); off by default, matching the processing layer's stance that
	// the changelog — not local disk — is the recovery source of truth.
	SyncWAL bool
}

func (c KVConfig) withDefaults() KVConfig {
	if c.MemtableEntries == 0 {
		c.MemtableEntries = 16 * 1024
	}
	if c.MaxRuns == 0 {
		c.MaxRuns = 4
	}
	return c
}

// KV is a persistent log-structured store: writes land in a WAL-backed
// memtable, which flushes to immutable sorted runs; reads consult the
// memtable then runs newest-first; a background-free merge compacts runs
// when they pile up. It stands in for RocksDB as the off-heap local state
// of the processing layer (paper §4.4).
type KV struct {
	dir string
	cfg KVConfig

	mu       sync.RWMutex
	mem      map[string][]byte // nil value = tombstone, as in runs
	runs     []*run            // oldest first
	wal      *wal
	nextRun  int
	closed   bool
	liveKeys int
}

// OpenKV opens or creates a persistent store in dir, replaying the WAL.
func OpenKV(dir string, cfg KVConfig) (*KV, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	kv := &KV{dir: dir, cfg: cfg, mem: make(map[string][]byte)}

	// Load runs in file order (ascending run number = oldest first).
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runNums []int
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, runSuffix) {
			if n, err := strconv.Atoi(strings.TrimSuffix(name, runSuffix)); err == nil {
				runNums = append(runNums, n)
			}
		}
	}
	sort.Ints(runNums)
	for _, n := range runNums {
		r, err := openRun(runPath(dir, n))
		if err != nil {
			return nil, err
		}
		kv.runs = append(kv.runs, r)
		if n >= kv.nextRun {
			kv.nextRun = n + 1
		}
	}

	w, err := openWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	kv.wal = w
	err = w.replay(func(op byte, key, value []byte) {
		if op == walOpPut {
			kv.mem[string(key)] = value // a sub-slice of the log: never nil
		} else {
			kv.mem[string(key)] = nil
		}
	})
	if err != nil {
		w.close()
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

// Put implements Store.
func (kv *KV) Put(key, value []byte) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	if err := kv.wal.appendRecord(walOpPut, key, value); err != nil {
		return err
	}
	if kv.cfg.SyncWAL {
		if err := kv.wal.sync(); err != nil {
			return err
		}
	}
	prev, existed := kv.lookupLocked(key)
	if !existed || prev == nil {
		kv.liveKeys++
	}
	kv.mem[string(key)] = append([]byte{}, value...) // non-nil: nil is a tombstone
	return kv.maybeFlushLocked()
}

// Delete implements Store.
func (kv *KV) Delete(key []byte) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	if err := kv.wal.appendRecord(walOpDelete, key, nil); err != nil {
		return err
	}
	if kv.cfg.SyncWAL {
		if err := kv.wal.sync(); err != nil {
			return err
		}
	}
	if prev, existed := kv.lookupLocked(key); existed && prev != nil {
		kv.liveKeys--
	}
	kv.mem[string(key)] = nil
	return kv.maybeFlushLocked()
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

// maybeFlushLocked flushes the memtable to a run and merges runs when they
// pile up.
func (kv *KV) maybeFlushLocked() error {
	if len(kv.mem) < kv.cfg.MemtableEntries {
		return nil
	}
	if err := kv.flushLocked(); err != nil {
		return err
	}
	if len(kv.runs) > kv.cfg.MaxRuns {
		return kv.mergeLocked()
	}
	return nil
}

// flushLocked writes the memtable as a new sorted run and resets the WAL.
func (kv *KV) flushLocked() error {
	if len(kv.mem) == 0 {
		return nil
	}
	entries := make([]entry, 0, len(kv.mem))
	for k, v := range kv.mem {
		entries = append(entries, entry{key: []byte(k), value: v})
	}
	sort.Slice(entries, func(i, j int) bool { return compareEntries(entries[i], entries[j]) < 0 })
	r, err := writeRun(runPath(kv.dir, kv.nextRun), entries)
	if err != nil {
		return err
	}
	kv.nextRun++
	kv.runs = append(kv.runs, r)
	kv.mem = make(map[string][]byte)
	return kv.wal.reset()
}

// mergeLocked merges all runs into one, dropping shadowed entries and —
// since nothing older remains — tombstones.
func (kv *KV) mergeLocked() error {
	r, err := writeRun(runPath(kv.dir, kv.nextRun), snapshot(kv.merged(), nil, nil))
	if err != nil {
		return err
	}
	kv.nextRun++
	old := kv.runs
	kv.runs = []*run{r}
	for _, o := range old {
		o.remove()
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

// Flush forces the memtable to disk; primarily for tests and shutdown.
func (kv *KV) Flush() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	return kv.flushLocked()
}

// Close flushes and closes the store.
func (kv *KV) Close() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return nil
	}
	kv.closed = true
	var first error
	if err := kv.wal.sync(); err != nil {
		first = err
	}
	if err := kv.wal.close(); err != nil && first == nil {
		first = err
	}
	for _, r := range kv.runs {
		r.release()
	}
	return first
}

// ---------------------------------------------------------------- runs

const runSuffix = ".run"

func runPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%06d%s", n, runSuffix))
}

// run is one immutable sorted file, fully resident in memory. Format:
//
//	count   uint32
//	crc     uint32  // over all entry bytes
//	entries { keyLen uint32, key, valLen uint32 (0xFFFFFFFF = tombstone), value }*
type run struct {
	path    string
	entries []entry
}

// writeRun persists sorted entries as a run file.
func writeRun(path string, entries []entry) (*run, error) {
	var body []byte
	for _, e := range entries {
		body = binary.BigEndian.AppendUint32(body, uint32(len(e.key)))
		body = append(body, e.key...)
		if e.value == nil {
			body = binary.BigEndian.AppendUint32(body, 0xFFFFFFFF)
		} else {
			body = binary.BigEndian.AppendUint32(body, uint32(len(e.value)))
			body = append(body, e.value...)
		}
	}
	buf := make([]byte, 0, 8+len(body))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(entries)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(body, walTable))
	buf = append(buf, body...)
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return &run{path: path, entries: entries}, nil
}

// writeFileSync writes data to path and fsyncs it before returning. Run
// files are renamed into place and then trusted as durable (the WAL records
// that cover them are dropped), so a torn run after a crash would lose data.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openRun loads a run file, validating its checksum.
func openRun(path string) (*run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("state: run %s truncated", path)
	}
	count := int(binary.BigEndian.Uint32(data))
	wantCRC := binary.BigEndian.Uint32(data[4:])
	body := data[8:]
	if crc32.Checksum(body, walTable) != wantCRC {
		return nil, fmt.Errorf("state: run %s corrupt", path)
	}
	entries := make([]entry, 0, count)
	pos := 0
	for i := 0; i < count; i++ {
		if pos+4 > len(body) {
			return nil, fmt.Errorf("state: run %s short", path)
		}
		kl := int(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
		if pos+kl+4 > len(body) {
			return nil, fmt.Errorf("state: run %s short", path)
		}
		key := append([]byte(nil), body[pos:pos+kl]...)
		pos += kl
		vl := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		var value []byte
		if vl != 0xFFFFFFFF {
			if pos+int(vl) > len(body) {
				return nil, fmt.Errorf("state: run %s short", path)
			}
			value = append([]byte{}, body[pos:pos+int(vl)]...)
			pos += int(vl)
		}
		entries = append(entries, entry{key: key, value: value})
	}
	return &run{path: path, entries: entries}, nil
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

// remove deletes the run file.
func (r *run) remove() {
	os.Remove(r.path)
	r.entries = nil
}

// release drops in-memory entries without deleting the file.
func (r *run) release() { r.entries = nil }
