// Package state provides the local state stores of the processing layer
// (paper §3.2 "stateful processing", §4.4): tasks keep state as arbitrary
// keyed data accessed locally for efficiency. Two implementations exist —
// an in-memory map store, and a persistent log-structured store (memtable +
// checkpointed sorted runs) standing in for RocksDB. Fault tolerance comes
// from the changelog mechanism in the processing layer, which replays keyed
// updates from the messaging layer; a persistent store's checkpoint names
// the changelog offset its runs cover, so a restore replays only the rest.
package state

import (
	"bytes"
	"errors"
	"sort"
	"sync"
)

// ErrClosed reports use of a closed store.
var ErrClosed = errors.New("state: store closed")

// Writer is the write half of keyed state: what ApplyBatches folds a
// changelog into.
type Writer interface {
	// Put stores a value.
	Put(key, value []byte) error
	// Delete removes a key; deleting an absent key is a no-op.
	Delete(key []byte) error
}

// Store is keyed local state. Implementations are safe for concurrent use.
type Store interface {
	Writer
	// Get returns the value for key, with found=false for absent keys.
	Get(key []byte) (value []byte, found bool, err error)
	// Range calls fn over keys in [from, to) in ascending order; nil
	// bounds are open. fn returning false stops the scan.
	Range(from, to []byte, fn func(key, value []byte) bool) error
	// Len returns the number of live keys.
	Len() int
	// Close releases resources.
	Close() error
}

// MemStore is a sorted in-memory Store. The zero value is not usable; use
// NewMem.
type MemStore struct {
	mu     sync.RWMutex
	m      map[string][]byte
	closed bool
}

// NewMem returns an empty in-memory store.
func NewMem() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

// Get implements Store.
func (s *MemStore) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.m[string(key)]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Put implements Store.
func (s *MemStore) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.m[string(key)] = append([]byte{}, value...) // non-nil: nil is a tombstone
	return nil
}

// Delete implements Store.
func (s *MemStore) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	delete(s.m, string(key))
	return nil
}

// Range implements Store.
func (s *MemStore) Range(from, to []byte, fn func(key, value []byte) bool) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	es := snapshot(s.m, from, to)
	s.mu.RUnlock()
	each(es, fn)
	return nil
}

// snapshot returns the entries of m with keys in [from, to), nil bounds
// open, in key order, skipping tombstones (nil values). Values are shared,
// not copied: a store replaces a value, never writes into one.
func snapshot(m map[string][]byte, from, to []byte) []entry {
	keys := make([]string, 0, len(m))
	for k, v := range m {
		if v != nil && (from == nil || k >= string(from)) && (to == nil || k < string(to)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	es := make([]entry, len(keys))
	for i, k := range keys {
		es[i] = entry{key: []byte(k), value: m[k]}
	}
	return es
}

// each calls fn over copies of es until it returns false: a Range's walk
// once the store's lock is released.
func each(es []entry, fn func(key, value []byte) bool) {
	for _, e := range es {
		if !fn(e.key, append([]byte(nil), e.value...)) {
			return
		}
	}
}

// Len implements Store.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.m = nil
	return nil
}

// entry is one key/value pair in a run; tombstones carry a nil value.
type entry struct {
	key   []byte
	value []byte // nil = tombstone
}

// compareEntries orders entries by key.
func compareEntries(a, b entry) int { return bytes.Compare(a.key, b.key) }
