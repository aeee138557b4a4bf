package tier

import (
	"container/list"
	"sort"

	"repro/internal/metrics"
)

// DefaultCacheBytes sizes each broker's cold-reader LRU.
const DefaultCacheBytes = 64 << 20

// segReader is one hydrated cold segment: the uploaded file, which holds
// the log's sealed batches exactly as the hot segment did, plus a dense
// per-batch offset index. Immutable once built.
type segReader struct {
	path       string
	base, last int64
	data       []byte // the segment file: concatenated sealed batches
	index      []batchIdx
}

// batchIdx locates one batch inside a segReader's data.
type batchIdx struct {
	firstOffset int64
	lastOffset  int64
	pos         int
	length      int
}

// footprint is the reader's cache charge.
func (s *segReader) footprint() int64 {
	return int64(len(s.data)) + int64(len(s.index))*32 + 128
}

// read returns whole batches starting at the batch containing offset, up to
// maxBytes (always at least one batch). It returns nil when offset is past
// the segment's last offset.
func (s *segReader) read(offset int64, maxBytes int) []byte {
	if offset > s.last {
		return nil
	}
	// First batch whose last offset is at or beyond the wanted offset.
	i := sort.Search(len(s.index), func(i int) bool {
		return s.index[i].lastOffset >= offset
	})
	if i == len(s.index) {
		return nil
	}
	start := s.index[i].pos
	end := start + s.index[i].length
	for j := i + 1; j < len(s.index); j++ {
		if end-start+s.index[j].length > maxBytes {
			break
		}
		end += s.index[j].length
	}
	return s.data[start:end]
}

// Cache is a bounded LRU of hydrated cold-segment readers, shared by every
// tiered partition a broker serves. It is the cold tier's page cache: a hit
// serves from broker memory, a miss pays the DFS read to hydrate. Loads are
// deduplicated so concurrent fetches of one segment hydrate it once.
type Cache struct {
	capacity int64
	reg      *metrics.Registry

	mu      chanMutex
	entries map[string]*cacheEntry
	lru     *list.List // front = most recent; values are *cacheEntry
	used    int64
}

// cacheEntry holds one (possibly still loading) reader.
type cacheEntry struct {
	path  string
	ready chan struct{} // closed once r/err are set
	r     *segReader
	err   error
	elem  *list.Element
}

// chanMutex is a channel-based mutex so loads can release it around DFS I/O.
type chanMutex chan struct{}

func (m chanMutex) lock()   { m <- struct{}{} }
func (m chanMutex) unlock() { <-m }

// NewCache builds a cold-reader cache with the given byte capacity
// (DefaultCacheBytes when <= 0). The registry receives hit/miss/eviction
// counters; nil creates a private one.
func NewCache(capacityBytes int64, reg *metrics.Registry) *Cache {
	if capacityBytes <= 0 {
		capacityBytes = DefaultCacheBytes
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Cache{
		capacity: capacityBytes,
		reg:      reg,
		mu:       make(chanMutex, 1),
		entries:  make(map[string]*cacheEntry),
		lru:      list.New(),
	}
}

// get returns the hydrated reader for a segment path, loading it with load
// on a miss. Concurrent gets for one path share a single load.
func (c *Cache) get(path string, load func() (*segReader, error)) (*segReader, error) {
	c.mu.lock()
	if e, ok := c.entries[path]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		c.reg.Counter("tier.cache.hit").Inc()
		return e.r, nil
	}
	e := &cacheEntry{path: path, ready: make(chan struct{})}
	c.entries[path] = e
	c.mu.unlock()

	c.reg.Counter("tier.cache.miss").Inc()
	r, err := load()
	c.mu.lock()
	e.r, e.err = r, err
	close(e.ready)
	if err != nil {
		delete(c.entries, path) // a failed load is retryable
		c.mu.unlock()
		return nil, err
	}
	e.elem = c.lru.PushFront(e)
	c.used += r.footprint()
	c.evictLocked()
	c.mu.unlock()
	return r, nil
}

// evictLocked drops least-recently-used readers until within capacity,
// always keeping the most recent one so a segment larger than the whole
// cache can still be served.
func (c *Cache) evictLocked() {
	for c.used > c.capacity && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.path)
		c.used -= e.r.footprint()
		c.reg.Counter("tier.cache.evict").Inc()
	}
}

// invalidate drops a segment (deleted by total retention) from the cache.
func (c *Cache) invalidate(path string) {
	c.mu.lock()
	defer c.mu.unlock()
	e, ok := c.entries[path]
	if !ok || e.elem == nil {
		return
	}
	c.lru.Remove(e.elem)
	delete(c.entries, path)
	c.used -= e.r.footprint()
}

// Stats reports the cache's current occupancy.
func (c *Cache) Stats() (readers int, bytes int64) {
	c.mu.lock()
	defer c.mu.unlock()
	return c.lru.Len(), c.used
}
